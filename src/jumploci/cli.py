"""Command-line front end: parse JSON inputs, dispatch analyses, emit a
deterministic JSON report on stdout.

Exit codes: 0 success, 2 rejected input (including parse errors), 3 refused
certification (degeneracy).  `verify-paper` additionally exits 1 when any
acceptance check fails.  Reports are identical for identical inputs and seed,
up to the elapsed_s timing field.

At load time this module imports only what the parser and every subcommand
share: `io`, `arrangement`, `exterior`, `scalars` and `errors`, and no
`dataclasses`.  Each handler imports the rest itself, when it runs:

- `os-algebra` loads nothing more;
- `etc-membership` loads `torus`, and `fox-h1` loads `foxcalc`;
- `aomoto`, `resonance-sample` and `log-resonance` load `aomoto`;
- `e2-page` loads `elliptic` (and `aomoto`, which it uses);
- `elliptic` and `verify-paper` load `verify`, and with it `aomoto` and
  `elliptic`; `verify-paper` also loads `master`, in the checks that use it;
- `master` and `residues` load `master`.

Only `master` loads sympy, and only in the steps that still call it: a
numerator or eliminant with a non-real root, with no square-free prime in
Musser's sieve, or with more root sets than the root-subset split tries
(so `verify-paper`, whose univariate checks have non-real zeros).
`master` on the real zeros of the benchmark plans and `residues` never
load it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import re
import sys
import time
from fractions import Fraction
from importlib import import_module

from . import __version__
from .arrangement import Arrangement, matroid_circuits, os_algebra, walk_rank
from .errors import DegeneracyError, ParseError, PreconditionError
from .io import (input_kind, load_json, parse_arrangement, parse_typed,
                 rational_from_text, read_bytes, serialize)
from .scalars import DEFAULT_PRIME, GaussianRational

_IU = GaussianRational(0, 1)

# The functions that bench/spans.py rebinds on this module, by the module
# each resolves from on first access (PEP 562), so that reading them loads
# neither sympy nor a module the subcommand does not use.  The handlers
# import them from their modules; the hook exists only for that outside-in
# tracer and goes away with the shims of ROADMAP item 1.
_TRACED = {
    "generic_dims_sample": "aomoto",
    "log_resonance_membership": "aomoto",
    "e2_page": "elliptic",
    "critical_points_bivariate": "master",
    "critical_points_univariate": "master",
    "local_koszul_univariate": "master",
    "log_zero_divisor_p1": "master",
}


def __getattr__(name):
    module = _TRACED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


@contextlib.contextmanager
def _every_digit():
    """Python refuses to print an integer of more than 4300 digits by
    default; the inputs are bounded already (see `io.parse_rational`), so
    that limit is lifted while a report is converted (`jsonable`) and
    dumped (`main`), and only then."""
    if not hasattr(sys, "get_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def jsonable(x):
    """Exact JSON form of report values: rationals as strings, dataclasses
    as objects, tuple keys flattened to comma-joined strings.  Rationals
    are rendered in full (`_every_digit`); ints stay ints."""
    with _every_digit():
        return _jsonable(x)


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str, float)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, GaussianRational):
        return {"re": str(x.re), "im": str(x.im)}
    if isinstance(x, dict):
        return {
            (",".join(str(k) for k in key) if isinstance(key, tuple)
             else str(key)): _jsonable(v)
            for key, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in x]
    # a report object, whose module has loaded `dataclasses` already (no
    # report is a container); an exponential polynomial, which is no
    # dataclass, exists only once `torus` is loaded
    from dataclasses import fields, is_dataclass
    if is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name)) for f in fields(x)}
    from .torus import ExpPolynomial
    if isinstance(x, ExpPolynomial):
        return [{"frequency": str(mu), "coeff": str(c)} for mu, c in x.terms]
    return str(x)


_quote = json.encoder.encode_basestring_ascii
_INF = float("inf")
_INT_ONLY = {int}


def indented_json(x):
    """`json.dumps(x, indent=2)`, byte for byte, without the pure-Python
    encoder that `json` falls back to whenever an indent is set.  A value
    `json.dumps` refuses raises the same TypeError; a circular value is not
    looked for, and recurses until RecursionError."""
    out = []
    _write(x, out, "\n")
    return "".join(out)


def _float_text(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key):
    # the key conversions of json, in its order: float before bool and
    # int, bool before int
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _quote(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write(x, out, nl):
    """Append the text of `x` to `out`; `nl` is a newline and the indent of
    the line `x` starts on.  Containers are tested first, since a report is
    mostly lists; no type is both a container and a scalar."""
    if isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        if {*map(type, x)} == _INT_ONLY:  # not bool, not an int subclass
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, x))
                       + nl + "]")
            return
        sep = "[" + inner
        for v in x:
            out.append(sep)
            sep = "," + inner
            _write(v, out, inner)
        out.append(nl + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, v in x.items():
            out.append(sep + _key_text(key) + ": ")
            sep = "," + inner
            _write(v, out, inner)
        out.append(nl + "}")
    elif isinstance(x, str):
        out.append(_quote(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        out.append(_float_text(x))
    else:
        raise TypeError(f"Object of type {x.__class__.__name__} "
                        f"is not JSON serializable")


def resolve_path(path):
    """Filesystem path, else, for a bare name (no directory part), the
    bundled fixture of that name."""
    if os.path.exists(path):
        return path
    if os.path.basename(path) != path:
        raise ParseError("file not found", path)
    name = path if path.endswith(".json") else path + ".json"
    from importlib import resources
    bundled = resources.files("jumploci").joinpath("fixtures", name)
    if bundled.is_file():
        return str(bundled)
    raise ParseError("file not found and no bundled fixture matches", path)


def _check_kind(found, kind, where):
    """A ParseError at the option `where` when the input is of another kind
    than `kind`; `found` None (no recognised shape) passes.  The classes of
    the other kinds are imported only to name them in the message."""
    if found is not None and found is not kind:
        from .foxcalc import Presentation
        from .torus import LaurentSystem
        kinds = {Arrangement: "an arrangement",
                 LaurentSystem: "a torus system",
                 Presentation: "a presentation"}
        raise ParseError(f"expected {kinds[kind]}, got {kinds[found]}", where)


def _read(path):
    """The resolved path, the JSON value in the file, and the report's
    record of the input: the file is read once, so its SHA-256 names the
    bytes that were parsed."""
    path = resolve_path(path)
    data = read_bytes(path)
    return path, load_json(path, data), {
        "path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _load_arrangement(path):
    """An arrangement file.  A file shaped like another kind of input is
    refused by its kind; anything else goes to `parse_arrangement`, whose
    messages name the malformed field."""
    path, obj, digest = _read(path)
    _check_kind(input_kind(obj), Arrangement, "arrangement")
    return parse_arrangement(obj, path), digest


def _load_typed(path, kind, where):
    """A typed input file that must parse to a `kind`; a file of another
    kind is a ParseError at the option `where`."""
    path, obj, digest = _read(path)
    value = parse_typed(obj, path)
    _check_kind(type(value), kind, where)
    return value, digest


def parse_rational_csv(text, what):
    return [rational_from_text(tok.strip(), f"{what}[{k}]")
            for k, tok in enumerate(text.split(","))]


def _subspace_rows(text):
    return [parse_rational_csv(row, "subspace row") for row in text.split(";")]


# --------------------------------------------------------------------- handlers

def _cmd_os_algebra(args):
    arr, digest = _load_arrangement(args.arrangement)
    circuits = matroid_circuits(arr)
    rank = walk_rank(arr)  # off the walk that found the circuits
    algebra = os_algebra(arr, rank if args.top is None
                         else min(args.top, rank))
    result = {
        "dims": algebra.dims(),
        "euler": algebra.euler() if algebra.complete else None,
        "size": arr.size, "rank": rank, "central": arr.central,
        "circuits": circuits,
        "canonical_input": serialize(arr),
    }
    return result, {"arrangement": digest}


def _cmd_aomoto(args):
    from .aomoto import resonance_membership
    arr, digest = _load_arrangement(args.arrangement)
    alpha = parse_rational_csv(args.alpha, "alpha")
    algebra = os_algebra(arr)
    rep = resonance_membership(algebra, alpha, args.degree, args.depth)
    return jsonable(rep), {"arrangement": digest}


def _cmd_resonance_sample(args):
    from .aomoto import generic_dims_sample
    arr, digest = _load_arrangement(args.arrangement)
    algebra = os_algebra(arr)
    subspace = _subspace_rows(args.subspace) if args.subspace else None
    rep = generic_dims_sample(algebra, subspace=subspace, trials=args.trials,
                              prime=args.prime, seed=args.seed)
    return jsonable(rep), {"arrangement": digest}


def _cmd_log_resonance(args):
    from .aomoto import log_resonance_membership
    arr, digest = _load_arrangement(args.arrangement)
    alpha = parse_rational_csv(args.alpha, "alpha")
    rep = log_resonance_membership(os_algebra(arr), alpha)
    return jsonable(rep), {"arrangement": digest}


def _cmd_elliptic(args):
    from .verify import check_elliptic_suite
    check = check_elliptic_suite(args.n, seed=args.seed, trials=args.trials)
    return jsonable(check), {"n": args.n}


def _cmd_e2_page(args):
    from .elliptic import e2_page, elliptic_model
    x = parse_rational_csv(args.x, "x")
    model = elliptic_model(args.n)
    y = [_IU * c for c in x]
    rep = e2_page(model, x, y)
    return jsonable(rep), {"n": args.n, "x": args.x}


def _cmd_etc_membership(args):
    from .torus import LaurentSystem, etc_membership
    system, digest = _load_typed(args.system, LaurentSystem, "system")
    alpha = parse_rational_csv(args.alpha, "alpha")
    rep = etc_membership(system, alpha)
    return jsonable(rep), {"system": digest}


def _cmd_master(args):
    from .master import (critical_points_bivariate,
                         critical_points_univariate, local_koszul_univariate,
                         log_zero_divisor_p1)
    if (args.points is None) == (args.arrangement is None):
        raise PreconditionError(
            "need exactly one of --points (univariate) or --arrangement "
            "(bivariate)")
    if args.points is not None:
        points = parse_rational_csv(args.points, "points")
        lam = parse_rational_csv(args.weights, "weights")
        # one factorization: the three functions share the configuration's
        # log divisor through master's one-entry memo
        return {
            "critical": jsonable(critical_points_univariate(points, lam)),
            "log_divisor": jsonable(log_zero_divisor_p1(points, lam)),
            "koszul": jsonable(local_koszul_univariate(points, lam)),
        }, {"points": args.points, "weights": args.weights}
    arr, digest = _load_arrangement(args.arrangement)
    lam = parse_rational_csv(args.weights, "weights")
    rep = critical_points_bivariate(arr, lam)
    return jsonable(rep), {"arrangement": digest, "weights": args.weights}


def _cmd_residues(args):
    from .master import residues_line_arrangement
    arr, digest = _load_arrangement(args.arrangement)
    lam = parse_rational_csv(args.weights, "weights")
    return jsonable(residues_line_arrangement(arr, lam)), \
        {"arrangement": digest, "weights": args.weights}


def _cmd_fox_h1(args):
    from .foxcalc import Character, Presentation, twisted_cohomology
    pres, digest = _load_typed(args.presentation, Presentation,
                               "presentation")
    values = parse_rational_csv(args.character, "character")
    rep = twisted_cohomology(pres, Character(pres, values))
    return jsonable(rep), {"presentation": digest, "character": args.character}


def _cmd_verify_paper(args):
    from .verify import run_all
    checks = run_all(seed=args.seed)
    result = {
        "checks": jsonable(checks),
        "passed": all(c.passed for c in checks),
    }
    return result, {"seed": args.seed, "prime": DEFAULT_PRIME}


# --------------------------------------------------------------------- wiring

def _int_at_least(low):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jumploci",
        description="Exact cohomology jumping-loci computations; every "
                    "subcommand prints a JSON report.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def sub(name, handler, sampled=False, **kw):
        # the report's seed is 0 where nothing is sampled
        p = subs.add_parser(name, **kw)
        p.set_defaults(handler=handler, seed=0)
        if sampled:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for the random samples (default 0)")
        p.add_argument("--json-out", metavar="PATH", default=None,
                       help="also write the report to this file")
        return p

    p = sub("os-algebra", _cmd_os_algebra,
            help="Orlik-Solomon dims, Euler number, circuits")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--top", type=int, default=None)

    p = sub("aomoto", _cmd_aomoto,
            help="Aomoto cohomology dims and resonance membership")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--alpha", required=True,
                   help="comma-separated rational coefficients")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--depth", type=int, default=1)

    p = sub("resonance-sample", _cmd_resonance_sample, sampled=True,
            help="generic cohomology dims over a prime field")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--subspace", default=None,
                   help="semicolon-separated rows of rational coefficients; "
                   "refused if their rank drops mod the prime")
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                   help="prime for finite-field sampling")
    p.add_argument("--trials", type=_int_at_least(1), default=40,
                   help="number of sample points (default 40)")

    p = sub("log-resonance", _cmd_log_resonance,
            help="logarithmic degree-1 resonance membership")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--alpha", required=True)

    p = sub("elliptic", _cmd_elliptic, sampled=True,
            help="full elliptic configuration-space battery for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=_int_at_least(3), default=None,
                   help="sample count of every sampled check; at least 3, "
                        "one scroll sample per stratum (rank 1, general, "
                        "near miss)")

    p = sub("e2-page", _cmd_e2_page,
            help="E2 page of the twisted complex at a pure class (x, ix)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True,
                   help="comma-separated rational x coordinates")

    p = sub("etc-membership", _cmd_etc_membership,
            help="exponential tangent cone membership of a direction")
    p.add_argument("--system", required=True)
    p.add_argument("--alpha", required=True)

    p = sub("master", _cmd_master,
            help="critical points of a master function")
    p.add_argument("--points", default=None,
                   help="puncture points (univariate mode)")
    p.add_argument("--arrangement", default=None,
                   help="line arrangement file (bivariate mode)")
    p.add_argument("--weights", required=True,
                   help="comma-separated rational weights")

    p = sub("residues", _cmd_residues,
            help="boundary residues of a projective line arrangement form")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--weights", required=True)

    p = sub("fox-h1", _cmd_fox_h1,
            help="twisted cohomology of a presentation at a character")
    p.add_argument("--presentation", required=True)
    p.add_argument("--character", required=True,
                   help="comma-separated nonzero rational character values")

    sub("verify-paper", _cmd_verify_paper, sampled=True,
        help="run the full acceptance battery (exit 1 on any failure)")

    return parser


@functools.cache
def _parser():
    """The parser of `main`, built on its first call and kept for the
    process: building the tree of subcommands costs more than most runs."""
    return build_parser()


_LIST_OPTIONS = ("--alpha", "--weights", "--points", "--x", "--character",
                 "--subspace")


def _glue_negative_values(argv):
    """argparse takes a value such as -2,1,1 for an option string, so a
    value after a list option that starts with a minus sign and a digit or
    point is glued to it (--alpha=-2,1,1).  A missing value, as in
    `--alpha --degree 1`, is left for argparse to refuse."""
    out = []
    for arg in argv:
        if out and out[-1] in _LIST_OPTIONS and re.match(r"-[0-9.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _check_writable(path):
    """A ParseError naming `path` when no report can be written there: it
    is a directory, or its parent is not one.  Checked before the run, so
    that such a path costs no run and prints nothing."""
    if os.path.isdir(path):
        raise ParseError("cannot write the report: is a directory", path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ParseError("cannot write the report: no such directory", path)


def _write_report(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write the report: {exc.strerror or exc}",
                         path) from None


def main(argv=None):
    args = _parser().parse_args(_glue_negative_values(
        sys.argv[1:] if argv is None else argv))
    t0 = time.monotonic()
    try:
        if args.json_out:
            _check_writable(args.json_out)
        result, inputs = args.handler(args)
        report = {
            "tool": "jumploci",
            "version": __version__,
            "subcommand": args.subcommand,
            "seed": args.seed,
            "inputs": jsonable(inputs),
            "result": result,
            "elapsed_s": round(time.monotonic() - t0, 6),
        }
        with _every_digit():
            text = indented_json(report)
        # the file first: a report that cannot be saved is not printed
        if args.json_out:
            _write_report(args.json_out, text + "\n")
    except ParseError as exc:
        print(json.dumps({"error": str(exc), "kind": "parse"}),
              file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(json.dumps({"error": str(exc), "kind": "degeneracy"}),
              file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(json.dumps({"error": str(exc), "kind": "precondition"}),
              file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has closed stdout (`| head`): point it at devnull, so
        # that the flush at exit raises no second error (the Python docs'
        # note on SIGPIPE), and exit as the run itself did
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    if args.subcommand == "verify-paper" and not result["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
