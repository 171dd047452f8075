"""Command-line front end: parse JSON inputs, dispatch analyses, emit a
deterministic JSON report on stdout.

Exit codes: 0 success, 2 rejected input (including parse errors), 3 refused
certification (degeneracy).  `verify-paper` additionally exits 1 when any
acceptance check fails.  Reports are identical for identical inputs and seed,
up to the elapsed_s timing field.

Only the `master`, `residues` and `verify-paper` subcommands load sympy,
and only when they run: `master` is imported by their handlers (by the
`verify` checks that need it, for `verify-paper`), and nothing this module
imports at load time needs it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction
from importlib import resources

from . import __version__
from .aomoto import (generic_dims_sample, log_resonance_membership,
                     resonance_membership)
from .arrangement import Arrangement, matroid_circuits, os_algebra
from .elliptic import e2_page, elliptic_model
from .errors import DegeneracyError, ParseError, PreconditionError
from .foxcalc import Character, Presentation, twisted_cohomology
from .io import (input_kind, load_json, parse_arrangement, parse_input,
                 rational_from_text, serialize)
from .scalars import DEFAULT_PRIME, GaussianRational
from .torus import ExpPolynomial, LaurentSystem, etc_membership
from .verify import check_elliptic_suite, run_all

_IU = GaussianRational(0, 1)

# The master functions that bench/spans.py rebinds on this module.  They
# resolve from `master` on first access (PEP 562), so that reading them does
# not load sympy at import; the hook exists only for that outside-in tracer
# and goes away with the shims of ROADMAP item 1.
_TRACED_MASTER = ("critical_points_bivariate", "critical_points_univariate",
                  "local_koszul_univariate", "log_zero_divisor_p1")


def __getattr__(name):
    if name not in _TRACED_MASTER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import master
    value = getattr(master, name)
    globals()[name] = value
    return value


def jsonable(x):
    """Exact JSON form of report values: rationals as strings, dataclasses
    as objects, tuple keys flattened to comma-joined strings.

    Rationals are rendered in full.  Python refuses to print an integer of
    more than 4300 digits by default; the inputs are bounded already (see
    `io.parse_rational`), so that limit is lifted here, and only here."""
    if not hasattr(sys, "get_int_max_str_digits"):  # no limit before 3.10.7
        return _jsonable(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _jsonable(x)
    finally:
        sys.set_int_max_str_digits(limit)


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str, float)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, GaussianRational):
        return {"re": str(x.re), "im": str(x.im)}
    if isinstance(x, ExpPolynomial):
        return [{"frequency": str(mu), "coeff": str(c)} for mu, c in x.terms]
    if is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, dict):
        return {
            (",".join(str(k) for k in key) if isinstance(key, tuple)
             else str(key)): _jsonable(v)
            for key, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in x]
    return str(x)


def resolve_path(path):
    """Filesystem path, else a bundled fixture by basename."""
    if os.path.exists(path):
        return path
    name = os.path.basename(path)
    if not name.endswith(".json"):
        name += ".json"
    bundled = resources.files("jumploci").joinpath("fixtures", name)
    if bundled.is_file():
        return str(bundled)
    raise ParseError("file not found and no bundled fixture matches", path)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


_KINDS = {Arrangement: "an arrangement", LaurentSystem: "a torus system",
          Presentation: "a presentation"}


def _check_kind(found, kind, where):
    """A ParseError at the option `where` when the input is of another kind
    than `kind`; `found` None (no recognised shape) passes."""
    if found is not None and found is not kind:
        raise ParseError(f"expected {_KINDS[kind]}, got {_KINDS[found]}",
                         where)


def _load_arrangement(path):
    """An arrangement file.  A file shaped like another kind of input is
    refused by its kind; anything else goes to `parse_arrangement`, whose
    messages name the malformed field."""
    path = resolve_path(path)
    obj = load_json(path)
    _check_kind(input_kind(obj), Arrangement, "arrangement")
    arr = parse_arrangement(obj, path)
    return arr, {"path": path, "sha256": _digest(path)}


def _load_typed(path, kind, where):
    """A typed input file that must parse to a `kind`; a file of another
    kind is a ParseError at the option `where`."""
    path = resolve_path(path)
    value = parse_input(path)
    _check_kind(type(value), kind, where)
    return value, {"path": path, "sha256": _digest(path)}


def parse_rational_csv(text, what):
    return [rational_from_text(tok.strip(), f"{what}[{k}]")
            for k, tok in enumerate(text.split(","))]


def _subspace_rows(text):
    return [parse_rational_csv(row, "subspace row") for row in text.split(";")]


# --------------------------------------------------------------------- handlers

def _cmd_os_algebra(args):
    arr, digest = _load_arrangement(args.arrangement)
    circuits = matroid_circuits(arr)
    if args.top is None:
        algebra = os_algebra(arr)
        rank = algebra.top  # the default top is the rank
    else:
        rank = arr.rank()
        algebra = os_algebra(arr, min(args.top, rank))
    result = {
        "dims": algebra.dims(),
        "euler": algebra.euler() if algebra.complete else None,
        "size": arr.size, "rank": rank, "central": arr.central,
        "circuits": circuits,
        "canonical_input": serialize(arr),
    }
    return result, {"arrangement": digest}


def _cmd_aomoto(args):
    arr, digest = _load_arrangement(args.arrangement)
    alpha = parse_rational_csv(args.alpha, "alpha")
    algebra = os_algebra(arr)
    rep = resonance_membership(algebra, alpha, args.degree, args.depth)
    return jsonable(rep), {"arrangement": digest}


def _cmd_resonance_sample(args):
    arr, digest = _load_arrangement(args.arrangement)
    algebra = os_algebra(arr)
    subspace = _subspace_rows(args.subspace) if args.subspace else None
    rep = generic_dims_sample(algebra, subspace=subspace, trials=args.trials,
                              prime=args.prime, seed=args.seed)
    return jsonable(rep), {"arrangement": digest}


def _cmd_log_resonance(args):
    arr, digest = _load_arrangement(args.arrangement)
    alpha = parse_rational_csv(args.alpha, "alpha")
    rep = log_resonance_membership(os_algebra(arr), alpha)
    return jsonable(rep), {"arrangement": digest}


def _cmd_elliptic(args):
    check = check_elliptic_suite(args.n, seed=args.seed, trials=args.trials)
    return jsonable(check), {"n": args.n}


def _cmd_e2_page(args):
    x = parse_rational_csv(args.x, "x")
    model = elliptic_model(args.n)
    y = [_IU * c for c in x]
    rep = e2_page(model, x, y)
    return jsonable(rep), {"n": args.n, "x": args.x}


def _cmd_etc_membership(args):
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
    pres, digest = _load_typed(args.presentation, Presentation,
                               "presentation")
    values = parse_rational_csv(args.character, "character")
    rep = twisted_cohomology(pres, Character(pres, values))
    return jsonable(rep), {"presentation": digest, "character": args.character}


def _cmd_verify_paper(args):
    checks = run_all(seed=args.seed, prime=args.prime)
    result = {
        "checks": jsonable(checks),
        "passed": all(c.passed for c in checks),
    }
    return result, {"seed": args.seed, "prime": args.prime}


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

    def sub(name, handler, **kw):
        p = subs.add_parser(name, **kw)
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=int, default=0,
                       help="seed for all randomized sampling (default 0)")
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

    p = sub("resonance-sample", _cmd_resonance_sample,
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

    p = sub("elliptic", _cmd_elliptic,
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

    p = sub("verify-paper", _cmd_verify_paper,
            help="run the full acceptance battery (exit 1 on any failure)")
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                   help="prime for finite-field sampling")

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


def main(argv=None):
    args = _parser().parse_args(_glue_negative_values(
        sys.argv[1:] if argv is None else argv))
    t0 = time.monotonic()
    try:
        result, inputs = args.handler(args)
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
    report = {
        "tool": "jumploci",
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": args.seed,
        "inputs": jsonable(inputs),
        "result": result,
        "elapsed_s": round(time.monotonic() - t0, 6),
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    if args.subcommand == "verify-paper" and not result["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
