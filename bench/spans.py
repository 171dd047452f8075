"""Outside-in span recorder for the traced run.

It rebinds the module and class attributes through which callers reach each
layer's public functions (for example `scalars.rref`, `exterior.rref` and
`elliptic.rref` for the one elimination routine, `sympy.resultant` for the
master path), so no file under src/ changes.  Every wrapped call opens a
span whose parent is the innermost span open at the time; on exit its
duration minus the time of its child spans is added to the layer's self
time.  Counters are taken at the same boundaries, after the span has
closed, and the time spent taking them is charged to the tracer, not to
any layer.  `restore` puts every original attribute back.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from time import perf_counter_ns


class SpanRecorder:
    def __init__(self):
        self._stack = []  # open spans: [name, start_ns, child_ns]
        self._saved = []
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.tracer_ns = 0

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def wrap(self, owner, attr, span, after=None):
        """Replace owner.attr by a spanning wrapper.  `span` is the layer
        name, or a function of the call's (args, kwargs) that returns it.
        `after(rec, args, kwargs, result)` records counters once the span
        has closed."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        stack = self._stack
        name_of = span if callable(span) else None

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            name = name_of(args, kwargs) if name_of else span
            t0 = perf_counter_ns()
            frame = [name, t0, 0]
            stack.append(frame)
            ok = False
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.self_ns[name] += t1 - t0 - frame[2]
                self.calls[name] += 1
                if ok and after is not None:
                    after(self, args, kwargs, result)
                t2 = perf_counter_ns()
                self.tracer_ns += (t0 - start) + (t2 - t1)
                if stack:
                    stack[-1][2] += t2 - start
            return result

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        """Plain copies of every total, for phase differences."""
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "tracer_ns": self.tracer_ns}


# ----------------------------------------------------------- counter hooks

def _field_tag(args, kwargs):
    """QQ, QI or GF for the arguments of scalars.rref, decided the way rref
    decides it."""
    from jumploci import scalars
    rows = args[0]
    field = args[1] if len(args) > 1 else kwargs.get("field")
    if isinstance(rows, scalars.Matrix):
        field = rows.field
    if field is None:
        entry = next((x for r in rows for x in r if not isinstance(x, int)),
                     Fraction(0))
        field = scalars.field_of(entry)
    return "GF" if field.name.startswith("GF") else field.name


def _shape(rows):
    from jumploci import scalars
    if isinstance(rows, scalars.Matrix):
        return rows.nrows, rows.ncols
    rows = list(rows)
    return len(rows), (len(rows[0]) if rows else 0)


def _bits(x):
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    return max(_bits(x.re), _bits(x.im))


def _after_rref(rec, args, kwargs, result):
    tag = _field_tag(args, kwargs)
    nrows, ncols = _shape(args[0])
    rec.counts[f"scalars.rref_cells.{tag}"] += nrows * ncols
    if rec.parent() == "exterior.build":
        rec.counts["exterior.ideal_rows"] += nrows
    if tag != "GF":
        _rank, _pivots, out = result
        key = f"scalars.rref_bits.{tag}"
        top = max((_bits(x) for row in out for x in row), default=0)
        if top > rec.maxima[key]:
            rec.maxima[key] = top


def _rref_span(args, kwargs):
    return f"scalars.rref.{_field_tag(args, kwargs)}"


def install(rec):
    """Wrap every layer boundary the benchmark reports on."""
    import sympy

    from jumploci import (aomoto, arrangement, cli, elliptic, exterior, io,
                          master, scalars)

    # the elimination core: one span per field, decided per call
    for mod in (scalars, exterior, elliptic):
        rec.wrap(mod, "rref", _rref_span, _after_rref)
    for mod in (aomoto, elliptic):
        rec.wrap(mod, "rank_and_kernel", "scalars.kernel")
    rec.wrap(scalars.Matrix, "mul", "scalars.matmul")
    for mod in (arrangement, aomoto, elliptic):
        rec.wrap(mod, "solve_linear", "scalars.solve")

    for mod in (arrangement, aomoto, elliptic):
        rec.wrap(mod, "build_quotient_algebra", "exterior.build")
    rec.wrap(exterior.GradedAlgebra, "class_mult_matrix", "exterior.class_mult")
    rec.wrap(exterior.GradedAlgebra, "hodge_subspace", "exterior.hodge")

    for mod in (arrangement, cli):
        rec.wrap(mod, "os_algebra", "arrangement.os_algebra")
        rec.wrap(mod, "matroid_circuits", "arrangement.circuits")
    rec.wrap(arrangement.Arrangement, "common_point", "arrangement.common_point")

    rec.wrap(aomoto.AomotoComplex, "__init__", "aomoto.complex")
    rec.wrap(aomoto.AomotoComplex, "ranks", "aomoto.ranks")
    rec.wrap(aomoto, "reduce_algebra_mod", "aomoto.reduce")
    for mod in (aomoto, cli):
        rec.wrap(mod, "generic_dims_sample", "aomoto.sample")
        rec.wrap(mod, "log_resonance_membership", "aomoto.log_resonance")

    rec.wrap(elliptic.EllipticModel, "__init__", "elliptic.model")
    for mod in (elliptic, cli):
        rec.wrap(mod, "e2_page", "elliptic.e2_page")

    for mod in (master, cli):
        rec.wrap(mod, "critical_points_bivariate", "master.bivariate")
        for fn in ("critical_points_univariate", "log_zero_divisor_p1",
                   "local_koszul_univariate"):
            rec.wrap(mod, fn, "master.univariate")
    rec.wrap(sympy, "resultant", "master.resultant")
    rec.wrap(sympy.Poly, "factor_list", "master.factor")

    rec.wrap(cli, "main", "cli.main")
    for mod in (io, cli):
        rec.wrap(mod, "load_json", "io.parse")
        rec.wrap(mod, "parse_arrangement", "io.parse")
