"""Reference Aomoto route for the differential tests of `aomoto`.

This is how the package ranked Aomoto complexes before it assembled them
from integer structure constants: each generator's multiplication is a
dense column list of field elements read off the projections, alpha wedge .
is a Fraction (or Gaussian-rational, or residue) `Matrix`, every complex
checks d o d = 0 with `Matrix.mul`, and ranks and kernels come from
`rank_and_kernel`.  It shares no code with `GradedAlgebra.structure_constants`,
`class_mult_parts`, `check_anticommutation` or `AomotoComplex`, and each
function returns what its package counterpart must return, entry for entry.
The F_p samples take the algebra from the package's `reduce_algebra_mod`,
which only changes its coordinate field; the oracle then reduces each
rational projection entry mod p itself, through `field.coerce`, so it
shares no code with the integer structure constants either.
"""

from __future__ import annotations

import random
from fractions import Fraction

from jumploci.aomoto import (GenericDimsReport, LogResonanceReport,
                             _scalar_mod, reduce_algebra_mod)
from jumploci.elliptic import E2Report, _I, elliptic_model
from jumploci.errors import PreconditionError
from jumploci.exterior import _merge_sign
from jumploci.scalars import (DEFAULT_PRIME, GF, QI, Matrix, rank_and_kernel,
                              rref)


def generator_matrix(algebra, i, d):
    """Columns of (e_i wedge .): A^d -> A^{d+1} as field elements."""
    bit = 1 << i
    field = algebra.field
    index = algebra.mono_index[d + 1]
    den, proj = algebra.proj[d + 1]
    cols = []
    for m in algebra.basis[d]:
        col = [field.zero()] * algebra.dim(d + 1)
        if not m & bit:
            sign = _merge_sign(bit, m)
            for j, pc in proj[index[bit | m]]:
                col[j] = field.coerce(Fraction(sign * pc, den))
        cols.append(col)
    return cols


def class_mult_matrix(algebra, alpha, d):
    """Matrix of (alpha wedge .): A^d -> A^{d+1} in field arithmetic."""
    field = algebra.field
    if d >= algebra.top:
        return Matrix([], field=field, ncols=algebra.dim(d))
    nsrc, ntgt = algebra.dim(d), algebra.dim(d + 1)
    rows = [[field.zero()] * nsrc for _ in range(ntgt)]
    for i, a in enumerate(alpha):
        a = field.coerce(a)
        if not a:
            continue
        cols = generator_matrix(algebra, i, d)
        for j in range(nsrc):
            for r in range(ntgt):
                c = cols[j][r]
                if c:
                    rows[r][j] = rows[r][j] + a * c
    return Matrix(rows, field=field, ncols=nsrc)


class OracleComplex:
    def __init__(self, algebra, alpha):
        alpha = [algebra.field.coerce(a) for a in alpha]
        if len(alpha) != algebra.dim(1):
            raise PreconditionError(
                f"alpha needs {algebra.dim(1)} coordinates, got {len(alpha)}")
        self.algebra = algebra
        self.matrices = [class_mult_matrix(algebra, alpha, d)
                         for d in range(algebra.top + 1)]
        for d in range(algebra.top - 1):
            if not self.matrices[d + 1].mul(self.matrices[d]).is_zero():
                raise AssertionError(
                    f"differential squares to a nonzero map in degree {d}")
        reduced = [rank_and_kernel(m) for m in self.matrices]
        self.ranks = tuple(r for r, _ in reduced)
        self.kernels = tuple(k for _, k in reduced)

    def cohomology_dims(self):
        r = self.ranks
        return tuple(self.algebra.dim(d) - r[d] - (r[d - 1] if d else 0)
                     for d in range(self.algebra.top + 1))


def log_resonance_membership(algebra, alpha):
    if algebra.hodge_types is None:
        raise PreconditionError("logarithmic resonance needs Hodge types")
    alpha = [algebra.field.coerce(a) for a in alpha]
    f1 = algebra.hodge_positions(1, 1)
    if not any(alpha):
        return LogResonanceReport(False, None, True, len(f1))
    inside = set(f1)
    if any(a for j, a in enumerate(alpha) if j not in inside):
        raise PreconditionError("class lies outside F^1")
    full = class_mult_matrix(algebra, alpha, 1)
    restricted = Matrix([[row[j] for j in f1] for row in full.entries],
                        field=algebra.field, ncols=len(f1))
    r, _ = rank_and_kernel(restricted)
    h1 = len(f1) - r - 1
    return LogResonanceReport(h1 >= 1, h1, False, len(f1))


def _filtered_dim(rank_v, coord_rows, inside):
    outside = [row for k, row in enumerate(coord_rows) if k not in inside]
    r, _, _ = rref(outside, QI)
    return rank_v - r


def e2_page(model, x, y):
    x, y = model._pair(x, y)
    if not any(x) and not any(y):
        raise PreconditionError("alpha = 0 has no E2 page here")
    if any(y[k] != _I * x[k] for k in range(model.n)):
        raise PreconditionError("alpha lies outside filtration level F^1")
    deep = elliptic_model(model.n, top=3)
    cx = OracleComplex(deep.algebra, deep.class_coords(x, y))
    h = cx.cohomology_dims()[:3]
    entries = {}
    for m in range(3):
        kernel = cx.kernels[m]
        cocycles = list(zip(*kernel))
        bounds = cx.matrices[m - 1].entries if m else ()
        rank_bounds = cx.ranks[m - 1] if m else 0
        fdims = []
        for p in range(m + 2):
            inside = set(deep.algebra.hodge_positions(p, m))
            fdims.append(_filtered_dim(len(kernel), cocycles, inside)
                         - _filtered_dim(rank_bounds, bounds, inside))
        for p in range(m + 1):
            entries[(p, m - p)] = fdims[p] - fdims[p + 1]
    consistent = all(
        sum(entries[(p, m - p)] for p in range(m + 1)) == h[m]
        for m in range(3))
    return E2Report(model.n, entries, h, consistent)


def generic_dims_sample(algebra, subspace=None, trials=40,
                        prime=DEFAULT_PRIME, seed=0):
    reduced, i_res = reduce_algebra_mod(algebra, prime)
    fp = GF(prime)
    n1 = algebra.dim(1)
    if subspace is None:
        rows = [[1 if i == j else 0 for i in range(n1)] for j in range(n1)]
    else:
        rows = [[_scalar_mod(algebra.field.coerce(x), fp, i_res) for x in row]
                for row in subspace]
        rows = [r for r in rows if any(r)]
    rng = random.Random(seed)
    best = None
    samples = []
    for _ in range(trials):
        while True:
            coeffs = [rng.randrange(prime) for _ in rows]
            vec = [0] * n1
            for c, row in zip(coeffs, rows):
                if c:
                    for i, x in enumerate(row):
                        if x:
                            vec[i] = (vec[i] + c * x) % prime
            if any(vec):
                break
        dims = OracleComplex(reduced, vec).cohomology_dims()
        samples.append(dims)
        best = list(dims) if best is None else [
            min(a, b) for a, b in zip(best, dims)]
    flagged = tuple(t for t, dims in enumerate(samples)
                    if any(x > b for x, b in zip(dims, best)))
    return GenericDimsReport(tuple(best), trials, prime, flagged)
