"""Reference elimination for the differential tests of `scalars.rref`.

These are the exact field-arithmetic routines the package used before it
eliminated on cleared integer rows: Gauss-Jordan elimination on field
elements (`_rref_generic`, for QQ(i)) and a fraction-free Bareiss forward
pass with exact back substitution (`_bareiss_echelon`, `_rref_rational`,
for QQ), plus a textbook Gauss-Jordan on residues (`_rref_residues`, for
F_p, whose elements are ints in [0, p)).  They share no code with the core
(`scalars._rref_exact` over QQ and QQ(i), `scalars._rref_mod` over F_p),
and `oracle_rref` returns what `rref` must return, entry for entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from jumploci.scalars import QI, QQ, Matrix, field_of


def _rref_generic(rows, field):
    """In-place reduced row echelon form; returns pivot column list."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != field.one():
            inv = field.one() / pv
            rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [a - f * b for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rref_residues(rows, p):
    """In-place reduced row echelon form over F_p, inverses by Fermat's
    little theorem; returns pivot column list."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def _bareiss_echelon(rows):
    """Fraction-free forward elimination on integer rows.

    Returns (pivot column list, echelon integer rows).  Division-free except
    for the exact Bareiss division, so intermediate entries stay integral and
    bounded by minors.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prc = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            ri, rr = rows[i], rows[r]
            # the Bareiss division is exact: entries are minors of the input
            rows[i] = [0] * (c + 1) + [
                (prc * ri[j] - ric * rr[j]) // prev
                for j in range(c + 1, ncols)
            ]
        pivots.append(c)
        prev = prc
        r += 1
        if r == nrows:
            break
    return pivots, rows[:r]


def _rref_rational(rows):
    """RREF over Q via Bareiss forward pass on cleared denominators."""
    int_rows = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        int_rows.append([int(x * mult) for x in row])
    pivots, ech = _bareiss_echelon(int_rows)
    # exact back substitution to reduced form
    out = [[Fraction(x) for x in row] for row in ech]
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        pv = out[k][c]
        out[k] = [x / pv for x in out[k]]
        for i in range(k):
            f = out[i][c]
            if f:
                rk = out[k]
                out[i] = [a - f * b for a, b in zip(out[i], rk)]
    return pivots, out


def oracle_rref(rows, field=None):
    """(rank, pivot columns, rref rows) with the calling convention of
    `scalars.rref`."""
    if isinstance(rows, Matrix):
        field = rows.field
        rows = [list(r) for r in rows.entries]
    else:
        rows = [list(r) for r in rows]
        if field is None:
            field = field_of(next(
                (x for r in rows for x in r if not isinstance(x, int)),
                Fraction(0)))
        rows = [[field.coerce(x) for x in r] for r in rows]
    if not rows:
        return 0, (), []
    if field is QQ:
        pivots, out = _rref_rational(rows)
    elif field is QI:
        pivots = _rref_generic(rows, field)
        out = rows[:len(pivots)]
    else:
        pivots = _rref_residues(rows, field.p)
        out = rows[:len(pivots)]
    return len(pivots), tuple(pivots), [tuple(r) for r in out]
