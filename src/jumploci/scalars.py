"""Exact scalars (rationals, Gaussian rationals, prime fields) and linear algebra.

Everything here is exact: no floats, no tolerances.  Matrices are immutable;
rank and kernel computations are deterministic (first-nonzero pivoting), and
kernel bases come out in reduced echelon form so two runs of the same input
produce identical output.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import PreconditionError


class FieldMismatchError(PreconditionError, TypeError):
    """Entries from different fields were mixed in one matrix or operation."""


class BadPrimeError(PreconditionError, ValueError):
    """The requested modulus is not usable (not an odd prime below 2**31,
    or it divides a denominator that must stay invertible)."""


def _is_prime(n):
    # deterministic Miller-Rabin; bases 2,3,5,7 suffice below 3.2e9
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GaussianRational:
    """Element a + b*i with a, b rational; i*i = -1."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        c = other.conjugate()
        num = self * c
        return GaussianRational(num.re / n, num.im / n)

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


def _as_gaussian(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


class PrimeFieldElement:
    """Element of F_p, stored as the canonical residue 0 <= value < p."""

    __slots__ = ("p", "value")

    def __init__(self, p, value):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "value", value % p)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeFieldElement is immutable")

    def _check(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot mix F_{self.p} and F_{other.p} elements")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(self.p, other)
        return None

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.value))

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value + other.value)

    __radd__ = __add__

    def __neg__(self):
        return PrimeFieldElement(self.p, -self.value)

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value - other.value)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return PrimeFieldElement(
            self.p, self.value * pow(other.value, self.p - 2, self.p))

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other / self

    def __repr__(self):
        return f"PrimeFieldElement({self.p}, {self.value})"


DEFAULT_PRIME = 2147483629  # largest prime below 2**31 that is 1 mod 4


class RationalField:
    name = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise FieldMismatchError(f"cannot coerce {x!r} into QQ")

    def __repr__(self):
        return "QQ"


class GaussianRationalField:
    name = "QI"

    def zero(self):
        return GaussianRational(0)

    def one(self):
        return GaussianRational(1)

    def coerce(self, x):
        g = _as_gaussian(x)
        if g is None:
            raise FieldMismatchError(f"cannot coerce {x!r} into QQ(i)")
        return g

    def __repr__(self):
        return "QI"


class PrimeField:
    def __init__(self, p):
        if not (2 < p < 2**31) or not _is_prime(p):
            raise BadPrimeError(f"{p} is not an odd prime below 2**31")
        self.p = p
        self.name = f"GF({p})"

    def zero(self):
        return PrimeFieldElement(self.p, 0)

    def one(self):
        return PrimeFieldElement(self.p, 1)

    def coerce(self, x):
        if isinstance(x, PrimeFieldElement):
            if x.p != self.p:
                raise FieldMismatchError(
                    f"cannot coerce F_{x.p} element into F_{self.p}")
            return x
        if isinstance(x, int):
            return PrimeFieldElement(self.p, x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise BadPrimeError(
                    f"denominator of {x} vanishes mod {self.p}")
            return PrimeFieldElement(
                self.p,
                x.numerator * pow(x.denominator, self.p - 2, self.p))
        raise FieldMismatchError(f"cannot coerce {x!r} into F_{self.p}")

    def sqrt_minus_one(self):
        """A residue r with r*r = -1 mod p; needs p = 1 mod 4."""
        p = self.p
        if p % 4 != 1:
            raise BadPrimeError(f"-1 is not a square mod {p}")
        for a in range(2, p):
            r = pow(a, (p - 1) // 4, p)
            if r * r % p == p - 1:
                return r
        raise AssertionError("unreachable for prime p = 1 mod 4")

    def __repr__(self):
        return self.name


QQ = RationalField()
QI = GaussianRationalField()


@lru_cache(maxsize=None)
def GF(p):
    return PrimeField(p)


def field_of(value):
    """The field tag an element belongs to; ints count as rationals."""
    if isinstance(value, (int, Fraction)):
        return QQ
    if isinstance(value, GaussianRational):
        return QI
    if isinstance(value, PrimeFieldElement):
        return GF(value.p)
    raise FieldMismatchError(f"{value!r} is not a supported field element")


def _join_field(a, b):
    # int/Fraction embed into QI; everything else must match exactly
    if a is b:
        return a
    if {a, b} == {QQ, QI}:
        return QI
    raise FieldMismatchError(f"mixed-field entries: {a} vs {b}")


class Matrix:
    """Immutable matrix over a single field.

    Entries may be given as ints (coerced into the field).  Mixing elements of
    genuinely different fields raises FieldMismatchError; plain rationals embed
    into QQ(i) when Gaussian entries are present.
    """

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, entries, field=None, ncols=None):
        entries = [list(row) for row in entries]
        if entries:
            w = len(entries[0])
            for row in entries:
                if len(row) != w:
                    raise ValueError("ragged rows")
        else:
            w = ncols if ncols is not None else 0
        if field is None:
            field = QQ
            seen = False
            for row in entries:
                for x in row:
                    if isinstance(x, int):
                        continue
                    f = field_of(x)
                    field = f if not seen else _join_field(field, f)
                    seen = True
        coerced = tuple(
            tuple(field.coerce(x) for x in row) for row in entries)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(coerced))
        object.__setattr__(self, "ncols", w)
        object.__setattr__(self, "entries", coerced)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field is other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field.name, self.entries))

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self):
        return Matrix(
            [[self.entries[i][j] for i in range(self.nrows)]
             for j in range(self.ncols)],
            field=self.field, ncols=self.nrows)

    def mul(self, other):
        if not isinstance(other, Matrix):
            raise TypeError("Matrix.mul expects a Matrix")
        f = _join_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        zero = f.zero()
        rows = []
        for i in range(self.nrows):
            ri = self.entries[i]
            out = [zero] * other.ncols
            for k in range(self.ncols):
                a = ri[k]
                if not a:
                    continue
                rk = other.entries[k]
                for j in range(other.ncols):
                    b = rk[j]
                    if b:
                        out[j] = out[j] + f.coerce(a) * f.coerce(b)
            rows.append(out)
        return Matrix(rows, field=f, ncols=other.ncols)

    def is_zero(self):
        return all(not x for row in self.entries for x in row)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"


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
    ncols = len(rows[0]) if rows else 0
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


def rref(rows, field=None):
    """Reduced row echelon form of a list of rows (or a Matrix).

    Returns (rank, pivot columns, rref rows).  Deterministic: the pivot in
    each column is the first nonzero candidate.
    """
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
    else:
        pivots = _rref_generic(rows, field)
        out = rows[:len(pivots)]
    return len(pivots), tuple(pivots), [tuple(r) for r in out]


def rank(rows, field=None):
    return rref(rows, field)[0]


def rank_and_kernel(matrix):
    """Rank and a canonical kernel basis of a Matrix (as a map on columns).

    The kernel basis is derived from the RREF, one vector per free column in
    ascending column order; stacked as rows it is itself in echelon form, so
    the output is deterministic.
    """
    if not isinstance(matrix, Matrix):
        matrix = Matrix(matrix)
    field = matrix.field
    r, pivots, rows = rref(matrix)
    ncols = matrix.ncols
    free = [c for c in range(ncols) if c not in pivots]
    zero, one = field.zero(), field.one()
    kernel = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for i, p in enumerate(pivots):
            coeff = rows[i][f]
            if coeff:
                v[p] = -coeff
        kernel.append(tuple(v))
    return r, kernel


def solve_linear(matrix, rhs):
    """One exact solution of matrix * x = rhs, or None if inconsistent.

    The solution returned is the echelon-canonical one: free variables are
    set to zero.
    """
    if not isinstance(matrix, Matrix):
        matrix = Matrix(matrix)
    field = matrix.field
    rhs = [field.coerce(x) for x in rhs]
    if len(rhs) != matrix.nrows:
        raise ValueError("right-hand side length mismatch")
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix.entries)]
    _, pivots, rows = rref(aug, field)
    ncols = matrix.ncols
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][ncols]
    return tuple(x)
