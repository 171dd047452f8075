"""Exact scalars (rationals, Gaussian rationals, prime fields) and linear algebra.

Everything here is exact: no floats, no tolerances.  Matrices are immutable;
rank and kernel computations are deterministic (first-nonzero pivoting), and
kernel bases come out in reduced echelon form so two runs of the same input
produce identical output.  Elements of F_p are plain ints in [0, p); the
field object `GF(p)` is the one place that knows the modulus.  All
elimination runs through one loop on residues mod p (`_rref_mod`); results
over QQ and QQ(i) are lifted from it and certified exactly (`_rref_lifted`).
The certified echelon holds integers (`_rref_parts`), and one reader
(`_read`) turns them into field values: the rows of `rref`, the kernels of
`rank_and_kernel`, the solutions of `solve_linear` and the Aomoto matrices
all come from it.  A field given by no argument is inferred by one rule
(`infer_field`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

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


def _rational(value, what):
    """`value` as a Fraction when it is an int that is not a bool, or a
    Fraction; a float, bool, str or anything else is refused rather than
    converted (Fraction(0.1) is not 1/10)."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise PreconditionError(f"{what} must be rational, got {value!r}")
    return Fraction(value)


DEFAULT_PRIME = 2147483629  # largest prime below 2**31 that is 1 mod 4


class RationalField:
    name = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if type(x) is Fraction:
            return x  # immutable: no copy needed
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
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        """The residue of x in [0, p)."""
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise BadPrimeError(
                    f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
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
    raise FieldMismatchError(f"{value!r} is not a supported field element")


def infer_field(values):
    """The field of scalars given without one, the one rule of the package:
    ints are skipped, rationals give QQ and any Gaussian rational gives
    QQ(i), wherever it stands.  F_p is never inferred: its elements are
    ints, so a matrix over F_p needs its field given."""
    for x in values:
        if not isinstance(x, int) and field_of(x) is QI:
            return QI
    return QQ


def _join_field(a, b):
    # int/Fraction embed into QI; everything else must match exactly
    if a is b:
        return a
    if {a, b} == {QQ, QI}:
        return QI
    raise FieldMismatchError(f"mixed-field entries: {a} vs {b}")


class Matrix:
    """Immutable matrix over a single field.

    Entries may be given as ints (coerced into the field).  Without a field
    it is `infer_field` of the entries: plain rationals embed into QQ(i)
    when Gaussian entries are present.  Elements of F_p are ints, so a
    matrix over F_p needs its field given.
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
            field = infer_field(x for row in entries for x in row)
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
                        out[j] = out[j] + a * b
            rows.append(out)
        return Matrix(rows, field=f, ncols=other.ncols)

    def is_zero(self):
        return all(not x for row in self.entries for x in row)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"


# ------------------------------------------------------- elimination core

def _rref_mod(rows, p):
    """Gauss-Jordan elimination mod p, in place, on rows of residues in
    [0, p).  Returns the pivot columns; rows[:len(pivots)] then hold the
    reduced row echelon form.  The pivot in each column is the first nonzero
    candidate.  This is the one elimination loop of the package."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        pr = rows[i]
        rows[i] = rows[r]
        rows[r] = pr
        v = pr[c]
        if v != 1:
            inv = pow(v, -1, p)
            pr[c:] = [x * inv % p for x in pr[c:]]
        tail = pr[c:]
        # entries left of c vanish in the pivot row, so only the tail moves;
        # a sparse pivot row is applied entry by entry
        support = [(c + j, b) for j, b in enumerate(tail) if b]
        sparse = 3 * len(support) < len(tail)
        for i in range(nrows):
            ri = rows[i]
            f = ri[c]
            if not f or i == r:
                continue
            if sparse:
                for j, b in support:
                    ri[j] = (ri[j] - f * b) % p
            else:
                ri[c:] = [(a - f * b) % p for a, b in zip(ri[c:], tail)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _lift_primes():
    """The fixed list of lifting primes: every prime p = 1 mod 4 between
    2**30 and 2**31, descending from DEFAULT_PRIME (known prime, so the
    common single-prime case runs no primality test)."""
    yield DEFAULT_PRIME
    for q in range(DEFAULT_PRIME - 4, 2**30, -4):
        if _is_prime(q):
            yield q
    raise AssertionError("lifting primes exhausted")


def _crt(x, m, y, q):
    """The residue mod m*q that is x mod m and y mod q."""
    return x + m * ((y - x) * pow(m, -1, q) % q)


def _ratrecon(u, m, bound):
    """(a, b) with a = b*u mod m, |a| <= bound and 0 < b <= bound, found by
    the half extended Euclidean algorithm (Wang 1981), or None.  With
    2*bound**2 < m such a fraction is unique when it exists."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound:
        return None
    return r1, t1


def _clear_row(row, gaussian):
    """(den, integer parts) of one row: den is the lcm of its denominators
    and the parts are den times the row, [A] over QQ, [Re A, Im A] over
    QQ(i)."""
    if gaussian:
        halves = ([x.re.as_integer_ratio() for x in row],
                  [x.im.as_integer_ratio() for x in row])
    else:
        halves = ([x.as_integer_ratio() for x in row],)
    den = lcm(*(d for half in halves for _, d in half))
    return den, [[n * (den // d) for n, d in half] if den != 1
                 else [n for n, _ in half] for half in halves]


def _clear(rows, gaussian):
    """Each row times the lcm of its denominators, as integer parts: [A] over
    QQ, [Re A, Im A] over QQ(i)."""
    parts = [[], []] if gaussian else [[]]
    for row in rows:
        for part, ints in zip(parts, _clear_row(row, gaussian)[1]):
            part.append(ints)
    return parts


def _integral(field, vector):
    """(parts, scale): the integer parts of scale * vector as `_clear`
    returns them, [ints] over QQ and [re, im] over QQ(i) with scale the lcm
    of the denominators, and [residues] with scale 1 over F_p.  A nonzero
    multiple of a differential has the same rank, kernel and RREF."""
    if field is QQ or field is QI:
        scale, parts = _clear_row(vector, field is QI)
        return parts, scale
    return [list(vector)], 1


def _images(parts, p, s):
    """The images of the cleared rows in F_p: A mod p over QQ, and over
    QQ(i) the two images Re A + s Im A and Re A - s Im A, s*s = -1 mod p."""
    if len(parts) == 1:
        return [[[x % p for x in row] for row in parts[0]]]
    re_rows, im_rows = parts
    return [[[(a + t * b) % p for a, b in zip(ra, rb)]
             for ra, rb in zip(re_rows, im_rows)] for t in (s, p - s)]


def _image_parts(echelons, p, s):
    """Residues mod p of the parts of the RREF entries from the RREFs of the
    images: the entries over QQ; re = (R+ + R-)/2 and im = (R+ - R-)/(2s)
    over QQ(i)."""
    if len(echelons) == 1:
        return echelons
    plus, minus = echelons
    half = (p + 1) // 2
    inv2s = pow(2 * s, -1, p)
    return [[[(x + y) * half % p for x, y in zip(ra, rb)]
             for ra, rb in zip(plus, minus)],
            [[(x - y) * inv2s % p for x, y in zip(ra, rb)]
             for ra, rb in zip(plus, minus)]]


def _reconstruct(parts, m, free):
    """Rational reconstruction of every free-column entry of every part.
    Returns per RREF row (denominator, integer numerators per part on the
    free columns), or None when some entry has no small enough fraction."""
    bound = isqrt(m // 2)
    out = []
    for k in range(len(parts[0])):
        fracs = []
        for part in parts:
            row = part[k]
            fr = []
            for f in free:
                u = row[f]
                if u <= bound:
                    fr.append((u, 1))
                    continue
                ab = _ratrecon(u, m, bound)
                if ab is None:
                    return None
                fr.append(ab)
            fracs.append(fr)
        den = lcm(*(b for fr in fracs for _, b in fr))
        out.append((den, [[a * (den // b) for a, b in fr] for fr in fracs]))
    return out


def _certified(parts, pivots, free, candidate):
    """Exact upper bound on the rank: does every cleared input row equal
    sum_k row[p_k] * R_k in integers (Gaussian integers over QQ(i))?  Only
    the free columns need checking: on the pivot columns R_k is 1 at p_k
    and 0 elsewhere, so both sides agree there by construction."""
    big = lcm(*(den for den, _ in candidate))
    scaled = [[[big // den * w for w in nums] for nums in numss]
              for den, numss in candidate]
    if len(parts) == 1:
        for a in parts[0]:
            acc = [big * a[f] for f in free]
            for k, pk in enumerate(pivots):
                c = a[pk]
                if c:
                    acc = [x - c * w for x, w in zip(acc, scaled[k][0])]
            if any(acc):
                return False
        return True
    for a, b in zip(*parts):
        acc_re = [big * a[f] for f in free]
        acc_im = [big * b[f] for f in free]
        for k, pk in enumerate(pivots):
            x, y = a[pk], b[pk]
            if x or y:
                u, v = scaled[k]
                acc_re = [z - x * s + y * t for z, s, t in zip(acc_re, u, v)]
                acc_im = [z - x * t - y * s for z, s, t in zip(acc_im, u, v)]
        if any(acc_re) or any(acc_im):
            return False
    return True


def _rref_lifted(parts, ncols):
    """Certified RREF over QQ (one integer part) or QQ(i) (real and
    imaginary parts) through images mod the lifting primes.

    For each prime the image RREFs give the pivots and residues of the RREF
    entries.  The mod-p rank is a lower bound for the true rank, so an image
    whose rank is lower, or whose pivots are lexicographically later, than
    another image's comes from an unlucky prime and is dropped; the
    residues of the kept images are combined by CRT and every entry is
    lifted by rational reconstruction.  The candidate is returned only when
    `_certified` proves its span contains every input row; with the rank
    lower bound that makes it the RREF itself.  Otherwise the next prime is
    added.

    The loop terminates: a prime is unlucky only if it divides one fixed
    nonzero pivot minor delta of the cleared matrix (over QQ(i): its norm),
    and every lifting prime exceeds 2**30, so at most log2|delta|/30 primes
    are unlucky.  Every RREF entry is a ratio of minors (Cramer), bounded by
    the Hadamard bound H, the product of the row norms; once the product of
    the kept primes exceeds 2*H**4 every reconstruction is the true entry
    (over QQ(i) the parts have numerators and denominators below H**2) and
    the check passes.
    """
    best = None
    for p in _lift_primes():
        s = GF(p).sqrt_minus_one() if len(parts) == 2 else None
        echelons = []
        keys = set()
        for image in _images(parts, p, s):
            piv = _rref_mod(image, p)
            keys.add((-len(piv), tuple(piv)))
            echelons.append(image[:len(piv)])
        key = min(keys)
        if best is None or key < best:
            best, acc, m = key, None, 1
        if len(keys) > 1 or key != best:
            continue
        pivots = best[1]
        residues = _image_parts(echelons, p, s)
        if acc is None:
            acc = residues
        else:
            acc = [[[_crt(x, m, y, p) for x, y in zip(ra, rb)]
                    for ra, rb in zip(pa, pb)]
                   for pa, pb in zip(acc, residues)]
        m *= p
        pivot_set = set(pivots)
        free = [c for c in range(ncols) if c not in pivot_set]
        candidate = _reconstruct(acc, m, free)
        if candidate is not None and _certified(parts, pivots, free,
                                                candidate):
            return pivots, free, candidate


def _rref_parts(parts, ncols, field):
    """The stage of `_echelon` after `_clear`: the RREF of a matrix given as
    cleared integer parts ([A] over QQ, [Re A, Im A] over QQ(i)) or as
    residue rows over F_p ([A]; the rows are not modified).

    A nonzero scale of any row changes no RREF, so every cleared form of a
    matrix gives the RREF of the matrix itself.  Returns the pivot columns,
    the free columns, and per RREF row (den, numerators per part on the
    free columns): row k is 1 at pivots[k] and nums[j] / den at free[j].
    """
    if not parts[0] or not ncols:
        return (), list(range(ncols)), []
    if field is QQ or field is QI:
        return _rref_lifted(parts, ncols)
    rows = [list(r) for r in parts[0]]
    pivots = tuple(_rref_mod(rows, field.p))
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    return pivots, free, [(1, [[row[f] for f in free]])
                          for row in rows[:len(pivots)]]


def _read(field, den, nums, sign=1):
    """The field values of sign * nums[.][j] / den for every j: an RREF row,
    in the form `_rref_parts` returns, read on its free columns.  They are
    Fractions over QQ, GaussianRationals over QQ(i) (parts nums[0] and
    nums[1]) and residues over F_p."""
    zero = field.zero()
    if field is QQ:
        return [Fraction(sign * a, den) if a else zero for a in nums[0]]
    if field is QI:
        return [GaussianRational(Fraction(sign * a, den),
                                 Fraction(sign * b, den)) if a or b else zero
                for a, b in zip(*nums)]
    p = field.p
    if den != 1:
        sign *= pow(den, -1, p)
    return [sign * a % p for a in nums[0]]


def _echelon(rows, ncols, field):
    """The RREF of rows of field values, in the form `_rref_parts` returns:
    rows over QQ and QQ(i) are cleared by `_clear`, residues over F_p are
    taken as they are."""
    gaussian = field is QI
    parts = _clear(rows, gaussian) if gaussian or field is QQ else [rows]
    return _rref_parts(parts, ncols, field)


def _kernel_basis(field, ncols, pivots, free, echelon):
    """The canonical kernel basis from an RREF in the form `_rref_parts`
    returns: one vector per free column in ascending order, 1 there and
    minus the RREF entries of that column on the pivots."""
    zero = field.zero()
    kernel = [[zero] * ncols for _ in free]
    for v, f in zip(kernel, free):
        v[f] = field.one()
    for pc, (den, nums) in zip(pivots, echelon):
        for v, x in zip(kernel, _read(field, den, nums, -1)):
            v[pc] = x
    return [tuple(v) for v in kernel]


def _field_rows(rows, field):
    """(rows, ncols, field) of a Matrix, or of a list of rows coerced into
    `field` or, when it is None, into the field `infer_field` gives."""
    if isinstance(rows, Matrix):
        return rows.entries, rows.ncols, rows.field
    rows = [list(r) for r in rows]
    if field is None:
        field = infer_field(x for r in rows for x in r)
    rows = [[field.coerce(x) for x in r] for r in rows]
    return rows, len(rows[0]) if rows else 0, field


def rref(rows, field=None):
    """Reduced row echelon form of a list of rows (or a Matrix).

    Returns (rank, pivot columns, rref rows).  Deterministic: the pivot in
    each column is the first nonzero candidate.  Over F_p the elimination
    runs on residues; over QQ and QQ(i) the result is lifted from prime
    images and certified exactly (`_rref_lifted`), so it is the unique RREF
    over the true field.  The rows are read off the integer echelon by
    `_read`.
    """
    rows, ncols, field = _field_rows(rows, field)
    pivots, free, echelon = _echelon(rows, ncols, field)
    out = []
    for pc, (den, nums) in zip(pivots, echelon):
        row = [field.zero()] * ncols
        row[pc] = field.one()
        for f, x in zip(free, _read(field, den, nums)):
            row[f] = x
        out.append(tuple(row))
    return len(pivots), tuple(pivots), out


def rank(rows, field=None):
    """The rank of a list of rows (or a Matrix): the pivot count of its
    echelon, with no rows read."""
    return len(_echelon(*_field_rows(rows, field))[0])


def rank_and_kernel(matrix):
    """Rank and a canonical kernel basis of a Matrix (as a map on columns).

    The kernel basis is `_kernel_basis` of the echelon, one vector per free
    column in ascending column order; stacked as rows it is itself in
    echelon form, so the output is deterministic.
    """
    if not isinstance(matrix, Matrix):
        matrix = Matrix(matrix)
    field, ncols = matrix.field, matrix.ncols
    pivots, free, echelon = _echelon(matrix.entries, ncols, field)
    return len(pivots), _kernel_basis(field, ncols, pivots, free, echelon)


def solve_linear(matrix, rhs):
    """One exact solution of matrix * x = rhs, or None if inconsistent.

    The solution returned is the echelon-canonical one: free variables are
    set to zero, and each pivot variable is the last column of its row of
    the augmented echelon.
    """
    if not isinstance(matrix, Matrix):
        matrix = Matrix(matrix)
    field = matrix.field
    rhs = [field.coerce(x) for x in rhs]
    if len(rhs) != matrix.nrows:
        raise ValueError("right-hand side length mismatch")
    ncols = matrix.ncols
    aug = [row + (b,) for row, b in zip(matrix.entries, rhs)]
    pivots, _, echelon = _echelon(aug, ncols + 1, field)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for pc, (den, nums) in zip(pivots, echelon):
        x[pc] = _read(field, den, [part[-1:] for part in nums])[0]
    return tuple(x)
