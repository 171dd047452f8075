"""Exact scalars (rationals, Gaussian rationals, prime fields) and linear algebra.

Everything here is exact: no floats, no tolerances.  Matrices are immutable;
every elimination that rows are read from gives the unique reduced echelon
form, and kernel bases come out in reduced echelon form, so two runs of the
same input produce identical output.  Elements of F_p are plain ints in
[0, p); the field object `GF(p)` is the one place that knows the modulus.
There is one elimination loop for all three fields, `_rref_exact`:
fraction-free elimination on integers over QQ, on Gaussian integers over
QQ(i) and on residues over F_p, where each pivot row is made monic and the
update is plain row reduction mod p.  It is exact by construction.  Its
rows are sparse, maps from the columns of their nonzero entries to
integers ((re, im) pairs over QQ(i)), so a row costs its nonzeros and not
the width of the matrix; the Aomoto blocks are written straight into that
form (`exterior.GradedAlgebra.class_mult_parts`), as the same integers
for every field; over F_p the core reduces them mod p as it copies them.
A rank is the pivot count of the forward pass alone, over QQ and QQ(i) its
final pivot the nonzero minor that proves it; back-substitution above the
pivots and the read of each row run only where rows are read.  Values
become integers in one place, `_clear_row` (`_integral` for a vector),
with no coerce pass, and integers become values in one place, `_read`: the
rows of `rref`, the kernels of `rank_and_kernel`, the solutions of
`solve_linear`, the Aomoto matrices and the items of a `ClearedVector` all
come from it.  A field given by no argument is inferred by one rule
(`infer_field`).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

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
    """Element a + b*i with a, b rational; i*i = -1.

    `re` and `im` are always Fractions.  A Fraction given for either part
    is kept as it is (Fractions are immutable); anything else goes through
    `Fraction`, so callers that build a part as `Fraction(num, den)` pay
    for its normalisation once."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re",
                           re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im",
                           im if type(im) is Fraction else Fraction(im))

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

class ClearedVector(Sequence):
    """A vector over QQ(i) held as one positive integer `den` and the integer
    `parts` (re, im) in lowest terms: item k is (re[k] + i im[k]) / den, a
    GaussianRational built by `_read` only when it is read.

    `parts` and `den` are what `_integral(QI, ...)` returns for the tuple of
    its items, and `_integral` passes them through as they are over QQ(i),
    so such a vector reaches the elimination with no field object built.
    It compares equal to the tuple of its items; slicing gives a tuple."""

    __slots__ = ("den", "parts")

    def __init__(self, den, re, im):
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "parts", (tuple(re), tuple(im)))

    def __setattr__(self, name, value):
        raise AttributeError("ClearedVector is immutable")

    def __len__(self):
        return len(self.parts[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        re, im = self.parts
        return _read(QI, self.den, [[re[k]], [im[k]]])[0]

    def __iter__(self):
        return iter(_read(QI, self.den, self.parts))

    def __eq__(self, other):
        if isinstance(other, ClearedVector):
            return self.den == other.den and self.parts == other.parts
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        re, im = self.parts
        return f"ClearedVector({self.den}, {re!r}, {im!r})"


_RATIONAL = (int, Fraction)


def _refused(field, x):
    """Raise the FieldMismatchError with which `field.coerce` refuses x."""
    field.coerce(x)
    raise AssertionError(f"{field} took {x!r}")


def _clear_row(row, gaussian):
    """(den, integer parts) of one row of values: den is the lcm of their
    denominators and the parts are den times the row, [A] over QQ and
    [Re A, Im A] over QQ(i).  The only code that reads a value's
    numerator and denominator: ints and Fractions and, over QQ(i),
    GaussianRationals are read as they are, and the first other entry is
    refused with the FieldMismatchError of the field's `coerce`."""
    if gaussian:
        re, im = [], []
        for x in row:
            if isinstance(x, GaussianRational):
                re.append(x.re.as_integer_ratio())
                im.append(x.im.as_integer_ratio())
            elif isinstance(x, _RATIONAL):
                re.append(x.as_integer_ratio())
                im.append((0, 1))
            else:
                _refused(QI, x)
        halves = (re, im)
    else:
        halves = ([x.as_integer_ratio() if isinstance(x, _RATIONAL)
                   else _refused(QQ, x) for x in row],)
    den = lcm(*(d for half in halves for _, d in half))
    return den, [[n * (den // d) if n else 0 for n, d in half] if den != 1
                 else [n for n, _ in half] for half in halves]


def _clear(rows):
    """Each row of rationals times the lcm of its denominators, as a list
    of integers (`_clear_row`)."""
    return [_clear_row(row, False)[1][0] for row in rows]


def _integral(field, vector):
    """(parts, scale): the integer parts of scale * vector, [ints] over QQ
    and [re, im] over QQ(i) with scale the lcm of the denominators
    (`_clear_row`), and [residues] with scale 1 over F_p.  A nonzero
    multiple of a differential has the same rank, kernel and RREF.

    Over QQ(i) a ClearedVector is taken as it is: its (parts, den) are
    returned, with no entry read.  Over F_p each entry goes through the
    field's `coerce`."""
    if type(vector) is ClearedVector and field is QI:
        return vector.parts, vector.den
    if field is QQ or field is QI:
        scale, parts = _clear_row(vector, field is QI)
        return parts, scale
    return [[field.coerce(x) for x in vector]], 1


def _sparse(parts):
    """The sparse row of one row's integer parts, as `_rref_exact` takes
    it: {column: integer} from [ints], {column: (re, im)} from [re, im];
    its nonzero entries alone."""
    if len(parts) == 1:
        return {j: v for j, v in enumerate(parts[0]) if v}
    return {j: v for j, v in enumerate(zip(*parts)) if v[0] or v[1]}


def _combine(a, x, f, y, s):
    """(a X - f Y) / s as a new sparse row, for sparse rows X and Y and
    scalars a, f and s of their kind (integers over QQ, (re, im) pairs of a
    Gaussian integer over QQ(i)), when s is known to divide exactly.  Each
    entry is formed from the nonzeros of X and Y alone, and one that
    cancels is dropped, so the row holds no zeros.  Over QQ each entry is
    divided by s as it is formed; over QQ(i) the numerator is formed and
    then multiplied by conj(s) and divided by |s|^2."""
    if type(s) is int:
        z = {}
        for j, u in x.items():
            v = y.get(j)
            if v is None:
                z[j] = a * u // s
            elif w := a * u - f * v:
                z[j] = w // s
        nf = -f
        for j, v in y.items():
            if j not in x:
                z[j] = nf * v // s
        return z
    (ar, ai), (fr, fi), (sr, si) = a, f, s
    z = {}
    for j, (u, ui) in x.items():
        zr, zi = ar * u - ai * ui, ar * ui + ai * u
        v = y.get(j)
        if v is not None:
            zr -= fr * v[0] - fi * v[1]
            zi -= fr * v[1] + fi * v[0]
            if not zr and not zi:
                continue
        z[j] = (zr, zi)
    for j, (v, vi) in y.items():
        if j not in x:
            z[j] = (fi * vi - fr * v, -fr * vi - fi * v)
    if si:
        n = sr * sr + si * si
        return {j: ((zr * sr + zi * si) // n, (zi * sr - zr * si) // n)
                for j, (zr, zi) in z.items()}
    if sr == 1:
        return z
    return {j: (zr // sr, zi // sr) for j, (zr, zi) in z.items()}


def _rref_exact(rows, ncols, read, field):
    """The RREF of sparse integer rows over `field`, in the form
    `_rref_parts` returns, by fraction-free elimination (Bareiss, Math.
    Comp. 22, 1968); without `read`, only its forward pass: the pivot
    columns, the final pivot and the pivot rows in the order they were
    chosen.  A row maps each column of a nonzero entry to an integer over
    QQ, to an (re, im) pair of a Gaussian integer over QQ(i) and to any
    integer over F_p; it holds no zeros.

    Let d_0 = 1 and d_k be the k-th pivot.  Step k replaces every row R
    that is not yet a pivot row by (d_k R - R[c] P) / d_{k-1}, where P is
    the pivot row and c its column.  By Sylvester's identity every entry
    then stored is a minor of the input, so every division is exact
    (`_combine`) and no entry exceeds the Hadamard bound of the input, the
    product of its row norms.  Rows are lazy: a row with R[c] = 0 would
    only be scaled by d_k / d_{k-1}, so it keeps what was written at its
    last step s, and when it is next touched at step k the updates combine
    into (d_k R - R[c] P) / d_s, with P first brought to step k - 1 as
    P d_{k-1} / d_s when d_s differs from d_{k-1}.  A row costs its own
    nonzeros and those of P, not the width of the matrix.  The candidates
    of a column are the rows still below the pivots that hold it; the pivot
    row is the one with the fewest nonzero entries (over QQ(i), parts), the
    first such in row order.  A row below the pivots is zero left of c, so
    that count is its length over QQ and F_p.

    Over F_p the rows are copied first, to be updated in place, and the
    copy reduces each entry mod p and drops those that vanish: the one
    place where assembled integer rows meet the prime.  Each pivot row is
    made monic when it is chosen, by one inverse mod p.  Every d_k is then
    1, so no lazy row needs bringing up, and the update, picked once per
    call in place of `_combine`, is R - R[c] P reduced mod p, made in place
    on the support of P alone: Gauss-Jordan elimination mod p, with the
    pivot rule and read above.

    The rank is the pivot count of this forward pass; its final pivot is
    the nonzero minor that proves it: the minor on the pivot rows, in the
    order they were chosen, and the pivot columns (`_det` reads it).  With
    `read`, step k also eliminates the earlier pivot rows above P, by the
    same update (Gauss-Jordan), and row k of the RREF is the stored row
    over its own pivot, reduced by one gcd; the RREF is unique, so any
    choice of pivot rows gives the same bits.

    Every operation is exact integer arithmetic, so the answer over QQ and
    QQ(i) is exact, with no prime, reconstruction or certificate.  The
    matrices the package ranks (Aomoto, cover, block and Fox matrices) are
    sparse with small entries; a dense full-rank matrix with large entries
    pays for the growth of its minors and is slower than a modular method
    would be.
    """
    gaussian, prime = field is QI, getattr(field, "p", None)
    if prime is None:
        combine, rows = _combine, list(rows)
    else:
        def combine(a, x, f, y, s):  # a = s = 1: pivots are monic
            for j, v in y.items():
                w = (x.get(j, 0) - f * v) % prime
                if w:
                    x[j] = w
                else:
                    del x[j]
            return x
        rows = [{j: w for j, v in row.items() if (w := v % prime)}
                for row in rows]
    if gaussian:
        def count(row):  # nonzero parts
            return sum((re != 0) + (im != 0) for re, im in row.values())
    else:
        count = len
    zero, one = ((0, 0), (1, 0)) if gaussian else (0, 1)
    step = [0] * len(rows)  # the step at which each row was last written
    d = [one]               # d_0 = 1, then the pivots
    rest = list(range(len(rows)))
    order, pivots = [], []
    for c in range(ncols):
        # (count, row) of each candidate: min takes the sparsest, the
        # first such in row order
        cand = [(count(rows[i]), i) for i in rest if c in rows[i]]
        if not cand:
            continue
        p = min(cand)[1]
        rest.remove(p)
        k = len(d)
        y = rows[p]
        if d[step[p]] != d[k - 1]:
            y = combine(d[k - 1], y, zero, {}, d[step[p]])
        if prime is not None:
            inv = pow(y[c], -1, prime)
            y = {j: v * inv % prime for j, v in y.items()}
        rows[p], step[p] = y, k
        dk = y[c]
        d.append(dk)
        # the rows still below that hold c, and, only when rows are read,
        # the pivot rows above that do
        below = [i for _, i in cand if i != p]
        for i in below + [i for i in order if c in rows[i]] if read else below:
            x = rows[i]
            rows[i] = combine(dk, x, x[c], y, d[step[i]])
            step[i] = k
        order.append(p)
        pivots.append(c)
        if not rest:
            break
    if not read:
        return tuple(pivots), d[-1], order
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    echelon = []
    for i, c in zip(order, pivots):
        # the row over its pivot a + bi is the row times a - bi over a^2 + b^2
        row = rows[i]
        if gaussian:
            (a, b), pairs = row[c], [row.get(j, zero) for j in free]
            nums = [[a * u + b * ui for u, ui in pairs],
                    [a * ui - b * u for u, ui in pairs]]
        else:
            a, b = row[c], 0
            nums = [[a * row.get(j, 0) for j in free]]
        n = a * a + b * b
        g = gcd(n, *nums[0], *nums[-1])
        echelon.append((n // g, [[v // g for v in z] for z in nums]))
    return tuple(pivots), free, echelon


def _rref_parts(rows, ncols, field, read=True):
    """The stage of `_echelon` after clearing: the RREF of a matrix given as
    sparse integer rows ({column: integer} over QQ and F_p, {column: (re,
    im)} over QQ(i); see `_rref_exact`, which reduces them mod p); the rows
    are not modified.  Every field eliminates in `_rref_exact`, on the
    parts its rows have: a QQ(i) matrix with zero imaginary part still
    eliminates on both (`aomoto.AomotoComplex` ranks a real class over QQ).

    A nonzero scale of any row changes no RREF, so every cleared form of a
    matrix gives the RREF of the matrix itself.  Returns the pivot columns,
    the free columns, and per RREF row (den, numerators per part on the
    free columns): row k is 1 at pivots[k] and nums[j] / den at free[j].
    A caller that reads only the pivot columns passes `read` False; the
    elimination then stops after its forward pass and reads no rows.
    """
    if not rows or not ncols:
        return (), list(range(ncols)), []
    return _rref_exact(rows, ncols, read, field)


def _det(rows, n):
    """The determinant of an n x n integer matrix given as sparse rows
    ({column: integer}, no zeros): the final pivot of `_rref_exact`'s
    forward pass over QQ, the minor on its pivot rows in the order they
    were chosen, times the sign of that order; 0 below full rank."""
    if not n:
        return 1
    pivots, minor, order = _rref_exact(rows, n, False, QQ)
    if len(pivots) < n:
        return 0
    for i in range(n):  # sort the order by transpositions
        while order[i] != i:
            j = order[i]
            order[i], order[j] = order[j], j
            minor = -minor
    return minor


# one zero per field for every read: field values are immutable
_QQ_ZERO, _QI_ZERO = Fraction(0), GaussianRational(0)


def _read(field, den, nums, sign=1):
    """The field values of sign * nums[.][j] / den for every j: an RREF row,
    in the form `_rref_parts` returns, read on its free columns.  They are
    Fractions over QQ, GaussianRationals over QQ(i) (parts nums[0] and
    nums[1]) and residues over F_p."""
    if field is QQ:
        return [Fraction(sign * a, den) if a else _QQ_ZERO for a in nums[0]]
    if field is QI:
        return [GaussianRational(Fraction(sign * a, den),
                                 Fraction(sign * b, den)) if a or b
                else _QI_ZERO for a, b in zip(*nums)]
    p = field.p
    if den != 1:
        sign *= pow(den, -1, p)
    return [sign * a % p for a in nums[0]]


def _echelon(rows, ncols, field, read=True):
    """The RREF of rows of field values, in the form `_rref_parts` returns
    (with `read` False, the pivot columns alone): rows over QQ and QQ(i)
    are cleared by `_clear_row`, residues over F_p are taken as they are,
    and each row is handed on as its nonzero entries (`_sparse`)."""
    if field is QQ or field is QI:
        gaussian = field is QI
        rows = [_sparse(_clear_row(row, gaussian)[1]) for row in rows]
    else:
        rows = [_sparse([row]) for row in rows]
    return _rref_parts(rows, ncols, field, read)


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
    """(rows, ncols, field) of a Matrix, or of the Matrix of a list of rows
    over `field` (when it is None, the field `infer_field` gives)."""
    if not isinstance(rows, Matrix):
        rows = Matrix(rows, field)
    return rows.entries, rows.ncols, rows.field


def rref(rows, field=None):
    """Reduced row echelon form of a list of rows (or a Matrix).

    Returns (rank, pivot columns, rref rows), the unique RREF over the
    field.  The elimination (`_rref_exact`) runs in exact integer
    arithmetic: over QQ and QQ(i) on the cleared rows, over F_p on the
    residues.  The rows are read off the integer echelon by `_read`.
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
    """The rank of a list of rows (or a Matrix): the pivot count of the
    forward pass of its elimination, with no rows read."""
    return len(_echelon(*_field_rows(rows, field), read=False)[0])


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
