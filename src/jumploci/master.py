"""Critical points of master functions and the logarithmic Hopf index
bookkeeping.

Univariate: for punctured lines M = C minus {c_1..c_d}, the form
alpha = sum lambda_j dz/(z - c_j) has numerator N(z) = sum_j lambda_j
prod_{k != j} (z - c_k); its zeros on P^1 are tracked against the log
divisor D = {c_j} and the point at infinity, where the order is measured
against the local generator dw/w of Omega^1(log D), on the numerator
N~(w) = w^(d-1) N(1/w), which is N's coefficient list read backwards.  The
total zero degree is |D| - 2 for every nonzero weight vector.

Bivariate: critical points of line-arrangement master functions are counted
by a sheared Sylvester resultant with the arrangement's multiple points
divided out.  The count is certified by the length identity behind
Corollary 1.1 (Orlik-Terao 1995, Silvotti 1996, Huh 2013): a finite zero
set Z(alpha) on a good compactification has length chi(M); otherwise a
DegeneracyError is raised instead of a wrong count.

Every polynomial is built over the integers, as a coefficient list (a dict
of terms in two variables), and becomes a sympy Poly over ZZ only in the
steps that call sympy.  Denominators are cleared first, which scales a
numerator, or both components of the form, by one nonzero constant and so
moves no zero.  The order at a rational point a/b is counted by exact
division by b z - a in ZZ[z], and at the roots of an irreducible factor by
exact division by that factor.

Which steps are proofs and which call sympy:

- Factoring goes through `_factor`, whose answer is always that of sympy's
  `Poly.factor_list`.  A linear primitive part is its own factor.
  Otherwise, at a prime p not dividing the leading coefficient, a
  square-free f mod p proves f square-free over Q, and the degrees of the
  irreducible factors of f mod p bound the degree of any factor over ZZ to
  their subset sums; when those sums, intersected over a fixed list of
  small primes, are {0, deg f} alone, f is irreducible (Musser, J. ACM 25,
  1978).  The degrees come from distinct-degree factorization on residue
  classes mod f, each power x^(p^(i+1)) a Frobenius step: the Frobenius
  rows x^(jp) mod f combined with the coefficients of x^(p^i).  A
  square-free polynomial this test does not certify, whose roots
  are all real, is split on its isolated roots: a set of roots is a
  factor's only if interval enclosures of its scaled elementary symmetric
  functions hold integers, and the candidate they give is a factor only if
  it divides exactly; past n 2^r root sets, r the fewest factors of f mod
  a sieve prime, sympy's search is the cheaper one and takes over.  Any
  other polynomial is factored by sympy.
- Square-freeness, of the eliminant of a shear and of the minimal
  polynomials of the Koszul orders, is proved by the same sieve, with an
  exact gcd(f, f') over Q as the fallback.
- Real roots are isolated by `_isolate_real`, a port of sympy's
  continued-fraction isolation that returns sympy's intervals exactly (a
  test compares the two).  It is a proof in integer arithmetic: Descartes'
  rule of signs counts exactly one root in each interval it returns and
  none in the parts of the line it drops.  sympy is called, for the
  isolating rectangles, only when an irreducible factor has fewer real
  roots than its degree.
- The bivariate resultant is the Sylvester determinant at integer points,
  each the final pivot of the one elimination core, interpolated exactly;
  the back-substitution takes an exact gcd over Q.

So sympy is imported only for a polynomial with a non-real root (its
rectangles, and its factors when the sieve does not certify it), with no
square-free sieve prime, or with more root sets to try than the split
allows.  A run whose zeros are all real, as positive weights on real
points or lines make them (Varchenko, Compositio 97, 1995), imports it
only in those last two cases, and `residues_line_arrangement`, which
factors nothing, never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm, log

from .arrangement import Arrangement, line_points
from .errors import DegeneracyError, PreconditionError
from .scalars import _clear_row, _det, _rational


def _frac(r):
    """A sympy Rational, or an element of its ZZ or QQ, as a Fraction."""
    return Fraction(int(r.numerator), int(r.denominator))


def _rational_weights(lam, d):
    if len(lam) != d:
        raise PreconditionError(
            f"got {len(lam)} weights for {d} hyperplanes")
    return [_rational(v, f"weight {j}") for j, v in enumerate(lam)]


def _cleared_weights(lam):
    return _clear_row(lam, False)[1][0]


@dataclass(frozen=True)
class Zero:
    """One zero of the form: an exact rational location when available,
    otherwise an isolating interval or box plus the minimal polynomial."""
    kind: str               # "interior" | "puncture" | "infinity"
    multiplicity: int
    value: object = None    # Fraction, or (Fraction, Fraction) in dim 2
    interval: tuple = None  # (lo, hi) real, or ((re_lo, re_hi), (im_lo, im_hi))
    minpoly: tuple = None   # integer coefficients, highest degree first


@dataclass(frozen=True)
class DivisorReport:
    zeros: tuple
    total: int
    chi: int
    chi_matches: bool
    divisor_size: int = None
    notes: tuple = ()


# -- univariate polynomials as coefficient lists, highest degree first ------

def _weighted_products(weights, factors):
    """sum_j weights_j prod_{k != j} (a_k z + b_k) for factors (a_k, b_k),
    with leading zeros dropped."""
    total = [0] * len(factors)
    for j, w in enumerate(weights):
        term = [w]
        for k, (a, b) in enumerate(factors):
            if k != j:
                term = [a * c + b * p for c, p in zip(term + [0], [0] + term)]
        total = [s + c for s, c in zip(total, term)]
    while total and not total[0]:
        total.pop(0)
    return total


def _punctures(points, lam):
    """The validated points and weights as tuples of integer ratios (a, b),
    in lowest terms with b > 0: ints, which the distinctness test and the
    cache of `_log_divisor` hash faster than Fractions."""
    points = tuple(_rational(v, f"point {j}").as_integer_ratio()
                   for j, v in enumerate(points))
    if len(set(points)) != len(points):
        raise PreconditionError("puncture points must be distinct")
    lam = tuple(w.as_integer_ratio()
                for w in _rational_weights(lam, len(points)))
    if not any(a for a, _b in lam):
        raise PreconditionError("all-zero weight vector: the form vanishes")
    return points, lam


def _cleared_numerator(points, lam):
    """An integer multiple of N(z), for the integer ratios of `_punctures`:
    with c_k = a_k / b_k and L the common denominator of the weights,
    L b_1 ... b_d N(z) = sum_j L lambda_j b_j prod_{k != j} (b_k z - a_k)."""
    den = lcm(*(b for _a, b in lam))
    weights = [a * (den // b) * bk for (a, b), (_ak, bk) in zip(lam, points)]
    return _weighted_products(weights, [(b, -a) for a, b in points])


def _divide_out(coeffs, divisor):
    """(m, q) with coeffs = divisor^m q over ZZ and divisor not dividing q,
    for a primitive integer polynomial `divisor` of positive degree; both
    are coefficient lists, highest degree first.  Each step is a long
    division by divisor, which stays in ZZ[z] whenever divisor divides
    (Gauss's lemma), so an inexact quotient digit already means it does not;
    otherwise the remainder decides.  Constants and the zero polynomial have
    order 0."""
    lead, tail = divisor[0], divisor[1:]
    k = len(tail)
    m = 0
    while len(coeffs) > k:
        rem, quot = list(coeffs), []
        for i in range(len(coeffs) - k):
            q, r = divmod(rem[i], lead)
            if r:
                return m, coeffs
            quot.append(q)
            for j, c in enumerate(tail, i + 1):
                rem[j] -= q * c
        if any(rem[-k:]):
            return m, coeffs
        coeffs, m = quot, m + 1
    return m, coeffs


def _derivative(f):
    """f', highest degree first."""
    n = len(f) - 1
    return [c * (n - i) for i, c in enumerate(f[:-1])]


def _linear(root):
    """b z - a, for root = a/b in lowest terms."""
    return (root.denominator, -root.numerator)


def _zz_poly(coeffs):
    """A coefficient list as a sympy Poly over ZZ, for the steps that still
    call sympy, which is imported here.  Callers look up
    `Poly.factor_list` when they call it, as a tracer that rebinds that
    name expects."""
    import sympy as sp
    return sp.Poly(coeffs, sp.Symbol("jl_x"), domain=sp.ZZ)


# -- certified factoring: degree sets mod small primes ----------------------
#
# Polynomials over F_p are lists of ints in 0..p-1, highest degree first,
# with no leading zero; the zero polynomial is [].

# The odd primes tried, in this order.  The degree-set test uses the first
# _SIEVE of them that do not divide the leading coefficient and keep the
# polynomial square-free, and stops there.  A quartic with a dihedral
# Galois group is certified only at a prime where it stays irreducible, one
# prime in four, so eight primes miss about one such quartic in ten; a
# polynomial left uncertified costs one sympy factorization, nothing more.
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
           67, 71, 73, 79, 83, 89, 97)
_SIEVE = 8
_INVERSES = {p: [0] + [pow(c, -1, p) for c in range(1, p)] for p in _PRIMES}


def _strip(a):
    """a with its leading zeros dropped."""
    i = 0
    while i < len(a) and not a[i]:
        i += 1
    return a[i:]


def _gf_monic(a, p):
    inv = _INVERSES[p][a[0]]
    return [c * inv % p for c in a]


def _gf_divmod(a, b, p):
    """(q, r) with a = q b + r and deg r < deg b over F_p, b monic."""
    r, k = list(a), len(b) - 1
    q = []
    for i in range(len(a) - k):
        c = r[i]
        q.append(c)
        if c:
            for j in range(1, k + 1):
                r[i + j] = (r[i + j] - c * b[j]) % p
    return q, _strip(r[max(len(a) - k, 0):])


def _gf_gcd(a, b, p):
    """The monic gcd of a != 0 and b over F_p: Euclid's algorithm, each
    quotient digit scaled by the inverse of the divisor's lead, and the
    remainder reduced mod p once it is complete."""
    inverses = _INVERSES[p]
    while len(b) > 1:
        k, inv = len(b) - 1, inverses[b[0]]
        r = list(a)
        for i in range(len(a) - k):
            c = r[i] * inv % p
            if c:
                for j in range(1, k + 1):
                    r[i + j] -= c * b[j]
        a, b = b, _strip([c % p for c in r[max(len(a) - k, 0):]])
    return [1] if b else _gf_monic(a, p)


def _gf_degrees(f, p):
    """The degrees of the irreducible factors of a monic square-free f over
    F_p, by distinct-degree factorization: the factors of degree i divide
    x^(p^i) - x, and those of lower degree are already divided out.

    h = x^(p^i) is kept as a class mod the f given, which every f left
    divides, as its n coefficients, lowest degree first.  x^p comes from
    squaring, with products reduced by the table of x^(n+k) mod f and the
    steps that multiply by x done as shifts; each later power is
    h^p = sum_j h_j x^(jp) over F_p, a combination of the Frobenius rows
    x^(jp) mod f, built on first use (von zur Gathen and Shoup, Comput.
    Complexity 2, 1992)."""
    n = len(f) - 1
    if n < 2:
        return [1] * n
    top = [-c % p for c in reversed(f[1:])]  # x^n mod f

    def times_x(a):
        c = a[-1]
        return [(u + c * v) % p for u, v in zip([0] + a[:-1], top)]

    table = [top]  # x^(n+k) mod f, k = 0..n-2
    for _ in range(n - 2):
        table.append(times_x(table[-1]))

    def mul(a, b):
        prod = [0] * (2 * n - 1)
        for i, c in enumerate(a):
            if c:
                prod[i:i + n] = [u + c * v for u, v in zip(prod[i:i + n], b)]
        low = prod[:n]
        for c, row in zip(prod[n:], table):
            c %= p
            if c:
                low = [u + c * v for u, v in zip(low, row)]
        return [u % p for u in low]

    shift = 0  # x^p from its leading bits' monomial, below x^n
    while p >> shift >= n:
        shift += 1
    h = [0] * n
    h[p >> shift] = 1
    for t in range(shift - 1, -1, -1):
        h = mul(h, h)
        if p >> t & 1:
            h = times_x(h)
    rows = [h]  # x^(jp) mod f, j = 1..n-1
    degrees, i = [], 1
    while True:
        hx = h[::-1]  # h - x, highest degree first
        hx[-2] = (hx[-2] - 1) % p
        g = _gf_gcd(f, _strip(hx), p)
        if len(g) > 1:
            degrees += [i] * ((len(g) - 1) // i)
            f = _gf_divmod(f, g, p)[0]
        if len(f) - 1 < 2 * (i + 1):
            break
        i += 1
        while len(rows) < n - 1:
            rows.append(mul(rows[-1], rows[0]))
        acc = h[:1] + [0] * (n - 1)
        for c, row in zip(h[1:], rows):
            if c:
                acc = [u + c * v for u, v in zip(acc, row)]
        h = [u % p for u in acc]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def _sieve(f):
    """(p, f mod p made monic) for the first _SIEVE primes p of _PRIMES that
    do not divide lc(f) and at which f mod p is square-free.  Each pair
    proves f square-free over Q: a square g^2 dividing f in ZZ[z] keeps its
    degree mod p, as p does not divide lc(f), and would divide f mod p."""
    found = 0
    for p in _PRIMES:
        if not f[0] % p:
            continue
        fp = _gf_monic([c % p for c in f], p)
        dfp = _strip([c % p for c in _derivative(fp)])
        if dfp and len(_gf_gcd(fp, dfp, p)) == 1:
            yield p, fp
            found += 1
            if found == _SIEVE:
                return


def _squarefree(coeffs):
    """Whether an integer polynomial of positive degree is square-free over
    Q: proved mod a prime of the sieve, or else decided by gcd(f, f') over
    Q."""
    if next(_sieve(coeffs), None):
        return True
    return len(_gcd(coeffs, _derivative(coeffs))) == 1


def _degree_sums(f):
    """(sums, r) for a primitive integer polynomial f of degree n >= 2 over
    ZZ: the degrees that a factor of f can have by Musser's degree-set
    test, as a mask (bit k set: degree k not excluded), or 0 when no prime
    of the sieve proves f square-free; and r, the fewest irreducible
    factors of f mod one of the primes tried.  A factor of degree k keeps
    its degree mod a sieve prime p, so k is a sum of degrees of irreducible
    factors of f mod p; the mask is those sums, intersected over the
    primes, and once it is {0, n} alone f has no proper factor and the test
    stops."""
    n = len(f) - 1
    sums, r = 0, n
    for p, fp in _sieve(f):
        degrees = _gf_degrees(fp, p)
        mask = 1
        for d in degrees:
            mask |= mask << d
        sums = sums & mask if sums else mask
        r = min(r, len(degrees))
        if sums == 1 | 1 << n:
            break
    return sums, r


def _factor(coeffs, isolated=None):
    """`Poly.factor_list()[1]` for an integer polynomial, a coefficient list
    with nonzero leading entry, as (factor, multiplicity) pairs: primitive
    factors as coefficient tuples, leading coefficient positive, sorted as
    sympy sorts them (by length, multiplicity, coefficients).  A linear
    primitive part, or one that the degree-set test proves irreducible, is
    the only factor; a square-free primitive part whose roots are all real
    is split on its isolated roots (`_split`) unless that search outgrows
    sympy's; every other polynomial is factored by sympy.  A dict
    `isolated` receives the real isolating intervals of a primitive part
    that the split left whole, keyed by that factor, so that its roots are
    not isolated twice."""
    if len(coeffs) < 2:
        return []
    c = gcd(*coeffs) if coeffs[0] > 0 else -gcd(*coeffs)
    f = tuple(a // c for a in coeffs)
    n = len(f) - 1
    if n == 1:
        return [(f, 1)]
    sums, r = _degree_sums(f)
    if sums == 1 | 1 << n:
        return [(f, 1)]
    if sums and _descartes_real(f):
        roots = _isolate_real(f)
        # sympy's Zassenhaus search tries subsets of the r factors mod p,
        # fewer than 2^r, each after lifting them to a precision that grows
        # with n; the split tries root sets, one trace each for most.  Past
        # n 2^r of them sympy is the cheaper search.
        factors = _split(f, roots, sums, n << r) if len(roots) == n else None
        if factors:
            if isolated is not None and len(factors) == 1:
                isolated[f] = roots
            return [(g, 1) for g in sorted(factors, key=lambda g: (len(g), g))]
    return [(tuple(int(a) for a in g.all_coeffs()), m)
            for g, m in _zz_poly(list(coeffs)).factor_list()[1]]


def _descartes_real(f):
    """Whether Descartes' rule of signs leaves room for every root of a
    square-free integer polynomial f to be real: f has at most as many
    positive (negative) roots as f(z) (f(-z)) has sign variations, and 0 is
    a root at most once."""
    g = f if f[-1] else f[:-1]
    bound = _variations(g) + _variations(_mirror(g)) + len(f) - len(g)
    return bound == len(f) - 1


# -- splitting a totally real polynomial on its roots -------------------------
#
# The roots r of a factor g of f over ZZ make lc(f) r algebraic integers
# whose elementary symmetric functions are rational, so integers: the
# coefficients of g, up to a power of lc(f).  So a set S of roots of f is
# the root set of a factor only when every e_i(lc(f) r : r in S) is an
# integer, which interval enclosures narrower than 1 decide or leave one
# candidate for; exact division decides the candidate.  Intervals are
# (a, b, q), the real segment from a/q to b/q, refined by bisection on
# integers.

def _sign_at(f, a, q):
    """The sign of f(a/q), q > 0, by homogeneous evaluation on integers."""
    v, qp = f[0], 1
    for c in f[1:]:
        qp *= q
        v = v * a + c * qp
    return (v > 0) - (v < 0)


class _Roots:
    """The real roots of a square-free integer polynomial f, from their
    isolating intervals, with integer bounds on lc(f) r scaled by 2^bits,
    refined on demand."""

    def __init__(self, f, intervals):
        self.f, self.lead = f, f[0]
        df = _derivative(f)
        self.iv, self.side = [], []
        for lo, hi in intervals:
            q = lo.denominator * hi.denominator
            a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
            # the sign of f just above a/q; an interval may end at another
            # root, where f vanishes and f' gives the sign past it
            self.side.append(_sign_at(f, a, q) or _sign_at(df, a, q))
            self.iv.append((a, b, q))
        self.bits = 0
        self.sharpen()

    def sharpen(self, more=4):
        """Raise `bits` by `more` and bisect every interval until lc(f)
        times its width is at most 2^-bits; `bounds` holds floor and ceil
        of lc(f) 2^bits times its ends."""
        self.bits += more
        scale = self.lead << self.bits
        self.bounds = []
        for k, (a, b, q) in enumerate(self.iv):
            while a != b and scale * (b - a) > q:
                a, b, q = 2 * a, 2 * b, 2 * q
                m = (a + b) // 2
                s = _sign_at(self.f, m, q)
                if not s:
                    a = b = m
                elif s == self.side[k]:
                    a = m
                else:
                    b = m
            self.iv[k] = (a, b, q)
            self.bounds.append((scale * a // q, -(-scale * b // q)))

    def holds(self, g, k):
        """Whether root k is a root of g, a factor of f over ZZ: g vanishes
        at an exact root, or changes sign across the open interval, where f
        has no other root; at an end where g vanishes, g' gives the sign
        inside, as g is square-free."""
        a, b, q = self.iv[k]
        if a == b:
            return not _sign_at(g, a, q)
        dg = _derivative(g)
        return ((_sign_at(g, a, q) or _sign_at(dg, a, q))
                != (_sign_at(g, b, q) or -_sign_at(dg, b, q)))

    def symmetric(self, subset):
        """Integer enclosures [lo, hi] of e_i(lc(f) r : r in subset) times
        2^(i bits), i = 1..len(subset), by interval arithmetic."""
        e = [(1, 1)]
        for k in subset:
            u, v = self.bounds[k]
            nxt = [(1, 1)]
            for i in range(1, len(e) + 1):
                lo, hi = e[i] if i < len(e) else (0, 0)
                a, b = e[i - 1]
                prods = (u * a, u * b, v * a, v * b)
                nxt.append((lo + min(prods), hi + max(prods)))
            e = nxt
        return e[1:]


def _candidate(roots, subset):
    """The primitive integer polynomial whose roots are those of `subset`,
    if every e_i(lc r) there has an enclosure narrower than 1 that holds
    an integer; None when some enclosure holds none.  The trace is tried
    first, on the bounds as they are."""
    while True:
        bits = roots.bits
        lo = sum(roots.bounds[k][0] for k in subset)
        hi = sum(roots.bounds[k][1] for k in subset)
        more = ((hi - lo) >> bits).bit_length() + 1
        if hi - lo < 1 << bits:
            if -(-lo >> bits) > hi >> bits:
                return None
            es, ints = roots.symmetric(subset), []
            for i, (lo, hi) in enumerate(es, 1):
                if hi - lo >= 1 << i * bits:
                    more = ((hi - lo) >> i * bits).bit_length() + 1
                    break
                n = -(-lo >> i * bits)
                if n > hi >> i * bits:
                    return None
                ints.append(n)
            else:
                k, lead = len(subset), roots.lead
                g = [lead ** k] + [(-1) ** i * e * lead ** (k - i)
                                   for i, e in enumerate(ints, 1)]
                c = gcd(*g)
                return tuple(a // c for a in g)
        roots.sharpen(more)


def _split(f, intervals, sums, budget):
    """The irreducible factors of a primitive square-free integer
    polynomial f of degree n whose n roots are all real, given their
    isolating intervals and the `_degree_sums` mask, or None once more than
    `budget` root sets have been tried.  Root sets S of size k = 1, 2, ...
    (k a degree the mask allows, k at most half of what is left) give
    candidates (`_candidate`); one that divides exactly is a factor, and
    irreducible, since no smaller set gave one.  What is left when no set
    of at most half its roots does is irreducible too."""
    roots = _Roots(f, intervals)
    left = list(range(len(intervals)))
    factors, k = [], 1
    while 2 * k <= len(left):
        for subset in combinations(left, k) if sums >> k & 1 else ():
            budget -= 1
            if budget < 0:
                return None
            g = _candidate(roots, subset)
            m, q = _divide_out(f, g) if g else (0, f)
            if m:
                # the roots of g are those of f that it vanishes at, which
                # need not be the subset's: an enclosure of a set that is no
                # factor's may still hold one integer
                factors.append(g)
                f = q
                left = [i for i in left if not roots.holds(g, i)]
                if len(left) != len(f) - 1:
                    raise AssertionError("a factor's roots were not found")
                break
        else:
            k += 1
    return factors + [tuple(f)]


# -- real roots: sympy's continued-fraction isolation on integer lists -------
#
# A port of sympy's `dup_isolate_real_roots_sqf(f, ZZ)`, the
# Vincent-Akritas-Strzebonski method (Akritas and Strzebonski, Nonlinear
# Analysis: Modelling and Control 10(4), 2005), which returns sympy's
# intervals exactly because it makes sympy's choices: the same stack order,
# the LMQ bound with sympy's logarithm int(math.log(x, 2)), an exact root
# divided out by x, and refinement only until the interval is finite.  A
# Mobius transform (a, b, c, d) stands for the interval between a/c and
# b/d; coefficient lists are highest degree first.

def _taylor(f, a):
    """f(x + a)."""
    f = list(f)
    for i in range(len(f) - 1, 0, -1):
        for j in range(i):
            f[j + 1] += a * f[j]
    return f


def _variations(f):
    """The sign variations of the coefficients of f, zeros skipped."""
    k, last = 0, 0
    for c in f:
        if c:
            if (c < 0) != (last < 0) and last:
                k += 1
            last = c
    return k


def _flip(f):
    """(x + 1)^deg f(1/(x + 1)), divided by x when f(1) = 0: the roots of f
    in (0, 1) moved to (0, oo), the other half of a bisection at 1."""
    i = len(f) - 1
    while not f[i]:
        i -= 1
    g = _taylor(f[i::-1], 1)
    return g if g[-1] else g[:-1]


def _lower_bound(f):
    """int(1 / B) for sympy's LMQ bound B of the positive roots of
    x^deg f(1/x) (Akritas-Strzebonski-Vigklas), 0 when it has none: an
    integer no larger than any positive root of f."""
    n = len(f)
    while not f[n - 1]:
        n -= 1
    g = f[:n] if f[n - 1] > 0 else [-c for c in f[:n]]
    logs = [int(log(abs(c), 2)) if c else 0 for c in g]
    t, exps = [1] * n, []
    for i, c in enumerate(g):
        if c < 0:
            qs = [((t[j] + logs[i] - logs[j]) // (j - i), j)
                  for j in range(i + 1, n) if g[j] > 0]
            if qs:
                q, j = min(qs)
                t[j] += 1
                exps.append(q)
    if not exps:
        return 0
    e = max(exps) + 1
    return 1 >> e if e >= 0 else 1 << -e


def _refine(f, a, b, c, d):
    """sympy's refinement steps on the one positive root of f in the
    transform's interval, until that interval is finite (c != 0)."""
    while not c:
        bound = _lower_bound(f)
        if bound >= 1:
            f = _taylor(f, bound)
            b, d = bound * a + b, bound * c + d
            if not f[-1]:
                return b, b, d, d
        f, g = _taylor(f, 1), f
        if not f[-1]:
            return a + b, a + b, c + d, c + d
        if _variations(f) == 1:
            b, d = a + b, c + d
        else:
            f = _flip(g)
            a, b, c, d = b, a + b, d, c + d
    return a, b, c, d


def _positive_roots(f):
    """Transforms isolating the positive roots of a square-free f with
    f(0) != 0, in sympy's order."""
    k = _variations(f)
    if k < 2:
        return [_refine(f, 1, 0, 0, 1)] if k else []
    roots, stack = [], [(1, 0, 0, 1, f, k)]
    while stack:
        a, b, c, d, f, k = stack.pop()
        bound = _lower_bound(f)
        if bound >= 1:
            f = _taylor(f, bound)
            b, d = bound * a + b, bound * c + d
            if not f[-1]:
                roots.append((b, b, d, d))
                f = f[:-1]
            k = _variations(f)
            if k < 2:
                if k:
                    roots.append(_refine(f, a, b, c, d))
                continue
        f1, r = _taylor(f, 1), 0
        half1 = a, a + b, c, c + d
        if not f1[-1]:
            roots.append((a + b, a + b, c + d, c + d))
            f1, r = f1[:-1], 1
        k1 = _variations(f1)
        k2 = k - k1 - r
        half2 = b, a + b, d, c + d
        f2 = None
        if k2 > 1:
            f2 = _flip(f)
            k2 = _variations(f2)
        if k1 < k2:
            half1, half2, f1, f2, k1, k2 = half2, half1, f2, f1, k2, k1
        for half, g, kg in ((half1, f1, k1), (half2, f2, k2)):
            if not kg:
                break
            if g is None:
                g = _flip(f)
            if kg == 1:
                roots.append(_refine(g, *half))
            else:
                stack.append((*half, g, kg))
    return roots


def _mirror(f):
    """f(-z)."""
    return [-c if i % 2 else c for i, c in enumerate(reversed(f))][::-1]


def _interval(m):
    """The interval of a transform, lower end first."""
    a, b, c, d = m
    s, t = Fraction(a, c), Fraction(b, d)
    return (s, t) if s <= t else (t, s)


def _isolate_real(f):
    """`dup_isolate_real_roots_sqf(f, ZZ)` for a square-free integer
    polynomial f: sympy's isolating intervals of its real roots, in
    increasing order, with Fraction endpoints."""
    f = list(f)
    if len(f) < 2:
        return []
    roots = []
    if not f[-1]:
        roots.append((Fraction(0), Fraction(0)))
        while not f[-1]:
            f.pop()
    negative = _positive_roots(_mirror(f))
    roots += [(-t, -s) for s, t in map(_interval, negative)]
    roots += map(_interval, _positive_roots(f))
    return sorted(roots)


def _root_intervals(f, real=None):
    """The real intervals and complex rectangles of
    `Poly.intervals(all=True)` for a square-free integer polynomial f, a
    coefficient tuple, with Fraction endpoints: ([(lo, hi)],
    [((re_lo, re_hi), (im_lo, im_hi))]).  sympy isolates the real part of
    all=True with `dup_isolate_real_roots_sqf`, which `_isolate_real`
    reproduces, or `real` when given, so sympy is called only for the
    rectangles, when some root is not real."""
    if real is None:
        real = _isolate_real(f)
    if len(real) == len(f) - 1:
        return real, []
    complexes = []
    for (a, b), _m in _zz_poly(list(f)).intervals(all=True)[1]:
        ar, ai = a.as_real_imag()
        br, bi = b.as_real_imag()
        complexes.append(((_frac(ar), _frac(br)), (_frac(ai), _frac(bi))))
    return real, complexes


def _factor_zeros(f, mult, kind, isolated):
    """Zero entries for the roots of an irreducible factor f, a primitive
    coefficient tuple, of multiplicity mult: exact for a linear f,
    isolating data with minimal polynomial f otherwise, with its real
    intervals from `isolated` (filled by `_factor`) when they are there."""
    if len(f) == 2:
        a, b = f
        return [Zero(kind, mult, value=Fraction(-b, a))]
    real, complexes = _root_intervals(f, isolated.get(f))
    return [Zero(kind, mult, interval=box, minpoly=f)
            for box in real + complexes]


def _zeros_of_poly(coeffs, kind):
    """Zero entries for all roots of a nonzero integer polynomial, a
    coefficient list, exact for rational roots, isolating data otherwise."""
    out, isolated = [], {}
    for f, mult in sorted(_factor(coeffs, isolated),
                          key=lambda t: (len(t[0]), t[0])):
        out.extend(_factor_zeros(f, mult, kind, isolated))
    return out


def critical_points_univariate(points, lam):
    """Zeros of alpha inside M = C minus the punctures, with multiplicity:
    the interior part of the log divisor, the zeros of the numerator with
    every puncture divided out, against chi(M) = 1 - d.

    chi_matches reports whether the interior count alone already reaches
    |chi(M)| = d - 1; weights with boundary zeros (e.g. sum lambda = 0)
    make it False and the balance moves to log_zero_divisor_p1.
    """
    divisor = _log_divisor(*_punctures(points, lam))[0]
    zeros = tuple(z for z in divisor.zeros if z.kind == "interior")
    total = sum(z.multiplicity for z in zeros)
    chi = divisor.chi
    return DivisorReport(zeros, total, chi, total == abs(chi))


def log_zero_divisor_p1(points, lam):
    """Full zero divisor of alpha as a section of Omega^1_{P^1}(log D),
    D = {c_1..c_d, infinity}: interior zeros plus boundary orders at each
    puncture (against dz/(z-c_j)) and at infinity (against dw/w).

    The total is |D| - 2 = d - 1 for every nonzero weight vector; the
    infinity entry notes when the residue there (-sum lambda) vanishes.
    """
    return _log_divisor(*_punctures(points, lam))[0]


# The three univariate functions are called back to back on one
# configuration (the CLI, verify-paper, the benchmark's master op), so the
# last configuration's divisor is kept, with the numerators it was read
# from: each is built and factored once.
@lru_cache(maxsize=1)
def _log_divisor(points, lam):
    """(log_zero_divisor_p1, N, N~) for the integer ratios of `_punctures`,
    with N the coefficient tuple of `_cleared_numerator` and N~ that of the
    same multiple of N~(w) = sum_j lambda_j prod_{k != j} (1 - c_k w), the
    numerator at w = 1/z.  As w^(d-1) N(1/w) = N~(w), N~ is N read
    backwards, once N is padded to its formal degree d - 1, and the order
    at infinity, the trailing valuation of N~, is the number of zeros that
    padding adds.  The padded lead is L b_1 ... b_d sum_j lambda_j, so
    infinity is a zero exactly when sum lambda = 0."""
    zeros = []
    numerator = tuple(_cleared_numerator(points, lam))
    interior = numerator
    for a, b in points:
        m, interior = _divide_out(interior, (b, -a))
        if m:
            zeros.append(Zero("puncture", m, value=Fraction(a, b)))
    d = len(points)
    vinf = d - len(numerator)
    tilde = _strip(((0,) * vinf + numerator)[::-1])
    if vinf:
        zeros.append(Zero("infinity", vinf))
    if len(interior) > 1:
        zeros.extend(_zeros_of_poly(interior, "interior"))
    total = sum(z.multiplicity for z in zeros)
    if total != d - 1:
        raise AssertionError(
            f"zero degree {total} != |D| - 2 = {d - 1}: bookkeeping broken")
    notes = ()
    if vinf:
        notes = ("residue at infinity is 0: infinity stays in D as part of "
                 "the boundary of M, with the order measured against dw/w",)
    chi = 1 - d
    return DivisorReport(tuple(zeros), total, chi, total == abs(chi),
                         divisor_size=d + 1, notes=notes), numerator, tilde


@dataclass(frozen=True)
class LocalKoszul:
    zero: Zero
    h0: int
    h1: int


def local_koszul_univariate(points, lam):
    """Local Koszul cohomology at every zero of the log divisor: the complex
    0 -> O -> O -> 0 given by multiplication by the local multiplier a of
    alpha.  H^0 = 0 iff a is a nonzero germ; dim H^1 = dim O/(a) = ord(a).

    The zeros are those of log_zero_divisor_p1 (the same report and
    numerators, built and factored once), but every order is recomputed by
    exact division of the numerator rather than read off the divisor: at a
    rational zero by b z - a, at infinity by w, and at the conjugate roots
    of an irreducible factor by that factor, once per factor since the
    order is the same at each root.
    """
    report, n, tilde = _log_divisor(*_punctures(points, lam))
    factor_orders = {}
    out = []
    for z in report.zeros:
        if z.kind == "infinity":
            h1 = 0
            while tilde and not tilde[-1]:
                tilde = tilde[:-1]  # N~ = w * (the shifted coefficients)
                h1 += 1
        elif z.value is not None:
            h1, _rest = _divide_out(n, _linear(z.value))
        else:
            # conjugate orbit: the minimal polynomial is primitive and
            # square-free, so the order at each of its roots is the exponent
            # of the factor in N, found once for all of them
            if z.minpoly not in factor_orders:
                if gcd(*z.minpoly) != 1 or not _squarefree(z.minpoly):
                    raise AssertionError(
                        "irreducible factor not primitive and square-free")
                factor_orders[z.minpoly], _rest = _divide_out(n, z.minpoly)
            h1 = factor_orders[z.minpoly]
        if not n:
            raise AssertionError("zero multiplier germ")
        out.append(LocalKoszul(z, 0, h1))
    return tuple(out)


# -- bivariate: the sheared pair over ZZ -------------------------------------
#
# A bivariate polynomial is a dict {(deg_y, deg_x): coefficient} of its
# nonzero terms.

def _sheared_pair(forms, weights, t):
    """P(x + t y, y) and Q(x + t y, y), where P = sum_j w_j c1_j
    prod_{k != j} f_k and Q likewise with c2_j.  The sheared forms are
    f_k(x + t y, y) = c0 + c1 x + (c2 + t c1) y; the weights w_j c1_j,
    w_j c2_j stay those of the unsheared derivatives."""
    sheared = [(c0, c1, c2 + t * c1) for c0, c1, c2 in forms]
    p, q = {}, {}
    for j, w in enumerate(weights):
        prod = {(0, 0): 1}
        for k, (c0, c1, c2) in enumerate(sheared):
            if k == j:
                continue
            nxt = {}
            for (i, e), c in prod.items():
                for key, v in (((i, e), c * c0), ((i, e + 1), c * c1),
                               ((i + 1, e), c * c2)):
                    nxt[key] = nxt.get(key, 0) + v
            prod = nxt
        wp, wq = w * forms[j][1], w * forms[j][2]
        for key, c in prod.items():
            p[key] = p.get(key, 0) + wp * c
            q[key] = q.get(key, 0) + wq * c
    return tuple({k: c for k, c in h.items() if c} for h in (p, q))


def _at_x(h, a, b=1):
    """b^D h(a/b, y), D the degree of h in x, as the integer coefficients of
    a polynomial in y, highest degree first."""
    dy = max(i for i, _e in h)
    dx = max(e for _i, e in h)
    out = [0] * (dy + 1)
    for (i, e), c in h.items():
        out[dy - i] += c * a ** e * b ** (dx - e)
    return out


def _sylvester(f, g):
    """The Sylvester matrix of two polynomials in y, as the sparse rows of
    `scalars._det`: deg g shifted rows of f, then deg f of g."""
    rows = [{i + j: c for j, c in enumerate(f) if c}
            for i in range(len(g) - 1)]
    rows += [{i + j: c for j, c in enumerate(g) if c}
             for i in range(len(f) - 1)]
    return rows, len(rows)


def _interpolate(values, x0):
    """The integer polynomial of degree < len(values) that takes values[k]
    at x0 + k, highest degree first, zeros stripped.  Newton's forward
    form: it is sum_k (D^k y_0 / k!) s (s - 1) ... (s - k + 1) in s =
    x - x0, and for a polynomial in ZZ[x] each D^k y_0 / k! is an integer;
    an inexact division raises AssertionError."""
    coeffs, diffs = [], list(values)
    for k in range(len(values)):
        c, r = divmod(diffs[0], factorial(k))
        if r:
            raise AssertionError(
                "interpolated values are not those of an integer polynomial")
        coeffs.append(c)
        diffs = [v - u for u, v in zip(diffs, diffs[1:])]
    poly = []
    for k in reversed(range(len(coeffs))):  # Horner in s - k = x - (x0 + k)
        a = x0 + k
        poly = [u - a * v for u, v in zip(poly + [0], [0] + poly)]
        poly[-1] += coeffs[k]
    return _strip(poly)


def _resultant(p, q):
    """Res_y(p, q) in ZZ[x], highest degree first, for bivariate p and q
    with constant leading y-coefficients.  Its degree is at most
    deg p deg q (total degrees), so it is interpolated (`_interpolate`)
    from its values at that many plus one consecutive integers centred on
    0 (Collins, J. ACM 18, 1971).  A leading y-coefficient is the same
    nonzero constant at every x, so each value is the resultant of the
    specialised pair: its Sylvester determinant, the final pivot of the
    one elimination core (`scalars._det`).  When p has the lower degree in
    y, the pair is taken in the order (q, p), as sympy's subresultant PRS
    takes it; the two orders differ by the sign (-1)^(deg_y p deg_y q).
    A zero p or q has the zero resultant, []."""
    if not p or not q:
        return []
    if max(i for i, _e in p) < max(i for i, _e in q):
        p, q = q, p
    n = max(i + e for i, e in p) * max(i + e for i, e in q) + 1
    x0 = -(n // 2)
    return _interpolate([_det(*_sylvester(_at_x(p, x), _at_x(q, x)))
                         for x in range(x0, x0 + n)], x0)


def _gcd(f, g):
    """The monic gcd over Q of two integer polynomials, not both zero, as
    Fractions, highest degree first: Euclid's algorithm in exact
    arithmetic."""
    f, g = _strip(f), _strip(g)
    while g:
        g = [Fraction(c) / g[0] for c in g]
        r, k = list(f), len(f) - len(g) + 1
        for i in range(k):
            if r[i]:
                for j in range(1, len(g)):
                    r[i + j] -= r[i] * g[j]
        f, g = g, _strip(r[max(k, 0):])
    return [Fraction(c) / f[0] for c in f]


_SHEARS = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8]


def _eliminant(forms, weights, spurious, t):
    """Genuine eliminant at shear x -> x + t y, or None if this shear is
    unusable (non-constant leading y-coefficients).  Returns (G, P_t, Q_t),
    G an integer multiple of the resultant with the multiple points'
    sheared x-coordinates divided out, as a coefficient list."""
    pt, qt = _sheared_pair(forms, weights, t)
    for h in (pt, qt):
        top = max((i for i, _e in h), default=0)
        if any(e for i, e in h if i == top):
            return None
    g = _resultant(pt, qt)
    if not g:
        raise DegeneracyError(
            "resultant vanishes identically: the critical set is not isolated "
            "for these weights")
    for (px, py) in spurious:
        _m, g = _divide_out(g, _linear(Fraction(px) - t * Fraction(py)))
    return g, pt, qt


def _vanishes_at_infinity(points, lam):
    """Whether alpha, with nonzero weights, vanishes on the (strict
    transform of the) line at infinity, the only boundary curve it can
    vanish on: its residue there is -sum lambda, and the residues of its
    restriction are the weight sums of the parallel classes, a single line
    giving its own nonzero weight.  The classes are the lines through the
    points at infinity (z = 0) among `points`, the `line_points` of the
    arrangement; a line lies on at most one of them."""
    if sum(lam):
        return False
    classes = [lines for (_x, _y, z), lines in points if not z]
    return (sum(map(len, classes)) == len(lam)
            and all(not sum(lam[k] for k in lines) for lines in classes))


def _certifying_shear(forms, weights, spurious, n):
    """(t, G, P_t, Q_t) for the first shear t whose genuine eliminant G is
    square-free of degree n = |chi(M)|.  The roots of G are the sheared
    x-coordinates of distinct interior zeros (dividing out a multiple point
    can only drop some), so when Z(alpha) is finite, of length n, they are
    all of it, each simple and none on the boundary."""
    found = set()
    for t in _SHEARS:
        got = _eliminant(forms, weights, spurious, t)
        if got is None:
            continue
        g, pt, qt = got
        deg = len(g) - 1
        if deg > 0 and not _squarefree(g):
            continue
        if deg == n:
            return t, g, pt, qt
        found.add(deg)
    raise DegeneracyError(
        f"no shear exhibits |chi(M)| = {n} simple interior zeros (largest "
        f"square-free count: {max(found, default='none')}): zeros are "
        "repeated or on the boundary for these weights")


def critical_points_bivariate(arr, lam, seed=0):
    """Critical points of the master function of an essential affine line
    arrangement, certified by the length identity |Z(alpha)| = |chi(M)|.
    Its hypothesis, a finite Z(alpha), is checked: the resultant must not
    vanish identically and alpha not on the line at infinity.  Any failure
    raises DegeneracyError.  `seed` is accepted and has no effect.
    """
    if not isinstance(arr, Arrangement) or arr.ambient != 2:
        raise PreconditionError("need a line arrangement in C^2")
    if arr.rank() != 2:
        raise PreconditionError("arrangement must be essential (rank 2)")
    lam = _rational_weights(lam, arr.size)
    for j, l in enumerate(lam):
        if not l:
            raise DegeneracyError(
                f"weight lambda_{j} = 0 drops hyperplane {j} from the form; "
                "the puncture structure no longer matches the arrangement")
    points = line_points(arr)
    if _vanishes_at_infinity(points, lam):
        raise DegeneracyError(
            "alpha vanishes on the line at infinity (sum lambda = 0 and every "
            "parallel class has weight sum 0): the zero set is not finite")
    finite = sorted((x, y) for (x, y, z), _lines in points if z)
    # chi(M) = b_0 - b_1 + b_2, with b_2 the sum of mu(p) = (lines through
    # p) - 1 over the finite points where lines meet
    chi = 1 - arr.size + sum(len(lines) - 1 for (_x, _y, z), lines in points
                             if z)
    count = abs(chi)
    t1, g1, pt1, qt1 = _certifying_shear(
        arr.forms, _cleared_weights(lam), finite, count)

    zeros, isolated = [], {}
    for f, mult in _factor(g1, isolated):
        if len(f) > 2:
            zeros.extend(_factor_zeros(f, mult, "interior", isolated))
            continue
        a, b = f
        x0 = Fraction(-b, a)
        py = _gcd(_at_x(pt1, -b, a), _at_x(qt1, -b, a))
        if len(py) != 2:
            raise DegeneracyError(
                f"back-substitution at x = {x0} is not a single simple point")
        y0 = -py[1]
        pt = (x0 + t1 * y0, y0)
        if any(c0 + c1 * pt[0] + c2 * pt[1] == 0
               for c0, c1, c2 in arr.forms):
            raise AssertionError(
                "recovered critical point lies on the arrangement")
        zeros.append(Zero("interior", mult, value=pt))
    notes = (f"length identity: shear {t1} exhibits |chi(M)| = {count} "
             "simple interior zeros, so there are no others",)
    return DivisorReport(tuple(zeros), count, chi, True, notes=notes)


@dataclass(frozen=True)
class FlatResidue:
    lines: tuple          # indices of the lines through the point
    point: tuple          # the flat's spanning vector from line_points
    residue: Fraction


@dataclass(frozen=True)
class ResidueTable:
    lines: tuple           # (index, residue lambda_j)
    points: tuple          # FlatResidue for every multiple point (>= 3 lines)
    zero_components: tuple # boundary components with residue 0


def residues_line_arrangement(arr, lam):
    """Residues of alpha_lambda along every boundary component of the good
    compactification of a projective line arrangement: the lines themselves
    (residue lambda_j) and the exceptional divisors over points where three
    or more lines meet (residue = sum of the lambdas through the point).

    Input is the central arrangement in C^3; sum lambda = 0 is required for
    the form to descend to the projective complement.  The multiple points
    are the `line_points` with three or more lines, each given by its
    vector with last nonzero coordinate 1.
    """
    if not isinstance(arr, Arrangement) or arr.ambient != 3 or not arr.central:
        raise PreconditionError(
            "need a central plane arrangement in C^3 (a projective line "
            "arrangement)")
    lam = _rational_weights(lam, arr.size)
    if sum(lam) != 0:
        # the sum is not printed: a parsed weight may have more digits than
        # Python converts to a string
        raise PreconditionError(
            "the weights do not sum to 0: the form does not descend to the "
            "projective complement")
    points = [FlatResidue(lines, point, sum(lam[k] for k in lines))
              for point, lines in line_points(arr) if len(lines) >= 3]
    zero = []
    for j, l in enumerate(lam):
        if not l:
            zero.append(("line", j))
    for fr in points:
        if not fr.residue:
            zero.append(("point", fr.lines))
    return ResidueTable(
        tuple((j, lam[j]) for j in range(arr.size)),
        tuple(points), tuple(zero))
