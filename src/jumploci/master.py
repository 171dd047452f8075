"""Critical points of master functions and the logarithmic Hopf index
bookkeeping.

Univariate: for punctured lines M = C minus {c_1..c_d}, the form
alpha = sum lambda_j dz/(z - c_j) has numerator N(z) = sum_j lambda_j
prod_{k != j} (z - c_k); its zeros on P^1 are tracked against the log
divisor D = {c_j} and the point at infinity, where the order is measured
against the local generator dw/w of Omega^1(log D).  The total zero degree
is |D| - 2 for every nonzero weight vector.

Bivariate: critical points of line-arrangement master functions are counted
by a sheared Sylvester resultant with the arrangement's multiple points
divided out.  The count is certified by the length identity behind
Corollary 1.1 (Orlik-Terao 1995, Silvotti 1996, Huh 2013): a finite zero
set Z(alpha) on a good compactification has length chi(M); otherwise a
DegeneracyError is raised instead of a wrong count.

Every polynomial is built over the integers, as a coefficient list or a
sympy Poly over ZZ, never as a sympy expression.  Denominators are cleared
first, which scales a numerator, or both components of the form, by one
nonzero constant and so moves no zero.  The order at a rational point a/b
is counted by exact division by b z - a in ZZ[z], and at the roots of an
irreducible factor by exact division by that factor.

Every factorization goes through `_factor`, whose answer is always that of
sympy's `Poly.factor_list`.  A fast answer is a proof, and every other case
falls back to sympy.  At a prime p not dividing the leading coefficient, a
square-free f mod p proves f square-free over Q, and the degrees of the
irreducible factors of f mod p bound the degree of any factor over ZZ to
their subset sums.  When those sums, intersected over a fixed list of small
primes, are {0, deg f} alone, f is irreducible (Musser, J. ACM 25, 1978).
The same square-free proof, with sympy's gcd as the fallback, certifies the
eliminant of a shear and the minimal polynomials of the Koszul orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import sympy as sp
from sympy import QQ, ZZ

from .arrangement import Arrangement, line_points
from .errors import DegeneracyError, PreconditionError
from .scalars import _clear, _rational

_X, _Y = sp.symbols("jl_x jl_y")


def _frac(r):
    r = sp.Rational(r)
    return Fraction(int(r.p), int(r.q))


def _rational_weights(lam, d):
    if len(lam) != d:
        raise PreconditionError(
            f"got {len(lam)} weights for {d} hyperplanes")
    return [_rational(v, f"weight {j}") for j, v in enumerate(lam)]


def _cleared_weights(lam):
    return _clear([lam], False)[0][0]


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
    """The validated points and weights as tuples of Fractions."""
    points = tuple(_rational(v, f"point {j}") for j, v in enumerate(points))
    if len(set(points)) != len(points):
        raise PreconditionError("puncture points must be distinct")
    lam = tuple(_rational_weights(lam, len(points)))
    if not any(lam):
        raise PreconditionError("all-zero weight vector: the form vanishes")
    return points, lam


def _cleared_numerator(points, lam, at_infinity=False):
    """An integer multiple of N(z), or with at_infinity of
    N~(w) = sum_j lambda_j prod_{k != j} (1 - c_k w).  With c_k = a_k / b_k
    and L the common denominator of the weights, it is L b_1 ... b_d times
    the polynomial: sum_j L lambda_j b_j prod_{k != j} (b_k z - a_k), resp.
    (b_k - a_k w)."""
    weights = [w * c.denominator
               for w, c in zip(_cleared_weights(lam), points)]
    if at_infinity:
        factors = [(-c.numerator, c.denominator) for c in points]
    else:
        factors = [(c.denominator, -c.numerator) for c in points]
    return _weighted_products(weights, factors)


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


def _linear(root):
    """b z - a, for root = a/b in lowest terms."""
    return (root.denominator, -root.numerator)


def _zz_poly(coeffs):
    return sp.Poly(coeffs, _X, domain=ZZ)


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


def _gf_strip(a):
    i = 0
    while i < len(a) and not a[i]:
        i += 1
    return a[i:]


def _gf_monic(a, p):
    inv = pow(a[0], -1, p)
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
    return q, _gf_strip(r[max(len(a) - k, 0):])


def _gf_gcd(a, b, p):
    """The monic gcd of a != 0 and b over F_p."""
    while b:
        b = _gf_monic(b, p)
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p)


def _gf_mulmod(a, b, f, p):
    """a b mod f over F_p, f monic."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _gf_divmod([c % p for c in prod], f, p)[1]


def _gf_degrees(f, p):
    """The degrees of the irreducible factors of a monic square-free f over
    F_p, by distinct-degree factorization: the factors of degree i divide
    x^(p^i) - x, and those of lower degree are already divided out."""
    degrees, h, i = [], [1, 0], 0  # h = x^(p^i) mod f
    while len(f) - 1 >= 2 * (i + 1):
        i += 1
        frob = [1]  # h^p mod f, by squaring and multiplying
        for bit in bin(p)[2:]:
            frob = _gf_mulmod(frob, frob, f, p)
            if bit == "1":
                frob = _gf_mulmod(frob, h, f, p)
        h = frob
        shifted = [0] * (2 - len(h)) + h  # h - x
        shifted[-2] = (shifted[-2] - 1) % p
        g = _gf_gcd(f, _gf_strip(shifted), p)
        if len(g) > 1:
            degrees += [i] * ((len(g) - 1) // i)
            f = _gf_divmod(f, g, p)[0]
            h = _gf_divmod(h, f, p)[1]
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
        n = len(fp) - 1
        dfp = _gf_strip([c * (n - i) % p for i, c in enumerate(fp[:-1])])
        if dfp and len(_gf_gcd(fp, dfp, p)) == 1:
            yield p, fp
            found += 1
            if found == _SIEVE:
                return


def _squarefree(coeffs):
    """Whether an integer polynomial of positive degree is square-free over
    Q: proved mod a prime of the sieve, or else decided by sympy's
    gcd(f, f')."""
    if next(_sieve(coeffs), None):
        return True
    f = _zz_poly(list(coeffs))
    return sp.gcd(f, f.diff(_X)).degree() == 0


def _irreducible(f):
    """Whether Musser's degree-set test proves a primitive integer
    polynomial f of degree n >= 2 irreducible over ZZ.  A factor of f of
    degree k keeps its degree mod a sieve prime p, so k is a sum of degrees
    of irreducible factors of f mod p; once the sets of such sums, over the
    primes so far, meet in {0, n} alone, f has no proper factor."""
    n = len(f) - 1
    sums = (2 << n) - 1  # bit k set: degree k not yet excluded
    for p, fp in _sieve(f):
        mask = 1
        for d in _gf_degrees(fp, p):
            mask |= mask << d
        sums &= mask
        if sums == 1 | 1 << n:
            return True
    return False


def _factor(coeffs):
    """`Poly.factor_list()[1]` for an integer polynomial, a coefficient list
    with nonzero leading entry, as (factor, multiplicity) pairs: primitive
    factors as coefficient tuples, leading coefficient positive.  A linear
    primitive part, or one that the degree-set test proves irreducible, is
    the only factor; every other polynomial is factored by sympy."""
    if len(coeffs) < 2:
        return []
    c = gcd(*coeffs) if coeffs[0] > 0 else -gcd(*coeffs)
    f = tuple(a // c for a in coeffs)
    if len(f) == 2 or _irreducible(f):
        return [(f, 1)]
    return [(tuple(int(a) for a in g.all_coeffs()), m)
            for g, m in _zz_poly(list(coeffs)).factor_list()[1]]


def _root_intervals(f):
    """`f.intervals(all=True)` for a square-free integer Poly f.  Sympy
    isolates the real part of all=True with the same
    `dup_isolate_real_roots_sqf` call that sqf=True makes, so when the real
    roots are all f.degree() roots the complex search is skipped and the
    answer is the same."""
    real = f.intervals(sqf=True)
    if len(real) == f.degree():
        return [(iv, 1) for iv in real], []
    return f.intervals(all=True)


def _factor_zeros(f, mult, kind):
    """Zero entries for the roots of an irreducible factor f, a primitive
    coefficient tuple, of multiplicity mult: exact for a linear f,
    isolating data with minimal polynomial f otherwise."""
    if len(f) == 2:
        a, b = f
        return [Zero(kind, mult, value=Fraction(-b, a))]
    real, complexes = _root_intervals(_zz_poly(list(f)))
    out = [Zero(kind, mult, interval=(_frac(lo), _frac(hi)), minpoly=f)
           for (lo, hi), _m in real]
    for (a, b), _m in complexes:
        ar, ai = a.as_real_imag()
        br, bi = b.as_real_imag()
        out.append(Zero(kind, mult,
                        interval=((_frac(ar), _frac(br)),
                                  (_frac(ai), _frac(bi))),
                        minpoly=f))
    return out


def _zeros_of_poly(coeffs, kind):
    """Zero entries for all roots of a nonzero integer polynomial, a
    coefficient list, exact for rational roots, isolating data otherwise."""
    out = []
    for f, mult in sorted(_factor(coeffs), key=lambda t: (len(t[0]), t[0])):
        out.extend(_factor_zeros(f, mult, kind))
    return out


def critical_points_univariate(points, lam):
    """Zeros of alpha inside M = C minus the punctures, with multiplicity:
    the interior part of the log divisor, the zeros of the numerator with
    every puncture divided out, against chi(M) = 1 - d.

    chi_matches reports whether the interior count alone already reaches
    |chi(M)| = d - 1; weights with boundary zeros (e.g. sum lambda = 0)
    make it False and the balance moves to log_zero_divisor_p1.
    """
    divisor = _log_divisor(*_punctures(points, lam))
    zeros = tuple(z for z in divisor.zeros if z.kind == "interior")
    total = sum(z.multiplicity for z in zeros)
    chi = divisor.chi
    return DivisorReport(zeros, total, chi, total == abs(chi))


def _infinity_valuation(points, lam):
    """Order of alpha at infinity against dw/w: the trailing valuation of
    N~(w), returned with the coefficients of a multiple of N~."""
    tilde = _cleared_numerator(points, lam, at_infinity=True)
    if not tilde:
        raise PreconditionError("form is identically zero")
    return min(i for i, c in enumerate(reversed(tilde)) if c), tilde


def log_zero_divisor_p1(points, lam):
    """Full zero divisor of alpha as a section of Omega^1_{P^1}(log D),
    D = {c_1..c_d, infinity}: interior zeros plus boundary orders at each
    puncture (against dz/(z-c_j)) and at infinity (against dw/w).

    The total is |D| - 2 = d - 1 for every nonzero weight vector; the
    infinity entry notes when the residue there (-sum lambda) vanishes.
    """
    return _log_divisor(*_punctures(points, lam))


# The three univariate functions are called back to back on one
# configuration (the CLI, verify-paper, the benchmark's master op), so the
# last configuration's divisor is kept and its numerator factored once.
@lru_cache(maxsize=1)
def _log_divisor(points, lam):
    """log_zero_divisor_p1 for validated tuples of Fractions."""
    zeros = []
    interior = _cleared_numerator(points, lam)
    for c in points:
        m, interior = _divide_out(interior, _linear(c))
        if m:
            zeros.append(Zero("puncture", m, value=c))
    vinf, _tilde = _infinity_valuation(points, lam)
    if vinf:
        zeros.append(Zero("infinity", vinf))
    if len(interior) > 1:
        zeros.extend(_zeros_of_poly(interior, "interior"))
    total = sum(z.multiplicity for z in zeros)
    d = len(points)
    if total != d - 1:
        raise AssertionError(
            f"zero degree {total} != |D| - 2 = {d - 1}: bookkeeping broken")
    notes = ()
    if sum(lam) == 0:
        notes = ("residue at infinity is 0: infinity stays in D as part of "
                 "the boundary of M, with the order measured against dw/w",)
    chi = 1 - d
    return DivisorReport(tuple(zeros), total, chi, total == abs(chi),
                         divisor_size=d + 1, notes=notes)


@dataclass(frozen=True)
class LocalKoszul:
    zero: Zero
    h0: int
    h1: int


def local_koszul_univariate(points, lam):
    """Local Koszul cohomology at every zero of the log divisor: the complex
    0 -> O -> O -> 0 given by multiplication by the local multiplier a of
    alpha.  H^0 = 0 iff a is a nonzero germ; dim H^1 = dim O/(a) = ord(a).

    The zeros are those of log_zero_divisor_p1 (the same report, factored
    once), but every order is recomputed by exact division of the numerator
    rather than read off the divisor: at a rational zero by b z - a, at
    infinity by w, and at the conjugate roots of an irreducible factor by
    that factor, once per factor since the order is the same at each root.
    """
    points, lam = _punctures(points, lam)
    report = _log_divisor(points, lam)
    n = _cleared_numerator(points, lam)
    factor_orders = {}
    out = []
    for z in report.zeros:
        if z.kind == "infinity":
            _v, tilde = _infinity_valuation(points, lam)
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

def _sheared_pair(forms, weights, t):
    """P(x + t y, y) and Q(x + t y, y) as Polys over ZZ in (y, x), where
    P = sum_j w_j c1_j prod_{k != j} f_k and Q likewise with c2_j.  The
    sheared forms are f_k(x + t y, y) = c0 + c1 x + (c2 + t c1) y; the
    weights w_j c1_j, w_j c2_j stay those of the unsheared derivatives."""
    sheared = [(c0, c1, c2 + t * c1) for c0, c1, c2 in forms]
    p, q = {}, {}
    for j, w in enumerate(weights):
        prod = {(0, 0): 1}  # terms {(deg_y, deg_x): coefficient}
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
    return tuple(sp.Poly.from_dict({k: c for k, c in h.items() if c},
                                   _Y, _X, domain=ZZ) for h in (p, q))


_SHEARS = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8]


def _eliminant(forms, weights, spurious, t):
    """Genuine eliminant at shear x -> x + t y, or None if this shear is
    unusable (non-constant leading y-coefficients).  Returns (G, P_t, Q_t),
    G an integer multiple of the resultant with the multiple points'
    sheared x-coordinates divided out, as a coefficient list."""
    pt, qt = _sheared_pair(forms, weights, t)
    for h in (pt, qt):
        top = h.degree(_Y)
        if any(m[1] for m, _c in h.terms() if m[0] == top):
            return None
    res = sp.resultant(pt, qt)
    if res.is_zero:
        raise DegeneracyError(
            "resultant vanishes identically: the critical set is not isolated "
            "for these weights")
    g = [int(c) for c in res.all_coeffs()]
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
    # integer multiples of the forms: rescaling f_j leaves d log f_j, and
    # so the form alpha, unchanged
    t1, g1, pt1, qt1 = _certifying_shear(
        _clear(arr.forms, False)[0], _cleared_weights(lam), finite, count)

    zeros = []
    for f, mult in _factor(g1):
        if len(f) > 2:
            zeros.extend(_factor_zeros(f, mult, "interior"))
            continue
        a, b = f
        x0 = Fraction(-b, a)
        at = QQ(x0.numerator, x0.denominator)
        py = sp.gcd(pt1.eval(_X, at), qt1.eval(_X, at))
        if py.degree() != 1:
            raise DegeneracyError(
                f"back-substitution at x = {x0} is not a single simple point")
        ca, cb = (_frac(c) for c in py.all_coeffs())
        y0 = -cb / ca
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
        raise PreconditionError(
            f"sum of weights is {sum(lam)}, not 0: the form does not descend "
            "to the projective complement")
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
