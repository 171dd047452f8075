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
divided out.  Genericity of the weights is certified, never assumed: the
count must be reproduced by a second shear and by a perturbed weight
vector, and the genuine eliminant must be square-free; otherwise a
DegeneracyError is raised instead of a wrong count.

Every polynomial is built over the integers, as a coefficient list or a
sympy Poly over ZZ, never as a sympy expression.  Denominators are cleared
first, which scales a numerator, or both components of the form, by one
nonzero constant and so moves no zero.  The order at a rational point a/b
is counted by exact division by b z - a in ZZ[z].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import sympy as sp
from sympy import QQ, ZZ

from .arrangement import Arrangement, poincare_and_euler
from .errors import DegeneracyError, PreconditionError
from .scalars import Matrix, rank_and_kernel

_X, _Y = sp.symbols("jl_x jl_y")


def _frac(r):
    r = sp.Rational(r)
    return Fraction(int(r.p), int(r.q))


def _rational_weights(lam, d):
    if len(lam) != d:
        raise PreconditionError(
            f"got {len(lam)} weights for {d} hyperplanes")
    out = []
    for j, l in enumerate(lam):
        if isinstance(l, bool) or not isinstance(l, (int, Fraction)):
            raise PreconditionError(f"weight {j} must be rational, got {l!r}")
        out.append(Fraction(l))
    return out


def _cleared_weights(lam):
    den = lcm(*(l.denominator for l in lam))
    return [int(l * den) for l in lam]


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
    points = [Fraction(c) for c in points]
    if len(set(points)) != len(points):
        raise PreconditionError("puncture points must be distinct")
    lam = _rational_weights(lam, len(points))
    if not any(lam):
        raise PreconditionError("all-zero weight vector: the form vanishes")
    return points, lam


def numerator_polynomial(points, lam):
    """N(z) = sum_j lambda_j prod_{k != j} (z - c_k), exact over Q."""
    points, lam = _punctures(points, lam)
    return sp.Poly(_weighted_products(lam, [(1, -c) for c in points]), _X,
                   domain=QQ)


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


def _divide_out(coeffs, root):
    """(m, q) with coeffs = (b z - a)^m q over ZZ and q(a/b) != 0, for
    root = a/b in lowest terms.  Each step is a synthetic division by
    b z - a, which stays in ZZ[z] whenever a/b is a root (Gauss's lemma), so
    an inexact quotient digit already means a/b is not a root; otherwise the
    last remainder is the Horner value at a/b.  Constants and the zero
    polynomial have order 0."""
    a, b = root.numerator, root.denominator
    m = 0
    while len(coeffs) > 1:
        quot, acc = [], 0
        for c in coeffs[:-1]:
            acc, r = divmod(c + a * acc, b)
            if r:
                return m, coeffs
            quot.append(acc)
        if coeffs[-1] + a * acc:
            return m, coeffs
        coeffs, m = quot, m + 1
    return m, coeffs


def _zz_poly(coeffs):
    return sp.Poly(coeffs, _X, domain=ZZ)


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


def _zeros_of_poly(poly, kind):
    """Zero entries for all roots of a nonzero univariate integer Poly,
    exact for rational roots, isolating data otherwise."""
    out = []
    _, factors = poly.factor_list()
    for f, mult in sorted(factors, key=lambda t: (t[0].degree(), t[0].all_coeffs())):
        coeffs = [int(c) for c in f.all_coeffs()]
        if f.degree() == 1:
            a, b = coeffs
            out.append(Zero(kind, mult, value=Fraction(-b, a)))
            continue
        real, complexes = _root_intervals(f)
        for (lo, hi), _m in real:
            out.append(Zero(kind, mult, interval=(_frac(lo), _frac(hi)),
                            minpoly=tuple(coeffs)))
        for (a, b), _m in complexes:
            ar, ai = a.as_real_imag()
            br, bi = b.as_real_imag()
            out.append(Zero(kind, mult,
                            interval=((_frac(ar), _frac(br)),
                                      (_frac(ai), _frac(bi))),
                            minpoly=tuple(coeffs)))
    return out


def critical_points_univariate(points, lam):
    """Zeros of alpha inside M = C minus the punctures, with multiplicity.

    chi_matches reports whether the interior count alone already reaches
    |chi(M)| = d - 1; weights with boundary zeros (e.g. sum lambda = 0)
    make it False and the balance moves to log_zero_divisor_p1.
    """
    return _critical_from_divisor(log_zero_divisor_p1(points, lam))


def _critical_from_divisor(divisor):
    """The interior part of a log divisor: the zeros of the numerator with
    every puncture divided out, against chi(M) = 1 - d."""
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
    points, lam = _punctures(points, lam)
    zeros = []
    interior = _cleared_numerator(points, lam)
    for c in points:
        m, interior = _divide_out(interior, c)
        if m:
            zeros.append(Zero("puncture", m, value=c))
    vinf, _tilde = _infinity_valuation(points, lam)
    if vinf:
        zeros.append(Zero("infinity", vinf))
    if len(interior) > 1:
        zeros.extend(_zeros_of_poly(_zz_poly(interior), "interior"))
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
    alpha.  H^0 = 0 iff a is a nonzero germ; dim H^1 = dim O/(a) = ord(a),
    recomputed here by exact division rather than read off the divisor."""
    return _koszul_from_divisor(log_zero_divisor_p1(points, lam), points, lam)


def _koszul_from_divisor(report, points, lam):
    """local_koszul_univariate at the zeros of `report`, the log divisor of
    the same points and weights."""
    points, lam = _punctures(points, lam)
    n = _cleared_numerator(points, lam)
    out = []
    for z in report.zeros:
        if z.kind == "infinity":
            _v, tilde = _infinity_valuation(points, lam)
            h1 = 0
            while tilde and not tilde[-1]:
                tilde = tilde[:-1]  # N~ = w * (the shifted coefficients)
                h1 += 1
        elif z.value is not None:
            h1, _rest = _divide_out(n, z.value)
        else:
            # conjugate orbit: the minimal polynomial is square-free, so the
            # order at each of its roots is the exponent of the factor in N
            f = _zz_poly(list(z.minpoly))
            if sp.gcd(f, f.diff(_X)).degree() > 0:
                raise AssertionError("irreducible factor not square-free")
            h1 = 0
            rem = _zz_poly(n)
            while True:
                q, r = rem.div(f)
                if not r.is_zero:
                    break
                rem, h1 = q, h1 + 1
        if not n:
            raise AssertionError("zero multiplier germ")
        out.append(LocalKoszul(z, 0, h1))
    return tuple(out)


# -- bivariate: the sheared pair over ZZ -------------------------------------

def _cleared_forms(arr):
    """Integer multiples (c0, c1, c2) of the affine forms.  Rescaling f_j
    leaves d log f_j, and so the form alpha, unchanged."""
    out = []
    for f in arr.forms:
        den = lcm(*(c.denominator for c in f))
        out.append(tuple(int(c * den) for c in f))
    return out


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


def _multiple_points(arr):
    """All pairwise intersection points of the lines, as exact pairs."""
    pts = set()
    for i in range(arr.size):
        for j in range(i + 1, arr.size):
            p = arr.common_point((i, j))
            if p is not None:
                pts.add(tuple(p))
    return sorted(pts)


_SHEARS = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8]


def _eliminant(forms, weights, spurious, t):
    """Genuine eliminant at shear x -> x + t y, or None if this shear is
    unusable (non-constant leading y-coefficients).  Returns (G, P_t, Q_t),
    G an integer multiple of the resultant with the multiple points'
    sheared x-coordinates divided out."""
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
        _m, g = _divide_out(g, Fraction(px) - t * Fraction(py))
    return _zz_poly(g), pt, qt


def _certified_count(forms, weights, spurious):
    """Scan the whole shear sequence and certify the critical count.

    Dividing out a multiple point's valuation can also swallow a genuine
    critical point that happens to share its sheared x-coordinate, so a
    single shear can only undercount; the true count is the maximum over
    collision-free shears.  It is accepted when at least two distinct
    shears attain it with square-free eliminants.
    """
    usable = []
    for t in _SHEARS:
        got = _eliminant(forms, weights, spurious, t)
        if got is None:
            continue
        g, pt, qt = got
        deg = max(g.degree(), 0)
        # square-free over Q: gcd(G, G') is a constant
        if deg > 0 and sp.gcd(g, g.diff(_X)).degree() > 0:
            continue
        usable.append((deg, t, g, pt, qt))
    if not usable:
        raise DegeneracyError(
            "no shear yields a square-free genuine eliminant: repeated "
            "critical points for these weights")
    best = max(u[0] for u in usable)
    winners = [u for u in usable if u[0] == best]
    if len(winners) < 2:
        raise DegeneracyError(
            f"only shear {winners[0][1]} attains the maximal count {best}: "
            "cannot certify the count for these weights")
    return winners[0]


def critical_points_bivariate(arr, lam, seed=0):
    """Critical points of the master function of an essential affine line
    arrangement, counted with multiplicity by a sheared resultant.

    The weight vector is certified generic by three independent checks
    (square-free eliminant, agreement of a second shear, agreement after a
    seeded weight perturbation); any failure raises DegeneracyError.
    chi_matches compares the count with |chi(M)| from the face algebra.
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
    _dims, chi = poincare_and_euler(arr)
    forms = _cleared_forms(arr)
    spurious = _multiple_points(arr)

    count, t1, g1, pt1, qt1 = _certified_count(
        forms, _cleared_weights(lam), spurious)
    rng = random.Random(seed)
    stable = False
    for _ in range(3):
        bumped = [l + Fraction(rng.randint(1, 9), 97) for l in lam]
        if not all(bumped):
            continue
        try:
            bumped_count = _certified_count(
                forms, _cleared_weights(bumped), spurious)[0]
        except DegeneracyError:
            continue
        if bumped_count != count:
            raise DegeneracyError(
                f"count {count} is not stable under weight perturbation "
                f"(got {bumped_count}): weights are degenerate")
        stable = True
        break
    if not stable:
        raise DegeneracyError(
            "could not reproduce the count with perturbed weights")

    zeros = []
    if g1.degree() > 0:
        _, factors = g1.factor_list()
        for f, mult in factors:
            if f.degree() == 1:
                a, b = (int(c) for c in f.all_coeffs())
                x0 = Fraction(-b, a)
                at = QQ(x0.numerator, x0.denominator)
                py = sp.gcd(pt1.eval(_X, at), qt1.eval(_X, at))
                if py.degree() != 1:
                    raise DegeneracyError(
                        f"back-substitution at x = {x0} is not a single "
                        "simple point")
                ca, cb = (_frac(c) for c in py.all_coeffs())
                y0 = -cb / ca
                pt = (x0 + t1 * y0, y0)
                if any(c0 + c1 * pt[0] + c2 * pt[1] == 0
                       for c0, c1, c2 in arr.forms):
                    raise AssertionError(
                        "recovered critical point lies on the arrangement")
                zeros.append(Zero("interior", mult, value=pt))
            else:
                zeros.extend(_zeros_of_poly(f, "interior"))
    notes = (f"count {count} certified by two shears (reported from shear "
             f"{t1}) and by a perturbed weight vector",)
    return DivisorReport(tuple(zeros), count, chi, count == abs(chi),
                         notes=notes)


@dataclass(frozen=True)
class FlatResidue:
    lines: tuple          # indices of the lines through the point
    point: tuple          # a spanning vector of the rank-2 flat in C^3
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
    the form to descend to the projective complement.
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
    linear = arr.linear_parts()
    flats = {}
    for i in range(arr.size):
        for j in range(i + 1, arr.size):
            _rk, kern = rank_and_kernel(Matrix([linear[i], linear[j]]))
            if len(kern) != 1:
                continue
            v = kern[0]
            members = tuple(
                k for k in range(arr.size)
                if sum(c * w for c, w in zip(linear[k], v)) == 0)
            flats[members] = v
    points = []
    for members in sorted(flats):
        if len(members) < 3:
            continue
        points.append(FlatResidue(
            members, flats[members], sum(lam[k] for k in members)))
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
