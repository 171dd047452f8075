"""Reference route for the differential tests of `jumploci.master`.

This is the symbolic construction the package used before it built its
polynomials over the integers: numerators and master-function components
as sympy expressions, the shear x -> x + t y by `subs` and `expand`, the
resultant on expressions over QQ, `Poly.div` for every root order, and
`intervals(all=True)` for every irreducible factor.  Its multiple points are
the pairwise `common_point` solves the package made before it read them off
cross products in P^2.  It shares the report types, the input validation
and the shear sequence with the package, and none of the construction.
Each `oracle_*` function returns what the package function of the same
name must return, field for field.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp

from jumploci.arrangement import Arrangement, poincare_and_euler
from jumploci.errors import DegeneracyError, PreconditionError
from jumploci.master import (_SHEARS, DivisorReport, LocalKoszul, Zero,
                             _frac, _rational_weights)
from jumploci.scalars import _rational

_X, _Y, _W = sp.symbols("jl_x jl_y jl_w")


def oracle_numerator(points, lam):
    """N(z) = sum_j lambda_j prod_{k != j} (z - c_k), exact over Q."""
    points = [_rational(v, f"point {j}") for j, v in enumerate(points)]
    if len(set(points)) != len(points):
        raise PreconditionError("puncture points must be distinct")
    lam = _rational_weights(lam, len(points))
    if not any(lam):
        raise PreconditionError("all-zero weight vector: the form vanishes")
    expr = sp.Integer(0)
    for j, l in enumerate(lam):
        term = sp.Rational(l)
        for k, c in enumerate(points):
            if k != j:
                term *= _X - sp.Rational(c)
        expr += term
    return sp.Poly(expr, _X, domain="QQ")


def oracle_weighted_products(weights, factors):
    """sum_j weights_j prod_{k != j} (a_k z + b_k), coefficients highest
    degree first with leading zeros dropped: each product built from
    scratch, the O(d^3) form that `master._weighted_products` replaced."""
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


def _ord_at(poly, root):
    lin = sp.Poly(_X - sp.Rational(root), _X, domain="QQ")
    n = 0
    while poly.degree() >= 1:
        q, r = poly.div(lin)
        if not r.is_zero:
            break
        poly, n = q, n + 1
    return n


def _zeros_of_poly(poly, kind):
    out = []
    _, factors = poly.factor_list()
    for f, mult in sorted(factors, key=lambda t: (t[0].degree(), t[0].all_coeffs())):
        coeffs = [int(c) for c in f.all_coeffs()]
        if f.degree() == 1:
            a, b = coeffs
            out.append(Zero(kind, mult, value=Fraction(-b, a)))
            continue
        real, complexes = f.intervals(all=True)
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


def oracle_critical_points_univariate(points, lam):
    n = oracle_numerator(points, lam)
    points = [Fraction(c) for c in points]
    interior = n
    for c in points:
        for _ in range(_ord_at(n, c)):
            interior, _r = interior.div(
                sp.Poly(_X - sp.Rational(c), _X, domain="QQ"))
    zeros = _zeros_of_poly(interior, "interior") if interior.degree() > 0 else []
    total = sum(z.multiplicity for z in zeros)
    chi = 1 - len(points)
    return DivisorReport(tuple(zeros), total, chi, total == abs(chi))


def _infinity_valuation(points, lam):
    expr = sp.Integer(0)
    for j, l in enumerate(lam):
        term = sp.Rational(l)
        for k, c in enumerate(points):
            if k != j:
                term *= 1 - sp.Rational(c) * _W
        expr += term
    tilde = sp.Poly(expr, _W, domain="QQ")
    if tilde.is_zero:
        raise PreconditionError("form is identically zero")
    return min(sum(m) for m in tilde.as_dict()), tilde


def oracle_log_zero_divisor_p1(points, lam):
    n = oracle_numerator(points, lam)
    points = [Fraction(c) for c in points]
    lam = _rational_weights(lam, len(points))
    zeros = []
    interior = n
    for c in points:
        m = _ord_at(n, c)
        if m:
            zeros.append(Zero("puncture", m, value=c))
            for _ in range(m):
                interior, _r = interior.div(
                    sp.Poly(_X - sp.Rational(c), _X, domain="QQ"))
    vinf, _tilde = _infinity_valuation(points, lam)
    if vinf:
        zeros.append(Zero("infinity", vinf))
    if interior.degree() > 0:
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


def oracle_local_koszul_univariate(points, lam):
    report = oracle_log_zero_divisor_p1(points, lam)
    n = oracle_numerator(points, lam)
    out = []
    for z in report.zeros:
        if z.kind == "infinity":
            _v, tilde = _infinity_valuation(
                [Fraction(c) for c in points], _rational_weights(lam, len(points)))
            h1 = 0
            while not tilde.is_zero and min(sum(m) for m in tilde.as_dict()) > 0:
                tilde = sp.Poly(tilde.as_expr() / _W, _W, domain="QQ")
                h1 += 1
        elif z.value is not None:
            h1 = _ord_at(n, z.value)
        else:
            f = sp.Poly(list(z.minpoly), _X, domain="QQ")
            if not sp.gcd(f, f.diff(_X)).is_one:
                raise AssertionError("irreducible factor not square-free")
            h1 = 0
            rem = n
            while True:
                q, r = rem.div(f)
                if not r.is_zero:
                    break
                rem, h1 = q, h1 + 1
        if n.is_zero:
            raise AssertionError("zero multiplier germ")
        out.append(LocalKoszul(z, 0, h1))
    return tuple(out)


def _master_components(arr, lam):
    fs = []
    for f in arr.forms:
        c0, c1, c2 = (sp.Rational(c) for c in f)
        fs.append(c0 + c1 * _X + c2 * _Y)
    p = q = sp.Integer(0)
    for j, f in enumerate(arr.forms):
        others = sp.Integer(1)
        for k, g in enumerate(fs):
            if k != j:
                others *= g
        p += sp.Rational(lam[j]) * sp.Rational(f[1]) * others
        q += sp.Rational(lam[j]) * sp.Rational(f[2]) * others
    return sp.expand(p), sp.expand(q), fs


def _eliminant(p, q, spurious, t):
    pt = sp.expand(p.subs({_X: _X + t * _Y}))
    qt = sp.expand(q.subs({_X: _X + t * _Y}))
    for h in (pt, qt):
        lc = sp.Poly(h, _Y).LC()
        if sp.Poly(lc, _X).degree() > 0:
            return None
    res = sp.Poly(sp.resultant(pt, qt, _Y), _X, domain="QQ")
    if res.is_zero:
        raise DegeneracyError(
            "resultant vanishes identically: the critical set is not isolated "
            "for these weights")
    g = res
    for (px, py) in spurious:
        x0 = Fraction(px) - t * Fraction(py)
        for _ in range(_ord_at(g, x0)):
            g, _r = g.div(sp.Poly(_X - sp.Rational(x0), _X, domain="QQ"))
    return g, res, pt, qt


def _multiple_points(arr):
    """All pairwise intersection points of the lines, as exact pairs."""
    pts = set()
    for i in range(arr.size):
        for j in range(i + 1, arr.size):
            p = arr.common_point((i, j))
            if p is not None:
                pts.add(tuple(p))
    return sorted(pts)


def _vanishes_at_infinity(arr, lam):
    """sum lambda = 0 and the lines split into parallel classes, by the 2x2
    determinant of their linear parts, each of two or more lines and of
    weight sum 0."""
    if sum(lam):
        return False
    classes = {}
    for j, (_c0, a, b) in enumerate(arr.forms):
        key = next((k for k in classes
                    if a * arr.forms[k][2] - b * arr.forms[k][1] == 0), j)
        classes.setdefault(key, []).append(j)
    return all(len(c) >= 2 and sum(lam[k] for k in c) == 0
               for c in classes.values())


def _certifying_shear(p, q, spurious, n):
    found = set()
    for t in _SHEARS:
        got = _eliminant(p, q, spurious, t)
        if got is None:
            continue
        g, _res, pt, qt = got
        deg = max(g.degree(), 0)
        if deg > 0 and not sp.gcd(g, g.diff(_X)).is_one:
            continue
        if deg == n:
            return t, g, pt, qt
        found.add(deg)
    raise DegeneracyError(
        f"no shear exhibits |chi(M)| = {n} simple interior zeros (largest "
        f"square-free count: {max(found, default='none')}): zeros are "
        "repeated or on the boundary for these weights")


def oracle_critical_points_bivariate(arr, lam, seed=0):
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
    if _vanishes_at_infinity(arr, lam):
        raise DegeneracyError(
            "alpha vanishes on the line at infinity (sum lambda = 0 and every "
            "parallel class has weight sum 0): the zero set is not finite")
    _dims, chi = poincare_and_euler(arr)
    count = abs(chi)
    p, q, fs = _master_components(arr, lam)
    t1, g1, pt1, qt1 = _certifying_shear(p, q, _multiple_points(arr), count)

    zeros = []
    if g1.degree() > 0:
        _, factors = g1.factor_list()
        for f, mult in factors:
            if f.degree() == 1:
                a, b = (int(c) for c in f.all_coeffs())
                x0 = Fraction(-b, a)
                py = sp.gcd(sp.Poly(pt1.subs({_X: sp.Rational(x0)}), _Y),
                            sp.Poly(qt1.subs({_X: sp.Rational(x0)}), _Y))
                if py.degree() != 1:
                    raise DegeneracyError(
                        f"back-substitution at x = {x0} is not a single "
                        "simple point")
                ca, cb = (_frac(c) for c in py.all_coeffs())
                y0 = -cb / ca
                pt = (x0 + t1 * y0, y0)
                for fl in fs:
                    if sp.Rational(fl.subs({_X: sp.Rational(pt[0]),
                                            _Y: sp.Rational(pt[1])})) == 0:
                        raise AssertionError(
                            "recovered critical point lies on the arrangement")
                zeros.append(Zero("interior", mult, value=pt))
            else:
                zeros.extend(
                    z for z in _zeros_of_poly(sp.Poly(f, _X, domain="QQ"),
                                              "interior"))
    notes = (f"length identity: shear {t1} exhibits |chi(M)| = {count} "
             "simple interior zeros, so there are no others",)
    return DivisorReport(tuple(zeros), count, chi, True, notes=notes)
