"""Independent oracles for the benchmark's correctness checks.

Nothing here imports jumploci: every expected value comes from a closed
form or a direct computation with Fractions, so a fault in the program's
elimination, quotient or sympy paths cannot also hide in its own check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial


# --------------------------------------------------------------- polynomials

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def linear_product(roots):
    """Coefficients of prod (1 + r t), lowest degree first."""
    out = [1]
    for r in roots:
        out = poly_mul(out, [1, r])
    return out


def euler(coeffs):
    """The Poincare polynomial at t = -1."""
    return sum((-1) ** k * c for k, c in enumerate(coeffs))


def poincare_braid(n):
    """Braid arrangement A_{n-1} (the hyperplanes x_i = x_j in C^n)."""
    return linear_product(range(1, n))


def poincare_b(n):
    """Coxeter arrangement B_n: x_i = 0 and x_i = +-x_j in C^n."""
    return linear_product(2 * k - 1 for k in range(1, n + 1))


def poincare_d(n):
    """Coxeter arrangement D_n: x_i = +-x_j in C^n, n >= 2."""
    return linear_product([n - 1] + [2 * k - 1 for k in range(1, n)])


def poincare_generic_central(d, rank):
    """d central hyperplanes in general position in C^rank, d >= rank."""
    return poly_mul([1, 1], [comb(d - 1, k) for k in range(rank)])


def poincare_generic_affine(d, dim):
    """d affine hyperplanes in general position in C^dim."""
    return [comb(d, k) for k in range(dim + 1)]


def braid_circuits(n):
    """Cycles of the complete graph K_n: the circuits of A_{n-1}."""
    return sum(comb(n, k) * factorial(k - 1) // 2 for k in range(3, n + 1))


def critical_count_generic_lines(d):
    """|chi| of the complement of d generic affine lines: C(d-1, 2).  For
    positive weights every critical point of the master function is real
    and nondegenerate, one per bounded chamber (Varchenko)."""
    return comb(d - 1, 2)


# ------------------------------------------------ R^1 of the braid arrangement

def braid_edges(n):
    """Hyperplane order of the generated braid arrangements: x_i - x_j in
    lexicographic order of (i, j)."""
    return list(combinations(range(n), 2))


def braid_r1_components(n):
    """The components of the first resonance variety of A_{n-1}
    (Libgober-Yuzvinsky): one local component per triangle of K_n and one
    non-local component per K_4.  Each is returned as (label, support,
    equations, basis): alpha lies on it iff alpha vanishes off `support` and
    satisfies every linear equation; `basis` spans it."""
    edges = braid_edges(n)
    index = {e: k for k, e in enumerate(edges)}
    m = len(edges)
    comps = []
    for a, b, c in combinations(range(n), 3):
        sup = [index[(a, b)], index[(a, c)], index[(b, c)]]
        eqs = [{k: 1 for k in sup}]
        basis = [_vec(m, {sup[0]: 1, sup[1]: -1}),
                 _vec(m, {sup[1]: 1, sup[2]: -1})]
        comps.append((f"local{a}{b}{c}", sup, eqs, basis))
    for a, b, c, d in combinations(range(n), 4):
        # alpha_ab = alpha_cd, alpha_ac = alpha_bd, alpha_ad = alpha_bc,
        # alpha_ab + alpha_ac + alpha_ad = 0
        p1 = (index[(a, b)], index[(c, d)])
        p2 = (index[(a, c)], index[(b, d)])
        p3 = (index[(a, d)], index[(b, c)])
        sup = list(p1 + p2 + p3)
        eqs = [{p1[0]: 1, p1[1]: -1}, {p2[0]: 1, p2[1]: -1},
               {p3[0]: 1, p3[1]: -1}, {p1[0]: 1, p2[0]: 1, p3[0]: 1}]
        basis = [_vec(m, {p1[0]: 1, p1[1]: 1, p2[0]: -1, p2[1]: -1}),
                 _vec(m, {p2[0]: 1, p2[1]: 1, p3[0]: -1, p3[1]: -1})]
        comps.append((f"nonlocal{a}{b}{c}{d}", sup, eqs, basis))
    return comps


def _vec(m, entries):
    v = [Fraction(0)] * m
    for k, x in entries.items():
        v[k] = Fraction(x)
    return v


def on_component(alpha, component):
    _label, support, equations, _basis = component
    sup = set(support)
    if any(x for k, x in enumerate(alpha) if k not in sup):
        return False
    return all(sum(c * alpha[k] for k, c in eq.items()) == 0
               for eq in equations)


def components_containing(alpha, components):
    return [c[0] for c in components if on_component(alpha, c)]


# ------------------------------------------------------ elliptic scroll

def on_scroll(x, y):
    """(x, y) lies on the scroll iff sum x = sum y = 0 and every 2x2 minor
    of the 2 x n matrix [x; y] vanishes."""
    if sum(x) != 0 or sum(y) != 0:
        return False
    n = len(x)
    return all(x[i] * y[j] - x[j] * y[i] == 0
               for i in range(n) for j in range(i + 1, n))


# ------------------------------------------------------ exact checks on lines

def lines_in_general_position(forms):
    """Affine lines c0 + c1 x + c2 y: no two parallel, no three through one
    point."""
    pts = set()
    for (a0, a1, a2), (b0, b1, b2) in combinations(forms, 2):
        det = Fraction(a1) * b2 - Fraction(a2) * b1
        if det == 0:
            return False
        x = (Fraction(-a0) * b2 + Fraction(a2) * b0) / det
        y = (Fraction(-a1) * b0 + Fraction(a0) * b1) / det
        if (x, y) in pts:
            return False
        pts.add((x, y))
    return True


def det(rows):
    """Exact determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out
