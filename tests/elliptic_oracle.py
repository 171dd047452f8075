"""Reference Kunneth route for the diagonal classes of the elliptic model.

This is how the package derived the diagonal classes before it wrote down
their closed form: the Poincare-dual basis of the curve's cohomology comes
from a Gram solve, the curve monomials are embedded in the u, v generators
of each factor with Gaussian-rational coefficients, and the class of the
(k, l) diagonal is the Kunneth sum over the dual basis.  It shares no code
with `elliptic._diagonal_relation`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from exterior_oracle import add, scale, wedge
from jumploci.scalars import GaussianRational, Matrix, solve_linear

I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


@lru_cache(maxsize=None)
def curve_duals():
    """Poincare-dual basis of H*(genus-1 curve) = exterior algebra on a, b.

    Monomials are indexed by 2-bit masks (bit 0 = a, bit 1 = b).  Returns
    the tuple of (mask, degree, dual) with dual a tuple of (mask, coeff)
    whose wedge against the basis element hits the top class with
    coefficient 1.
    """
    masks = [0b00, 0b01, 0b10, 0b11]
    # gram[l][j] = coefficient of ab in monomial_l wedge monomial_j
    gram = []
    for l in masks:
        row = []
        for j in masks:
            row.append(wedge({l: 1}, {j: 1}).get(0b11, 0))
        gram.append(row)
    duals = []
    for m in masks:
        e = [Fraction(1) if l == m else Fraction(0) for l in masks]
        c = solve_linear(Matrix(gram), e)
        duals.append((m, bin(m).count("1"),
                      tuple((masks[j], c[j]) for j in range(4) if c[j])))
    return tuple(duals)


def embed_factor(n, k, mask):
    """Image of a curve monomial (mask over a, b) in the n-point model's
    ambient exterior algebra, written in the u, v generators of factor k,
    as a term dict {mask: coefficient}."""
    u = {1 << 2 * k: 1}
    v = {1 << 2 * k + 1: 1}
    a = scale(add(u, v), HALF)
    b = scale(add(u, scale(v, -1)), -I * HALF)
    if mask == 0b00:
        return {0: GaussianRational(1)}
    if mask == 0b01:
        return a
    if mask == 0b10:
        return b
    return wedge(a, b)


def diagonal_class(n, k, l):
    """The class of the (k,l) diagonal in degree 2, via the Kunneth
    dual-basis formula sum_m (-1)^{deg m} m_k wedge (dual m)_l."""
    total = {}
    for mask, deg, dual in curve_duals():
        left = embed_factor(n, k, mask)
        for dmask, coeff in dual:
            right = embed_factor(n, l, dmask)
            term = scale(wedge(left, right),
                         GaussianRational(coeff if deg % 2 == 0 else -coeff))
            total = add(total, term)
    return total
