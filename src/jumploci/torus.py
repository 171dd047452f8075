"""Subvarieties of the character torus cut out by Laurent polynomials:
exact exponential-tangent-cone membership for rational directions, and
tangent cones of hypersurfaces at the identity.

A direction alpha is accepted when every defining polynomial, restricted to
the one-parameter subgroup exp(t alpha), vanishes identically; with rational
alpha this reduces to grouping monomials by the frequency <m, alpha> and
checking each group's coefficient sum, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import PreconditionError
from .scalars import _rational


def _clean_poly(poly, rank):
    clean = {}
    for exps, coeff in (poly.items() if isinstance(poly, dict) else poly):
        exps = tuple(int(e) for e in exps)
        if len(exps) != rank:
            raise PreconditionError(
                f"exponent vector {exps} has length {len(exps)}, expected {rank}")
        c = _rational(coeff, "coefficient")
        if c:
            clean[exps] = clean.get(exps, Fraction(0)) + c
            if not clean[exps]:
                del clean[exps]
    return clean


class LaurentSystem:
    """A finite set of Laurent polynomials on a rank-r torus.

    Each polynomial maps integer exponent vectors to nonzero rational
    coefficients."""

    def __init__(self, rank, polys):
        if rank < 1:
            raise PreconditionError("torus rank must be positive")
        self.rank = rank
        self.polys = tuple(_clean_poly(p, rank) for p in polys)

    def __repr__(self):
        return f"LaurentSystem(rank={self.rank}, {len(self.polys)} polys)"


class ExpPolynomial:
    """Sum of c_k e^{mu_k t} with strictly sorted distinct frequencies.

    Zero iff there are no terms: exponentials with distinct frequencies are
    linearly independent, so identical vanishing is a finite check.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        grouped = {}
        for mu, c in terms:
            mu, c = Fraction(mu), Fraction(c)
            grouped[mu] = grouped.get(mu, Fraction(0)) + c
        self.terms = tuple(sorted(
            (mu, c) for mu, c in grouped.items() if c))

    @classmethod
    def from_laurent(cls, poly, alpha):
        return cls((sum(m * a for m, a in zip(exps, alpha)), c)
                   for exps, c in poly.items())

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "ExpPolynomial(0)"
        body = " + ".join(f"({c})e^({mu}t)" for mu, c in self.terms)
        return f"ExpPolynomial({body})"


@dataclass(frozen=True)
class ETCReport:
    member: bool
    restrictions: tuple  # one ExpPolynomial per defining polynomial
    witness: tuple | None  # (poly index, frequency, coefficient) if rejected


def etc_membership(system, alpha):
    """Does exp(t*alpha) lie on the system's zero set for all t?"""
    if len(alpha) != system.rank:
        raise PreconditionError(
            f"direction has length {len(alpha)}, torus rank is {system.rank}")
    alpha = [_rational(a, "direction entry") for a in alpha]
    restrictions = []
    witness = None
    for idx, poly in enumerate(system.polys):
        ep = ExpPolynomial.from_laurent(poly, alpha)
        restrictions.append(ep)
        if witness is None and not ep.is_zero():
            mu, c = ep.terms[0]
            witness = (idx, mu, c)
    return ETCReport(witness is None, tuple(restrictions), witness)


@dataclass(frozen=True)
class TangentCone:
    degree: int
    terms: dict  # exponent tuple -> coefficient, homogeneous of `degree`


def _binomial_shift(poly, rank):
    """Expand P(1+x_1, ..., 1+x_r) exactly, after clearing negative
    exponents by a monomial unit (which does not change the germ at 1)."""
    shift = [max(0, -min((e[j] for e in poly), default=0)) for j in range(rank)]
    out = {}
    for exps, coeff in poly.items():
        partial = {(): coeff}
        for j in range(rank):
            e = exps[j] + shift[j]
            nxt = {}
            for tail, c in partial.items():
                for t in range(e + 1):
                    key = tail + (t,)
                    nxt[key] = nxt.get(key, Fraction(0)) + c * comb(e, t)
            partial = nxt
        for key, c in partial.items():
            if c:
                out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def tangent_cone_hypersurface(poly, rank=None):
    """Lowest-degree homogeneous part of P(1+x) for a Laurent polynomial P
    vanishing at 1; this cuts out the tangent cone of the hypersurface."""
    if rank is None:
        try:
            rank = len(next(iter(poly)))
        except StopIteration:
            raise PreconditionError("zero polynomial has no tangent cone")
    poly = _clean_poly(poly, rank)
    if not poly:
        raise PreconditionError("zero polynomial has no tangent cone")
    expanded = _binomial_shift(poly, rank)
    if expanded.get((0,) * rank):
        raise PreconditionError(
            f"P(1,...,1) = {expanded[(0,) * rank]} is nonzero: "
            "1 does not lie on the hypersurface")
    if not expanded:
        raise PreconditionError("polynomial is a monomial unit: empty zero set")
    low = min(sum(e) for e in expanded)
    terms = {e: c for e, c in expanded.items() if sum(e) == low}
    return TangentCone(low, terms)


def evaluate_terms(terms, alpha):
    """Value of a (Laurent-free) polynomial term dict at a rational point."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        prod = Fraction(coeff)
        for e, a in zip(exps, alpha):
            prod *= Fraction(a) ** e
        total += prod
    return total
