"""Aomoto complexes on integer structure constants against the Fraction
route of `aomoto_oracle`: cohomology, kernels, matrices, E_2 pages, log
resonance and F_p samples must agree with ==, on OS algebras, quotients by
rational ideal generators (denominators in the structure constants), the
elliptic models n = 3..5, and classes with rational and Gaussian
denominators.  Also: the once-per-algebra d o d check catches a corrupted
projection."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import aomoto_oracle as oracle
from jumploci.aomoto import (AomotoComplex, generic_dims_sample,
                             log_resonance_membership, reduce_algebra_mod)
from jumploci.arrangement import Arrangement, os_algebra
from jumploci.elliptic import e2_page, elliptic_model
from jumploci.exterior import Multivector, build_quotient_algebra
from jumploci.scalars import DEFAULT_PRIME, GF, GaussianRational
from jumploci.verify import SIXPLANES_FORMS

I = GaussianRational(0, 1)
BRAID_A3 = [[1 if k == i else (-1 if k == j else 0) for k in range(4)]
            for i in range(4) for j in range(i + 1, 4)]
OS_FORMS = {
    "concurrent3": (2, [[1, 0], [0, 1], [1, 1]], True),
    "generic3": (2, [[0, 1, 0], [0, 0, 1], [-1, 1, 1]], False),
    "boolean3": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], True),
    "braid_a3": (4, BRAID_A3, True),
    "sixplanes": (4, SIXPLANES_FORMS, True),
}

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussians = st.builds(GaussianRational, rationals, rationals)


@lru_cache(maxsize=None)
def os_fixture(name):
    ambient, forms, central = OS_FORMS[name]
    return os_algebra(Arrangement(ambient, forms, central=central))


def assert_same_complex(algebra, alpha):
    cx = AomotoComplex(algebra, alpha)
    ref = oracle.OracleComplex(algebra, alpha)
    assert cx.cohomology_dims() == ref.cohomology_dims()
    assert cx.ranks() == ref.ranks
    assert cx.kernels() == ref.kernels
    assert repr(cx.kernels()) == repr(ref.kernels)
    assert cx.matrices == ref.matrices


@st.composite
def os_classes(draw):
    name = draw(st.sampled_from(sorted(OS_FORMS)))
    algebra = os_fixture(name)
    n = algebra.dim(1)
    alpha = draw(st.lists(rationals, min_size=n, max_size=n))
    if draw(st.booleans()):
        # the resonant classes of a central arrangement have sum zero
        alpha[-1] = -sum(alpha[:-1])
    return algebra, alpha


@given(os_classes())
@settings(max_examples=80, deadline=None)
def test_os_complexes_match_the_fraction_route(case):
    assert_same_complex(*case)


@st.composite
def rational_quotients(draw):
    """Quotients of the exterior algebra on 4 or 5 generators by one to
    three degree-two generators with rational coefficients, so that the
    projections (and the structure constants' den_d) carry denominators."""
    ngens = draw(st.integers(4, 5))
    masks = [(1 << i) | (1 << j) for i in range(ngens)
             for j in range(i + 1, ngens)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.lists(st.tuples(st.sampled_from(masks), rationals),
                              min_size=1, max_size=4))
        gens.append(Multivector(ngens, terms))
    algebra = build_quotient_algebra(ngens, gens, ngens)
    alpha = draw(st.lists(rationals, min_size=ngens, max_size=ngens))
    return algebra, alpha


@given(rational_quotients())
@settings(max_examples=60, deadline=None)
def test_rational_quotients_match_the_fraction_route(case):
    assert_same_complex(*case)


def test_rational_generators_give_a_structure_denominator():
    # the differential test above must reach den_d != 1
    g = Multivector(4, [(0b0011, Fraction(1, 3)), (0b0101, Fraction(-2, 5)),
                        (0b1001, 1)])
    h = Multivector(4, [(0b0110, Fraction(3, 7)), (0b1010, Fraction(1, 2))])
    algebra = build_quotient_algebra(4, [g, h], 4)
    assert algebra.structure_constants(1)[0] == 30
    alpha = [Fraction(1, 2), -1, Fraction(2, 3), 3]
    assert_same_complex(algebra, alpha)
    # over F_p the matrices are read over den_d too, as residues
    for prime in (DEFAULT_PRIME, 101):
        reduced, _ = reduce_algebra_mod(algebra, prime)
        assert_same_complex(reduced, [GF(prime).coerce(a) for a in alpha])


@st.composite
def elliptic_classes(draw, values=gaussians):
    n = draw(st.integers(3, 5))
    x = draw(st.lists(values, min_size=n, max_size=n))
    if draw(st.booleans()):
        x[-1] = -sum(x[:-1], GaussianRational(0))
    return n, x


@given(elliptic_classes(), st.lists(gaussians, min_size=5, max_size=5),
       st.booleans())
@settings(max_examples=25, deadline=None)
def test_elliptic_complexes_match_the_fraction_route(case, y, pure):
    n, x = case
    model = elliptic_model(n)
    y = [I * c for c in x] if pure else y[:n]
    coords = model.class_coords(x, y)
    assert_same_complex(model.algebra, coords)
    assert_same_complex(elliptic_model(n, top=3).algebra,
                        elliptic_model(n, top=3).class_coords(x, y))


@given(elliptic_classes())
@settings(max_examples=25, deadline=None)
def test_elliptic_e2_and_log_resonance_match_the_fraction_route(case):
    n, x = case
    model = elliptic_model(n)
    ix = [I * c for c in x]
    coords = model.class_coords(x, ix)
    assert log_resonance_membership(model.algebra, coords) == \
        oracle.log_resonance_membership(model.algebra, coords)
    if any(x):
        assert e2_page(model, x, ix) == oracle.e2_page(model, x, ix)


@given(st.sampled_from(["concurrent3", "generic3", "sixplanes"]),
       st.data())
@settings(max_examples=12, deadline=None)
def test_generic_dims_samples_match_the_fraction_route(name, data):
    algebra = os_fixture(name)
    n = algebra.dim(1)
    subspace = data.draw(st.none() | st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=2))
    if subspace is not None and not any(any(row) for row in subspace):
        subspace[0][0] = Fraction(1)
    seed = data.draw(st.integers(0, 5))
    # the drawn rationals have denominators <= 6, so no den_d of the
    # structure constants nor any subspace entry is divisible by these
    prime = data.draw(st.sampled_from([DEFAULT_PRIME, 10009, 101]))
    assert generic_dims_sample(algebra, subspace, trials=3, prime=prime,
                               seed=seed) == \
        oracle.generic_dims_sample(algebra, subspace, trials=3, prime=prime,
                                   seed=seed)


def test_corrupted_projection_fails_the_anticommutation_check():
    algebra = os_algebra(Arrangement(4, BRAID_A3, central=True))
    # a degree-2 monomial outside the basis: its projection is a relation,
    # which the products e_i (e_j e_k) of the complex go through
    k = next(k for k, m in enumerate(algebra.monomials[2])
             if m not in algebra.basis[2])
    den, cols = algebra.proj[2]
    (j, c), *rest = cols[k]
    cols[k] = ((j, c + den), *rest)
    with pytest.raises(AssertionError, match="do not anticommute"):
        AomotoComplex(algebra, [1] * algebra.dim(1))
    with pytest.raises(AssertionError):
        oracle.OracleComplex(algebra, [1, 2, 3, 4, 5, 6])
