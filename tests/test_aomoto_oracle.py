"""Aomoto complexes on integer structure constants against the Fraction
route of `aomoto_oracle`: cohomology, kernels, matrices, E_2 pages, log
resonance, F_p samples and isotropy must agree with ==, on OS algebras,
quotients by rational ideal generators (denominators in the structure
constants), the elliptic models n = 3..5, and classes with rational and
Gaussian denominators.  Also: the once-per-algebra d o d check catches a
corrupted projection."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import aomoto_oracle as oracle
from jumploci.aomoto import (AomotoComplex, generic_dims_sample,
                             isotropic_check, log_resonance_membership,
                             reduce_algebra_mod)
from jumploci.arrangement import Arrangement, os_algebra
from jumploci.elliptic import e2_page, elliptic_model, tangent_pair_basis
from jumploci.exterior import Multivector, build_quotient_algebra
from jumploci.scalars import DEFAULT_PRIME, GF, QI, GaussianRational
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
    # the differentials' integer rows, read over the algebra's field
    assert [algebra.class_mult_matrix(alpha, d)
            for d in range(algebra.top + 1)] == ref.matrices


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


def structure_denominator_algebra():
    """A quotient whose structure constants out of degree 1 have den 30."""
    g = Multivector(4, [(0b0011, Fraction(1, 3)), (0b0101, Fraction(-2, 5)),
                        (0b1001, 1)])
    h = Multivector(4, [(0b0110, Fraction(3, 7)), (0b1010, Fraction(1, 2))])
    return build_quotient_algebra(4, [g, h], 4)


def test_rational_generators_give_a_structure_denominator():
    # the differential test above must reach den_d != 1
    algebra = structure_denominator_algebra()
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


# ------------------------------------------------- isotropy, by products

@lru_cache(maxsize=None)
def isotropy_fixture(name):
    """(algebra, rows of an isotropic subspace of A^1, or None)."""
    if name == "concurrent3":
        # the triple point's local component, sum zero: isotropic
        return os_fixture(name), ((1, -1, 0), (0, 1, -1))
    if name in OS_FORMS:
        return os_fixture(name), None
    if name == "sixplanes_qi":
        # the same relations, coordinates over QQ(i)
        A = os_fixture("sixplanes")
        return build_quotient_algebra(
            A.ngens, [Multivector(A.ngens, g) for g in A.ideal_gens], A.top,
            field=QI), None
    if name == "den30":
        return structure_denominator_algebra(), None
    n = int(name[-1])
    model = elliptic_model(n)
    pairs = tangent_pair_basis(n, 0, 1)
    return model.algebra, tuple(tuple(model.class_coords(x, y))
                                for x, y in pairs)


ISOTROPY_FIXTURES = sorted(OS_FORMS) + ["sixplanes_qi", "den30", "elliptic3",
                                        "elliptic4"]


@st.composite
def isotropy_cases(draw):
    """An algebra, perhaps reduced mod p, and one to four classes of A^1:
    random ones, multiples of one class, or combinations of the rows of a
    known isotropic subspace."""
    name = draw(st.sampled_from(ISOTROPY_FIXTURES))
    algebra, isotropic = isotropy_fixture(name)
    n = algebra.dim(1)
    gaussian = algebra.field is QI
    values = gaussians if gaussian else rationals
    prime = draw(st.sampled_from([None, DEFAULT_PRIME, 10009, 101]))
    if prime is not None:
        # 10009 and 101 are 1 mod 4, and divide no drawn denominator
        algebra, _ = reduce_algebra_mod(algebra, prime)
        values = rationals
    count = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["random", "multiples", "subspace"]))
    if mode == "subspace" and isotropic is not None and prime is None:
        coeffs = draw(st.lists(st.lists(st.integers(-3, 3),
                                        min_size=len(isotropic),
                                        max_size=len(isotropic)),
                               min_size=count, max_size=count))
        vectors = [[sum((c * row[k] for c, row in zip(cs, isotropic)),
                        GaussianRational(0) if gaussian else 0)
                    for k in range(n)] for cs in coeffs]
    elif mode == "multiples":
        base = draw(st.lists(values, min_size=n, max_size=n))
        scales = draw(st.lists(rationals, min_size=count, max_size=count))
        vectors = [[c * x for x in base] for c in scales]
    else:
        vectors = draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                min_size=count, max_size=count))
    return algebra, vectors


@given(isotropy_cases())
@settings(max_examples=150, deadline=None)
def test_isotropy_matches_the_lift_wedge_project_route(case):
    # the report, witness included, is the one the product path gives:
    # lift each class, wedge the lifts, project through `proj`
    algebra, vectors = case
    got = isotropic_check(algebra, vectors)
    want = oracle.isotropic_check(algebra, vectors)
    assert got == want
    assert repr(got) == repr(want)


def test_isotropy_fixtures_reach_both_verdicts_and_a_denominator():
    # the differential test above sees isotropic and non-isotropic sets,
    # and a witness read over den 30
    for name in ("concurrent3", "elliptic3"):
        algebra, rows = isotropy_fixture(name)
        assert isotropic_check(algebra, rows).isotropic
    algebra, _ = isotropy_fixture("den30")
    vectors = [[1, 0, 0, 0], [0, Fraction(1, 2), 0, 0]]
    rep = isotropic_check(algebra, vectors)
    assert not rep.isotropic
    assert rep == oracle.isotropic_check(algebra, vectors)
    assert any(x.denominator % 5 == 0 for x in rep.witness[2])
