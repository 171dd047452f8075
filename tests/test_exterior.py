"""Exterior algebra, quotients, and the Hodge filtration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jumploci.arrangement import Arrangement, os_algebra
from jumploci.elliptic import elliptic_model
from jumploci.errors import PreconditionError
from jumploci.exterior import (
    GradedAlgebra, Multivector, _merge_sign, _prefix_parity, _straighten,
    build_quotient_algebra, wedge)
from jumploci.scalars import GF, QI, GaussianRational, rref
from jumploci.verify import SIXPLANES_FORMS


def gen(i, ngens=4):
    return Multivector.generator(ngens, i)


def test_basis_products():
    a1, b1 = gen(0), gen(1)
    assert wedge(a1, b1) == Multivector.monomial(4, [0, 1])
    assert wedge(a1, a1).is_zero()
    assert wedge(b1, a1) == Multivector.monomial(4, [0, 1], -1)


def test_square_of_any_one_class_vanishes():
    u = gen(0) + gen(2).scale(3) + gen(3).scale(Fraction(-1, 2))
    assert wedge(u, u).is_zero()


def test_generator_count_mismatch():
    with pytest.raises(PreconditionError):
        wedge(Multivector.generator(3, 0), Multivector.generator(4, 0))


def test_full_exterior_dims():
    A = build_quotient_algebra(4, [], 2)
    assert A.dims() == (1, 4, 6)


def test_one_generic_quadric_drops_one_dimension():
    g = Multivector(4, [(0b0011, 1), (0b0101, 2), (0b1001, 3),
                        (0b0110, 5), (0b1010, 7), (0b1100, 11)])
    A = build_quotient_algebra(4, [g], 2)
    assert A.dims() == (1, 4, 5)
    assert not any(A.project(g))


def test_elliptic_three_point_degree_two():
    m = elliptic_model(3)
    assert m.algebra.dims() == (1, 6, 12)  # 15 monomials minus 3 diagonals


def test_ideal_generator_validation():
    inhomog = Multivector(4, [(0b0011, 1), (0b0111, 1)])
    with pytest.raises(PreconditionError):
        build_quotient_algebra(4, [inhomog], 2)
    with pytest.raises(PreconditionError):
        build_quotient_algebra(4, [gen(0)], 2)


def test_gaussian_ideal_generator_is_rejected_over_qi():
    # quotient structure is rational: QQ(i) is only the coordinate field
    rational = Multivector(4, [(0b0011, GaussianRational(1)),
                               (0b0101, Fraction(1, 2))])
    gaussian = Multivector(4, [(0b0011, 1), (0b1100, GaussianRational(2, 1))])
    with pytest.raises(PreconditionError,
                       match="ideal generator 2 has a non-rational coefficient"):
        build_quotient_algebra(4, [rational, Multivector.zero(4), gaussian],
                               2, field=QI)
    A = build_quotient_algebra(4, [rational], 2, field=QI)
    assert A.dims() == (1, 4, 5)
    assert A.project(gen(0)) == [GaussianRational(1), 0, 0, 0]


def test_quotient_algebras_are_not_built_over_a_prime_field():
    # an algebra over F_p is a rational one read mod p
    with pytest.raises(PreconditionError,
                       match="built over QQ or QQ\\(i\\), not GF\\(101\\); "
                             "reduce a built one mod p with "
                             "aomoto.reduce_algebra_mod"):
        build_quotient_algebra(4, [], 2, field=GF(101))


def test_projection_recovers_quotient_basis():
    A = build_quotient_algebra(3, [], 2)
    for d in range(3):
        for k, mask in enumerate(A.basis[d]):
            coords = A.project(Multivector(3, [(mask, 1)]), d)
            assert [bool(c) for c in coords] == [j == k for j in range(len(coords))]


def test_hodge_filtration_dims():
    m = elliptic_model(3)
    assert len(m.algebra.hodge_subspace(0, 1)) == 6
    assert len(m.algebra.hodge_subspace(1, 1)) == 3
    assert len(m.algebra.hodge_subspace(2, 2)) == 3


def test_filtration_is_nested():
    m = elliptic_model(3)
    for d in (1, 2):
        dims = [len(m.algebra.hodge_subspace(p, d))
                for p in range(d + 2)]
        assert dims == sorted(dims, reverse=True)
        assert dims[-1] == 0  # F^{d+1} of a weight-d piece is empty


def test_filtration_multiplies():
    # F^1 wedge F^1 lands in F^2
    m = elliptic_model(3)
    A = m.algebra
    f1 = A.hodge_subspace(1, 1)
    f2 = A.hodge_subspace(2, 2)
    from jumploci.scalars import Matrix, rank
    base = rank(Matrix(f2, field=A.field)) if f2 else 0
    for u in f1:
        for v in f1:
            prod = A.multiply(A.lift(u, 1), A.lift(v, 1))
            if not any(prod):
                continue
            assert rank(Matrix(list(f2) + [prod], field=A.field)) == base


def _hodge_subspace_by_definition(A, p, d):
    """F^p A^d from its definition: the reduced row space of the projections
    of all monomials whose first Hodge index is at least p."""
    rows = [A.project(Multivector(A.ngens, [(m, 1)]), d)
            for m in A.monomials[d] if A.monomial_hodge_type(m)[0] >= p]
    rows = [r for r in rows if any(r)]
    return rref(rows, A.field)[2] if rows else []


def _check_coordinate_filtration(A):
    for d in range(A.top + 1):
        # pure ideal generators: every monomial projects onto its own type
        for m, proj in zip(A.monomials[d], A.proj[d][1]):
            assert {A.monomial_hodge_type(A.basis[d][j]) for j, _ in proj} \
                <= {A.monomial_hodge_type(m)}
        for p in range(d + 2):
            assert A.hodge_subspace(p, d) == _hodge_subspace_by_definition(
                A, p, d)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_elliptic_hodge_subspace_is_the_coordinate_filtration(n):
    _check_coordinate_filtration(elliptic_model(n, top=3).algebra)


def test_os_hodge_subspace_is_the_coordinate_filtration():
    _check_coordinate_filtration(
        os_algebra(Arrangement(4, SIXPLANES_FORMS, central=True)))


def test_mixed_hodge_type_generator_is_rejected():
    # the coordinate filtration rests on pure generators
    mixed = Multivector(4, [(0b0011, 1), (0b0101, 1)])
    with pytest.raises(PreconditionError, match="mixes Hodge types"):
        build_quotient_algebra(4, [mixed], 2,
                               hodge_types=[(1, 0), (0, 1), (1, 0), (0, 1)])


def test_straightening_needs_a_unit_lead():
    # e_0 e_1 + 2 e_0 e_2 solves for e_0 e_1; twice it does not, over Z
    g = Multivector(3, [(0b011, 1), (0b101, 2)])
    assert _straighten(3, 2, [g], [g])[1][2] == [0b101, 0b110]
    with pytest.raises(PreconditionError, match="lead coefficient 2"):
        _straighten(3, 2, [g], [g.scale(2)])


def test_missing_hodge_types_error():
    A = build_quotient_algebra(4, [], 2)
    with pytest.raises(PreconditionError):
        A.hodge_subspace(1, 1)


coeffs = st.integers(-5, 5)
masks = st.integers(0, 15)
mvs = st.lists(st.tuples(masks, coeffs), max_size=4).map(
    lambda t: Multivector(4, t))


@given(mvs, mvs, mvs)
@settings(max_examples=60, deadline=None)
def test_wedge_associative(u, v, w):
    assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))


@given(mvs, mvs)
@settings(max_examples=60, deadline=None)
def test_wedge_graded_commutative(u, v):
    # compare homogeneous parts so the sign is well defined
    for du in u.degrees():
        for dv in v.degrees():
            uh = Multivector(4, [(m, c) for m, c in u.terms.items()
                                 if m.bit_count() == du])
            vh = Multivector(4, [(m, c) for m, c in v.terms.items()
                                 if m.bit_count() == dv])
            sign = -1 if (du % 2 and dv % 2) else 1
            assert wedge(uh, vh) == wedge(vh, uh).scale(sign)


@given(mvs, mvs, mvs)
@settings(max_examples=40, deadline=None)
def test_wedge_bilinear(u, v, w):
    assert wedge(u + v, w) == wedge(u, w) + wedge(v, w)
    assert wedge(u.scale(3), w) == wedge(u, w).scale(3)


def test_multiply_respects_quotient():
    # squares of degree-one classes vanish in the quotient too
    m = elliptic_model(2)
    A = m.algebra
    u = A.lift([A.field.coerce(1)] + [A.field.zero()] * 3, 1)
    assert not any(A.multiply(u, u))


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_prefix_parity_signs_match_an_inversion_count(r, k):
    # disjoint s and t of up to 64 bits; the sign of e_S wedge e_T is the
    # parity of the pairs i in S, j in T with i > j
    s, t = r & k, r & ~k
    inversions = sum(1 for i in range(64) if s >> i & 1
                     for j in range(i) if t >> j & 1)
    assert (s & _prefix_parity(t)).bit_count() & 1 == inversions & 1
    assert _merge_sign(s, t) == (-1 if inversions & 1 else 1)
