"""Exterior algebra, quotients, and the Hodge filtration."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exterior_oracle import add, lift, multiply, project, scale, wedge
from jumploci.arrangement import Arrangement, os_algebra
from jumploci.elliptic import elliptic_model
from jumploci.errors import PreconditionError
from jumploci.exterior import (
    _merge_sign, _mono_type, _prefix_parity, _straighten,
    build_quotient_algebra)
from jumploci.scalars import GF, QI, QQ, GaussianRational, _clear_row, rref
from jumploci.verify import SIXPLANES_FORMS


def gen(i):
    return {1 << i: 1}


def test_basis_products():
    a1, b1 = gen(0), gen(1)
    assert wedge(a1, b1) == {0b11: 1}
    assert not wedge(a1, a1)
    assert wedge(b1, a1) == {0b11: -1}


def test_square_of_any_one_class_vanishes():
    u = add(gen(0), scale(gen(2), 3), scale(gen(3), Fraction(-1, 2)))
    assert not wedge(u, u)


def test_full_exterior_dims():
    A = build_quotient_algebra(4, [], 2)
    assert A.dims() == (1, 4, 6)


def test_one_generic_quadric_drops_one_dimension():
    g = {0b0011: 1, 0b0101: 2, 0b1001: 3, 0b0110: 5, 0b1010: 7, 0b1100: 11}
    A = build_quotient_algebra(4, [g], 2)
    assert A.dims() == (1, 4, 5)
    assert not any(project(A, g))


def test_elliptic_three_point_degree_two():
    m = elliptic_model(3)
    assert m.algebra.dims() == (1, 6, 12)  # 15 monomials minus 3 diagonals


def test_ideal_generator_validation():
    inhomog = {0b0011: 1, 0b0111: 1}
    with pytest.raises(PreconditionError):
        build_quotient_algebra(4, [inhomog], 2)
    with pytest.raises(PreconditionError):
        build_quotient_algebra(4, [gen(0)], 2)


@pytest.mark.parametrize("relation, message", [
    ({0b1_0000: 1, 0b0011: 1}, "subset mask 16 out of range for 4 generators"),
    ({-3: 1}, "subset mask -3 out of range for 4 generators"),
    ({"e0e1": 1}, "subset mask 'e0e1' out of range for 4 generators"),
    ({1.5: 1}, "subset mask 1.5 out of range for 4 generators"),
    ([(0b0011, 1)], "ideal generator 1 is not a relation {mask: coefficient}"),
    ({0b0011: 1, 0b0111: 2}, "ideal generator 1 is not homogeneous"),
    ({0b0100: 1, 0b0001: 0}, "ideal generator 1 has degree 1"),
], ids=["past-ngens", "negative", "string-key", "float-key", "not-a-dict",
        "mixed-degree", "degree-one"])
def test_malformed_relations_are_refused(relation, message):
    # each is the second generator, after a valid one
    with pytest.raises(PreconditionError, match=re.escape(message)):
        build_quotient_algebra(4, [{0b1100: 1}, relation], 2)


def test_zero_terms_and_empty_relations_are_dropped():
    A = build_quotient_algebra(4, [{}, {0b0011: 0}, {0b0011: 2, 0b0101: 0}],
                               2)
    assert A.ideal_gens == ({0b0011: 2},)
    assert A.dims() == (1, 4, 5)


def test_more_than_64_generators():
    # one quadric on 66 generators: the masks are Python ints, unbounded
    A = build_quotient_algebra(66, [{1 << 64 | 1 << 65: 1, 0b11: -3}], 2)
    assert A.dims() == (1, 66, 66 * 65 // 2 - 1)
    assert A.ideal_gens == ({1 << 64 | 1 << 65: 1, 0b11: -3},)
    assert not any(project(A, {1 << 64 | 1 << 65: 3, 0b11: -9}))
    assert any(project(A, {1 << 64 | 1 << 65: 1}))


def test_gaussian_ideal_generator_is_rejected_over_qi():
    # quotient structure is rational: QQ(i) is only the coordinate field
    rational = {0b0011: GaussianRational(1), 0b0101: Fraction(1, 2)}
    gaussian = {0b0011: 1, 0b1100: GaussianRational(2, 1)}
    with pytest.raises(PreconditionError,
                       match="ideal generator 2 has a non-rational coefficient"):
        build_quotient_algebra(4, [rational, {}, gaussian], 2, field=QI)
    A = build_quotient_algebra(4, [rational], 2, field=QI)
    assert A.dims() == (1, 4, 5)
    assert project(A, gen(0)) == [GaussianRational(1), 0, 0, 0]


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
            coords = project(A, {mask: 1}, d)
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
            prod = multiply(A, lift(A, u, 1), lift(A, v, 1))
            if not any(prod):
                continue
            assert rank(Matrix(list(f2) + [prod], field=A.field)) == base


def _hodge_subspace_by_definition(A, p, d):
    """F^p A^d from its definition: the reduced row space of the projections
    of all monomials whose first Hodge index is at least p."""
    rows = [project(A, {m: 1}, d)
            for m in A.proj[d][1] if _mono_type(m, A.hodge_types)[0] >= p]
    rows = [r for r in rows if any(r)]
    return rref(rows, A.field)[2] if rows else []


def _check_coordinate_filtration(A):
    for d in range(A.top + 1):
        # pure ideal generators: every monomial projects onto its own type
        for m, proj in A.proj[d][1].items():
            assert {_mono_type(A.basis[d][j], A.hodge_types)
                    for j, _ in proj} <= {_mono_type(m, A.hodge_types)}
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
    mixed = {0b0011: 1, 0b0101: 1}
    with pytest.raises(PreconditionError, match="mixes Hodge types"):
        build_quotient_algebra(4, [mixed], 2,
                               hodge_types=[(1, 0), (0, 1), (1, 0), (0, 1)])


def test_mixed_hodge_type_names_the_input_index():
    # an empty relation before it is skipped, but still counts as input 0
    with pytest.raises(PreconditionError,
                       match=r"^ideal generator 1 mixes Hodge types"):
        build_quotient_algebra(4, [{}, {0b0011: 1, 0b0101: 1}], 2,
                               hodge_types=[(1, 0), (0, 1)] * 2)


def test_straightening_needs_a_unit_lead():
    # e_0 e_1 + 2 e_0 e_2 solves for e_0 e_1; twice it does not, over Z
    g = {0b011: 1, 0b101: 2}
    assert _straighten(3, QQ, 2, [g], [g], None, False).basis[2] == [0b101,
                                                                     0b110]
    with pytest.raises(PreconditionError, match="lead coefficient 2"):
        _straighten(3, QQ, 2, [g], [{m: 2 * c for m, c in g.items()}], None,
                    False)


@st.composite
def rational_relations(draw):
    """Homogeneous relations {mask: coefficient} of degree 2 or 3 on 5
    generators with Fraction coefficients, some of them zero."""
    degree = draw(st.integers(2, 3))
    monos = [m for m in range(32) if m.bit_count() == degree]
    values = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return draw(st.dictionaries(st.sampled_from(monos), values, max_size=4))


@given(st.lists(rational_relations(), max_size=4),
       st.sampled_from([QQ, QI]))
@settings(max_examples=80, deadline=None)
def test_quotient_stores_each_generator_cleared_to_integers(gens, field):
    # `ideal_gens` holds den * g as {mask: int}, den the lcm of the
    # denominators of g (`_clear_row`); zero terms are dropped, and so is
    # a generator with none left
    A = build_quotient_algebra(5, gens, 3, field)
    nonzero = [{m: c for m, c in g.items() if c} for g in gens]
    expected = [dict(zip(g, _clear_row(list(g.values()), False)[1][0]))
                for g in nonzero if g]
    assert A.ideal_gens == tuple(expected)
    assert all(type(c) is int for g in A.ideal_gens for c in g.values())


def test_missing_hodge_types_error():
    A = build_quotient_algebra(4, [], 2)
    with pytest.raises(PreconditionError):
        A.hodge_subspace(1, 1)


coeffs = st.integers(-5, 5)
masks = st.integers(0, 15)
mvs = st.dictionaries(masks, coeffs, max_size=4).map(
    lambda u: {m: c for m, c in u.items() if c})


@given(mvs, mvs, mvs)
@settings(max_examples=60, deadline=None)
def test_wedge_associative(u, v, w):
    assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))


@given(mvs, mvs)
@settings(max_examples=60, deadline=None)
def test_wedge_graded_commutative(u, v):
    # compare homogeneous parts so the sign is well defined
    for du in {m.bit_count() for m in u}:
        for dv in {m.bit_count() for m in v}:
            uh = {m: c for m, c in u.items() if m.bit_count() == du}
            vh = {m: c for m, c in v.items() if m.bit_count() == dv}
            sign = -1 if (du % 2 and dv % 2) else 1
            assert wedge(uh, vh) == scale(wedge(vh, uh), sign)


@given(mvs, mvs, mvs)
@settings(max_examples=40, deadline=None)
def test_wedge_bilinear(u, v, w):
    assert wedge(add(u, v), w) == add(wedge(u, w), wedge(v, w))
    assert wedge(scale(u, 3), w) == scale(wedge(u, w), 3)


def test_multiply_respects_quotient():
    # squares of degree-one classes vanish in the quotient too
    m = elliptic_model(2)
    A = m.algebra
    u = lift(A, [A.field.coerce(1)] + [A.field.zero()] * 3, 1)
    assert not any(multiply(A, u, u))


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
