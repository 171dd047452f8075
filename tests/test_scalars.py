"""Exact scalar and linear-algebra kernels."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jumploci.aomoto import reduce_algebra_mod
from jumploci.errors import PreconditionError
from jumploci.exterior import Multivector, build_quotient_algebra
from jumploci.scalars import (
    DEFAULT_PRIME, GF, BadPrimeError, FieldMismatchError, GaussianRational,
    Matrix, QI, QQ, rank, rank_and_kernel, rref, solve_linear)
from rref_oracle import oracle_rref

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)


# -- Gaussian rationals ------------------------------------------------------

def test_gaussian_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a * b == GaussianRational(5, 5)
    assert a + b == GaussianRational(4, 1)
    assert a.conjugate() == GaussianRational(1, -2)
    assert a.norm() == Fraction(5)
    assert (a / b) * b == a


def test_gaussian_mixes_with_rationals():
    a = GaussianRational(0, 1)
    assert a * a == GaussianRational(-1)
    assert a + Fraction(1, 2) == GaussianRational(Fraction(1, 2), 1)
    assert 1 / a == GaussianRational(0, -1)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 1) / GaussianRational(0, 0)


@given(rationals, rationals, rationals, rationals, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_gaussian_field_laws(ar, ai, br, bi, cr, ci):
    a = GaussianRational(ar, ai)
    b = GaussianRational(br, bi)
    c = GaussianRational(cr, ci)
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    if b:
        assert (a / b) * b == a
    assert a - a == GaussianRational(0)


# -- Prime fields: elements are plain residues in [0, p) ----------------------

def test_prime_field_basics():
    F7 = GF(7)
    x = F7.coerce(Fraction(1, 3))
    assert x == 5 and x * F7.coerce(3) % 7 == F7.one() == 1
    assert F7.coerce(10) == F7.coerce(3) == 3
    assert F7.coerce(-2) == 5
    assert F7.zero() == 0


def test_composite_modulus_rejected():
    with pytest.raises(BadPrimeError):
        GF(15)
    with pytest.raises(BadPrimeError):
        GF(2)  # odd primes only: 2 has no inverse pairs worth supporting
    with pytest.raises(BadPrimeError):
        GF(7).coerce(Fraction(1, 7))


def test_field_mixing_rejected():
    with pytest.raises(FieldMismatchError):
        GF(7).coerce(GaussianRational(1, 1))


def test_sqrt_minus_one_in_default_prime():
    Fp = GF(DEFAULT_PRIME)
    i = Fp.sqrt_minus_one()
    assert 0 < i < DEFAULT_PRIME
    assert i * i % DEFAULT_PRIME == Fp.coerce(-1)


@given(st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=40, deadline=None)
def test_prime_field_laws(a, b):
    # coercion is the ring map from the integers (and the rationals whose
    # denominators p does not divide) onto the residues
    F7 = GF(7)
    x, y = F7.coerce(a), F7.coerce(b)
    assert F7.coerce(a + b) == (x + y) % 7
    assert F7.coerce(a * b) == x * y % 7
    if y:
        assert F7.coerce(Fraction(a, b)) * y % 7 == x


def _is_residue(x, p):
    return type(x) is int and 0 <= x < p


@pytest.mark.parametrize("p", [7, DEFAULT_PRIME])
def test_prime_field_values_are_residues(p):
    F = GF(p)
    assert all(_is_residue(x, p) for x in (
        F.zero(), F.one(), F.coerce(-1), F.coerce(p + 3),
        F.coerce(Fraction(-2, 3))))
    m = Matrix([[1, -2, 3], [2, -4, 1]], field=F)
    assert all(_is_residue(x, p) for row in m.entries for x in row)
    _, _, rows = rref(m)
    r, kernel = rank_and_kernel(m)
    x = solve_linear(m, [-1, 5])
    product = m.mul(Matrix([[-1], [1], [-3]], field=F))
    assert r == 2 and len(kernel) == 1 and x is not None
    for vectors in (rows, kernel, [x], product.entries):
        assert all(_is_residue(v, p) for vec in vectors for v in vec)
    # three concurrent lines: the ideal is generated by e01 - e02 + e12
    ideal = Multivector(3, [(0b011, 1), (0b101, -1), (0b110, 1)])
    A, _ = reduce_algebra_mod(build_quotient_algebra(3, [ideal], 2), p)
    alpha = [F.coerce(c) for c in (1, -1, Fraction(2, 3))]
    d1 = A.class_mult_matrix(alpha, 1)
    assert d1.nrows and all(
        _is_residue(v, p) for row in d1.entries for v in row)
    coords = A.project(Multivector(3, [(0b101, 1), (0b110, -4)]))
    assert any(coords) and all(_is_residue(v, p) for v in coords)


# -- RREF, rank, kernels -----------------------------------------------------

def test_rank_identity_and_zero():
    assert rank([[1, 0], [0, 1]]) == 2
    r, kern = rank_and_kernel(Matrix([[0, 0, 0, 0]] * 3))
    assert r == 0 and len(kern) == 4


def test_rank_over_prime_field():
    F7 = GF(7)
    row = [[F7.coerce(1), F7.coerce(1), F7.coerce(1)]]
    r, kern = rank_and_kernel(Matrix(row, field=F7))
    assert r == 1 and len(kern) == 2


def test_solve_linear_examples():
    assert solve_linear(Matrix([[1, 0], [0, 1]]), [1, 2]) == \
        (Fraction(1), Fraction(2))
    assert solve_linear(Matrix([[1, 1]]), [0]) == (Fraction(0), Fraction(0))
    assert solve_linear(Matrix([[1, 1], [1, 1]]), [1, 2]) is None


def test_solution_actually_solves():
    m = Matrix([[2, 1, 0], [1, -1, 3]])
    x = solve_linear(m, [5, 1])
    assert x is not None
    for i in range(m.nrows):
        assert sum(m.entries[i][j] * x[j] for j in range(3)) == [5, 1][i]


def test_kernel_vectors_are_killed():
    m = Matrix([[1, 2, 3], [2, 4, 6]])
    r, kern = rank_and_kernel(m)
    assert r == 1 and len(kern) == 2
    for v in kern:
        for i in range(m.nrows):
            assert sum(m.entries[i][j] * v[j] for j in range(3)) == 0


matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    min_size=1, max_size=4)


@given(matrices)
@settings(max_examples=50, deadline=None)
def test_rank_equals_transpose_rank(rows):
    m = Matrix(rows)
    assert rank(m) == rank(m.transpose())


@given(matrices)
@settings(max_examples=50, deadline=None)
def test_rational_rank_bounds_modular_rank(rows):
    # specializing mod p can only lose rank, never gain it
    Fp = GF(DEFAULT_PRIME)
    modular = [[Fp.coerce(x) for x in row] for row in rows]
    assert rank(rows) >= rank(modular, Fp)


@given(matrices)
@settings(max_examples=50, deadline=None)
def test_bareiss_agrees_with_generic_elimination(rows):
    # the same matrix lifted as rationals (one image per prime) and as
    # Gaussian rationals with zero imaginary part (two images per prime)
    r_q, piv_q, rows_q = rref(rows, QQ)
    gauss = [[GaussianRational(x) for x in row] for row in rows]
    r_g, piv_g, rows_g = rref(gauss, QI)
    assert (r_q, piv_q) == (r_g, piv_g)
    for rq, rg in zip(rows_q, rows_g):
        assert all(GaussianRational(a) == b for a, b in zip(rq, rg))


# -- differential test against the reference elimination ---------------------
#
# `rref_oracle` keeps the field-arithmetic routines that `rref` replaced;
# the certified mod-p core must agree with them entry for entry, type
# included.

def assert_same_rref(rows, field):
    new = rref(rows, field)
    old = oracle_rref(rows, field)
    assert new[:2] == old[:2]
    assert len(new[2]) == len(old[2])
    for a, b in zip(new[2], old[2]):
        assert a == b
        assert [type(x) for x in a] == [type(x) for x in b]


def with_dependent_rows(draw, rows):
    """Append integer combinations of the drawn rows, so that rank drops
    and the reconstruction meets nontrivial RREF entries."""
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                               max_size=len(rows)))
        combo = [sum((c * r[j] for c, r in zip(coeffs, rows)), 0 * x)
                 for j, x in enumerate(rows[0])]
        rows = rows + [combo]
    return draw(st.permutations(rows))


@st.composite
def dependent_matrices(draw, entries):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    return with_dependent_rows(draw, rows)


small_q = st.fractions(min_value=-20, max_value=20, max_denominator=6)
large_q = st.fractions(min_value=-10**15, max_value=10**15,
                       max_denominator=10**9)
sparse_q = st.one_of(st.just(Fraction(0)), small_q)


@given(dependent_matrices(st.one_of(sparse_q, large_q)))
@settings(max_examples=150, deadline=None)
def test_rref_matches_oracle_over_rationals(rows):
    assert_same_rref(rows, QQ)


@given(dependent_matrices(st.builds(GaussianRational, sparse_q, sparse_q)),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_rref_matches_oracle_over_gaussian_rationals(rows, widen):
    if widen:  # large real and imaginary parts force CRT over several primes
        rows = [[x * GaussianRational(10**9 + 7, -(10**8 + 3)) / 11
                 for x in row] for row in rows]
    assert_same_rref(rows, QI)


@given(st.sampled_from([3, 5, 7, 13, 2147483647, DEFAULT_PRIME]),
       dependent_matrices(st.integers(-10**12, 10**12)))
@settings(max_examples=150, deadline=None)
def test_rref_matches_oracle_over_prime_fields(p, rows):
    F = GF(p)
    assert_same_rref([[F.coerce(x) for x in row] for row in rows], F)


def test_rref_entry_above_the_first_prime_bound_needs_crt():
    # 10**6/7 has a numerator above sqrt(p/2) for every lifting prime, so
    # no single image reconstructs it
    rows = [[7, 10**6]]
    assert rref(rows)[2] == [(Fraction(1), Fraction(10**6, 7))]
    assert_same_rref(rows, QQ)


@pytest.mark.parametrize("field", [QQ, QI], ids=str)
def test_rref_drops_the_image_of_an_unlucky_prime(field):
    # the determinant DEFAULT_PRIME vanishes mod the first lifting prime
    # (over QQ(i) under both square roots of -1)
    rows = [[field.coerce(x) for x in row]
            for row in [[1, 1], [1, 1 + DEFAULT_PRIME]]]
    assert rref(rows, field)[:2] == (2, (0, 1))
    assert_same_rref(rows, field)


def test_rref_drops_a_prime_unlucky_under_one_root_of_minus_one():
    # the determinant i - s vanishes under i -> s but not under i -> -s
    s = GF(DEFAULT_PRIME).sqrt_minus_one()
    one = GaussianRational(1)
    rows = [[one, one], [one, GaussianRational(1 - s, 1)]]
    assert rref(rows, QI)[:2] == (2, (0, 1))
    assert_same_rref(rows, QI)


def test_matrix_multiplication_and_shape_errors():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a.mul(b).entries == ((Fraction(2), Fraction(1)),
                                (Fraction(4), Fraction(3)))
    with pytest.raises(ValueError):
        a.mul(Matrix([[1, 2, 3]]))
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_immutability():
    m = Matrix([[1]])
    with pytest.raises(AttributeError):
        m.nrows = 2
    x = GaussianRational(1, 1)
    with pytest.raises(AttributeError):
        x.re = Fraction(2)
