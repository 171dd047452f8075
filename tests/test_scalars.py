"""Exact scalar and linear-algebra kernels."""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from jumploci import aomoto, scalars
from jumploci.aomoto import (AomotoComplex, isotropic_check,
                             log_resonance_membership, reduce_algebra_mod)
from jumploci.arrangement import Arrangement, os_algebra
from jumploci.errors import PreconditionError
from jumploci.exterior import build_quotient_algebra
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
    ideal = {0b011: 1, 0b101: -1, 0b110: 1}
    A, _ = reduce_algebra_mod(build_quotient_algebra(3, [ideal], 2), p)
    alpha = [F.coerce(c) for c in (1, -1, Fraction(2, 3))]
    d1 = A.class_mult_matrix(alpha, 1)
    assert d1.nrows and all(
        _is_residue(v, p) for row in d1.entries for v in row)
    # e0 e1 is nonzero in A^2: the witness of a product is residues
    rep = isotropic_check(A, [[1, 0, 0], [0, F.coerce(Fraction(1, 3)), 0]])
    coords = rep.witness[2]
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
    assert rank(m) == rank(Matrix(list(zip(*m.entries))))


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
    # the same matrix eliminated as rationals (one integer part) and as
    # Gaussian rationals with zero imaginary part (two integer parts)
    r_q, piv_q, rows_q = rref(rows, QQ)
    gauss = [[GaussianRational(x) for x in row] for row in rows]
    r_g, piv_g, rows_g = rref(gauss, QI)
    assert (r_q, piv_q) == (r_g, piv_g)
    for rq, rg in zip(rows_q, rows_g):
        assert all(GaussianRational(a) == b for a, b in zip(rq, rg))


# -- differential test against the reference elimination ---------------------
#
# `rref_oracle` keeps the field-arithmetic routines that `rref` replaced;
# the fraction-free integer core must agree with them entry for entry, type
# included.  Every value `rref`, `rank_and_kernel` and `solve_linear` read
# off the integer echelon is checked this way.

def assert_same_vectors(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a == b
        assert [type(x) for x in a] == [type(x) for x in b]


def assert_same_rref(rows, field):
    """rref, rank and rank_and_kernel of the rows, and solve_linear of the
    rows read as an augmented matrix [A | b], against the oracle RREF of the
    rows: the rank is its pivot count, kernels are built from its rows by
    definition, and the solution is its last column on the pivots, None
    when that column is a pivot."""
    new = rref(rows, field)
    old = oracle_rref(rows, field)
    assert new[:2] == old[:2]
    assert_same_vectors(new[2], old[2])
    # rank stops after the forward pass; its pivot columns are the RREF's
    assert rank(rows, field) == len(old[1])
    assert scalars._echelon(rows, len(rows[0]), field, read=False)[0] == old[1]

    _, pivots, echelon = old
    ncols = len(rows[0])
    kernel = []
    for f in range(ncols):
        if f not in pivots:
            v = [field.zero()] * ncols
            v[f] = field.one()
            for pc, row in zip(pivots, echelon):
                if row[f]:
                    v[pc] = field.coerce(-row[f])
            kernel.append(tuple(v))
    r, basis = rank_and_kernel(Matrix(rows, field=field))
    assert r == old[0]
    assert_same_vectors(basis, kernel)

    a = Matrix([row[:-1] for row in rows], field=field, ncols=ncols - 1)
    solution = solve_linear(a, [row[-1] for row in rows])
    if ncols - 1 in pivots:
        assert solution is None
    else:
        x = [field.zero()] * (ncols - 1)
        for pc, row in zip(pivots, echelon):
            x[pc] = row[-1]
        assert_same_vectors([solution], [tuple(x)])


def with_dependent_rows(draw, rows):
    """Append integer combinations of the drawn rows, so that rank drops
    and the echelon has nontrivial RREF entries."""
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


@given(st.one_of(
    dependent_matrices(st.builds(GaussianRational, sparse_q, sparse_q)),
    # zero imaginary part everywhere: eliminated on both parts, as a real
    # Q(i) matrix is outside `AomotoComplex`
    dependent_matrices(st.builds(GaussianRational, sparse_q))),
    st.booleans())
@settings(max_examples=150, deadline=None)
def test_rref_matches_oracle_over_gaussian_rationals(rows, widen):
    if widen:  # large real and imaginary parts make large minors
        real = not any(x.im for row in rows for x in row)
        scale = GaussianRational(10**9 + 7, 0 if real else -(10**8 + 3))
        rows = [[x * scale / 11 for x in row] for row in rows]
    assert_same_rref(rows, QI)


@given(st.sampled_from([3, 5, 7, 13, 2147483647, DEFAULT_PRIME]),
       dependent_matrices(st.integers(-10**12, 10**12)))
@settings(max_examples=150, deadline=None)
def test_rref_matches_oracle_over_prime_fields(p, rows):
    # `assert_same_rref` also compares `rank` and the forward pass alone
    # (`_echelon` with read False) with the oracle's pivots: over F_p they
    # run the shared core without its Gauss-Jordan read
    F = GF(p)
    assert_same_rref([[F.coerce(x) for x in row] for row in rows], F)


def test_rref_entry_above_the_first_prime_bound_needs_crt():
    # a regression input from lifting mod primes below 2**31: the numerator
    # of 10**6/7 lay above sqrt(p/2) for every one of them, so no single
    # image reconstructed it; the exact core divides by the pivot 7
    rows = [[7, 10**6]]
    assert rref(rows)[2] == [(Fraction(1), Fraction(10**6, 7))]
    assert_same_rref(rows, QQ)


@pytest.mark.parametrize("field", [QQ, QI], ids=str)
def test_rref_drops_the_image_of_an_unlucky_prime(field):
    # a regression input from lifting mod primes: the determinant
    # DEFAULT_PRIME vanished mod the first one (over QQ(i) under both square
    # roots of -1); the exact core sees the nonzero minor itself
    rows = [[field.coerce(x) for x in row]
            for row in [[1, 1], [1, 1 + DEFAULT_PRIME]]]
    assert rref(rows, field)[:2] == (2, (0, 1))
    assert_same_rref(rows, field)


def test_rref_drops_a_prime_unlucky_under_one_root_of_minus_one():
    # a regression input from lifting mod primes: the determinant i - s
    # vanished mod DEFAULT_PRIME under i -> s but not under i -> -s
    s = GF(DEFAULT_PRIME).sqrt_minus_one()
    one = GaussianRational(1)
    rows = [[one, one], [one, GaussianRational(1 - s, 1)]]
    assert rref(rows, QI)[:2] == (2, (0, 1))
    assert_same_rref(rows, QI)


def exact_combine(a, x, f, y, s, combine=scalars._combine):
    """`scalars._combine`, refusing a division that leaves a remainder: s
    divides every entry of a X - f Y, on both parts (z / s is a Gaussian
    integer exactly when |s|^2 divides both parts of z conj(s)).  The rows
    are sparse; over QQ the scalars and entries are integers, over QQ(i)
    (re, im) pairs."""
    def pair(v):
        return v if type(s) is tuple else (v, 0)
    (ar, ai), (fr, fi), (sr, si) = pair(a), pair(f), pair(s)
    n = sr * sr + si * si
    for j in x.keys() | y.keys():
        u, ui = pair(x[j]) if j in x else (0, 0)
        v, vi = pair(y[j]) if j in y else (0, 0)
        zr = ar * u - ai * ui - fr * v + fi * vi
        zi = ar * ui + ai * u - fr * vi - fi * v
        assert (zr * sr + zi * si) % n == 0 == (zi * sr - zr * si) % n, (
            a, f, s, zr, zi)
    return combine(a, x, f, y, s)


def test_lazy_row_is_brought_up_over_its_own_step():
    # the second row is written at step 1 (pivot 1 + i), keeps a zero in
    # the pivot columns of steps 2 and 3 (pivots (2 - i)(1 + i) = 3 + i and
    # (1 + i)(3 + i) = 2 + 4i), and is touched at step 4, where the last
    # row, sparser from column 3 on, is the pivot: its update divides by
    # d_1 = 1 + i, not by d_3
    i = GaussianRational(0, 1)
    rows = [[1 + i, 0, 0, 0, 1, 3],
            [1, 0, 0, 1, 2, -1],
            [0, 2 - i, 0, 0, 1, i],
            [0, 0, 1 + i, 0, 1, 2],
            [0, 0, 0, 1, 0, 1 + i]]
    rows = [[QI.coerce(x) for x in row] for row in rows]
    r, pivots, echelon = rref(rows, QI)
    assert (r, pivots) == (5, (0, 1, 2, 3, 4))
    # the forward pass alone makes the same update of the second row: each
    # of its divisions is exact
    with mock.patch.object(scalars, "_combine", exact_combine):
        assert rank(rows, QI) == 5
    assert [row[5] for row in echelon] == [
        2 - 3 * i, GaussianRational(Fraction(4, 5), Fraction(2, 5)),
        GaussianRational(Fraction(3, 2), Fraction(-5, 2)), 1 + i, -2 + i]
    assert_same_rref(rows, QI)


def test_forward_pass_divides_a_lazy_row_over_its_own_step():
    # the rank alone: the last row is not touched at step 1 (pivot 2) and
    # is updated at step 2 (pivot 1) over d_0 = 1; over d_1 = 2 its entry
    # 1 would floor to 0, and the rank would read 2
    rows = [[2, 1, 0], [-1, 0, -1], [0, 1, -1]]
    with mock.patch.object(scalars, "_combine", exact_combine):
        assert rank(rows) == 3
    assert_same_rref([[Fraction(x) for x in row] for row in rows], QQ)


def test_sparsest_candidate_is_the_pivot_row():
    # in column 0 the second row has fewer nonzeros than the first, so it
    # is the pivot row; the RREF is unique, so the rows are the same
    rows = [[1, 1, 1, 1], [2, 0, 0, 1]]
    assert rref(rows) == (2, (0, 1), [
        (1, 0, 0, Fraction(1, 2)), (0, 1, 1, Fraction(1, 2))])
    assert_same_rref([[Fraction(x) for x in row] for row in rows], QQ)
    assert_same_rref([[GaussianRational(x, x % 2) for x in row]
                      for row in rows], QI)
    # over F_7 the pivot 2 is made monic by its inverse 4 before the first
    # row is reduced by it
    assert rref(rows, GF(7)) == (2, (0, 1), [(1, 0, 0, 4), (0, 1, 1, 4)])
    assert_same_rref(rows, GF(7))


@given(st.one_of(
    dependent_matrices(st.one_of(sparse_q, large_q)).map(
        lambda rows: (rows, QQ)),
    dependent_matrices(st.builds(GaussianRational, sparse_q, sparse_q)).map(
        lambda rows: (rows, QI))))
@settings(max_examples=100, deadline=None)
def test_every_division_of_the_core_is_exact(case):
    rows, field = case
    with mock.patch.object(scalars, "_combine", exact_combine):
        assert_same_rref(rows, field)
        # the forward pass alone, as rank runs it, divides by the same d_s
        assert rank(rows, field) == len(oracle_rref(rows, field)[1])


# -- sparse integer blocks, handed to the core as the assembly writes them --

@st.composite
def sparse_blocks(draw):
    """(field, ncols, rows): sparse integer rows as `class_mult_parts`
    writes them, 5-30 % nonzero ((re, im) pairs over QQ(i), real ones
    included; over F_p any integers, negative, at least p or multiples of
    p among them, which the core reduces), with zero rows, and at times a
    nonzero in column 0 of every row and one dense row, so that the first
    steps fill the rows in.  The cells and values come from a drawn Random, so they
    spread over the whole block."""
    field = draw(st.sampled_from([QQ, QI, GF(7), GF(DEFAULT_PRIME)]))
    nrows, ncols = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    rng = draw(st.randoms(use_true_random=False))
    p = getattr(field, "p", None)
    real = draw(st.booleans())

    def value():
        if p:
            return rng.choice([rng.randrange(1, p), -rng.randrange(1, 3 * p),
                               rng.randrange(p, 3 * p),
                               p * rng.choice([-2, -1, 1, 2])])
        v = rng.choice([k for k in range(-40, 41) if k])
        if field is QI:
            return (v, 0) if real else rng.choice([(v, 0), (0, v), (v, v - 1)])
        return v
    density = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3]))
    size = max(1, round(density * nrows * ncols))
    rows = [{} for _ in range(nrows)]
    for cell in sorted(rng.sample(range(nrows * ncols), size)):
        rows[cell // ncols][cell % ncols] = value()
    if draw(st.booleans()):
        for row in rows:
            row.setdefault(0, value())
        rows[-1] = {j: value() for j in range(ncols)}
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), {})
    return field, ncols, rows


def field_value(field, v):
    """The field value of a sparse row's entry v (None for a zero); over
    F_p its residue, so the oracle ranks the reduced matrix."""
    if field is QQ:
        return Fraction(v or 0)
    if field is QI:
        return GaussianRational(*v) if v else GaussianRational(0)
    return (v or 0) % field.p


def leibniz(matrix):
    """The determinant of a square matrix by the Leibniz formula: a sum
    over permutations, signed by their inversions."""
    total = 0
    for perm in permutations(range(len(matrix))):
        term = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        for i, j in enumerate(perm):
            term = matrix[i][j] * term
        total = term + total
    return total


def eliminated_det(matrix):
    """The determinant of a square matrix of field values by Gaussian
    elimination in those values, a row swap flipping the sign."""
    m, det = [list(row) for row in matrix], 1
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det = m[c][c] * det
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
@example([[0, 1], [1, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
def test_det_is_the_leibniz_determinant(matrix):
    # a row swap, a singular matrix and a cyclic order of pivot rows
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    assert scalars._det(rows, len(matrix)) == leibniz(matrix)


@given(sparse_blocks(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_sparse_blocks_match_oracle(block, read):
    # the rows go straight into the core, not through `_clear_row`; the
    # core leaves them as they are, and its pivots (and, with read, its
    # RREF rows, read by `_read`) are the oracle's
    field, ncols, rows = block
    given_rows = [dict(row) for row in rows]
    dense = [[field_value(field, row.get(j)) for j in range(ncols)]
             for row in rows]
    _, pivots, want = oracle_rref(dense, field)
    got, free, echelon = scalars._rref_parts(rows, ncols, field, read)
    assert rows == given_rows
    assert got == pivots
    if not read:
        # the forward pass gives its final pivot, the minor on the pivot
        # rows in the order they were chosen and the pivot columns
        minor, order = free, echelon
        assert len(order) == len(set(order)) == len(got)
        if field is QQ or field is QI:
            square = [[dense[i][j] for j in got] for i in order]
            if field is QI:
                minor = GaussianRational(*minor)
            assert minor == eliminated_det(square)
        else:
            assert minor == 1  # pivot rows are made monic mod p
        return
    out = []
    for pc, (den, nums) in zip(got, echelon):
        row = [field.zero()] * ncols
        row[pc] = field.one()
        for f, x in zip(free, scalars._read(field, den, nums)):
            row[f] = x
        out.append(tuple(row))
    assert_same_vectors(out, want)


def test_mixed_rational_and_gaussian_entries_infer_qq_i():
    # one rule wherever the Gaussian entry stands: Matrix, rref and rank
    # agree, and F_p is never inferred
    half, i = Fraction(1, 2), GaussianRational(0, 1)
    for rows in ([[half, i]], [[i, half]], [[1, half], [i, 2]]):
        assert Matrix(rows).field is QI
        assert rref(rows) == rref(rows, QI) == rref(Matrix(rows))
        assert rank(rows) == rank(rows, QI)
    assert Matrix([[1, 2]]).field is QQ
    with pytest.raises(FieldMismatchError):
        rref([[half, 0.5]])


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


# -- one reader: values become integers only in `_clear_row` -----------------

def coerced_integral(field, vector):
    """The integer parts and scale of a vector by the earlier route, the
    oracle of the one reader: every entry coerced into the field first, then
    the coerced row cleared."""
    row = [field.coerce(a) for a in vector]
    if field is QI:
        halves = ([x.re.as_integer_ratio() for x in row],
                  [x.im.as_integer_ratio() for x in row])
    else:
        halves = ([x.as_integer_ratio() for x in row],)
    den = lcm(*(d for half in halves for _, d in half))
    return [[n * (den // d) for n, d in half] for half in halves], den


def outcome(f, *args):
    """f(*args), or the type and message of the error it raised."""
    try:
        return f(*args)
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return type(e), str(e)


gaussians = st.builds(GaussianRational, rationals, rationals)
values = st.one_of(st.integers(-50, 50), st.booleans(), rationals, gaussians)
refused = st.sampled_from([0.5, "1", None, 1j, GaussianRational(0, 1)])


@given(st.lists(values, max_size=8), st.sampled_from([QQ, QI]),
       st.none() | st.tuples(st.integers(0, 8), refused))
@example([], QQ, (0, GaussianRational(1)))
@example([1, Fraction(1, 2)], QI, (1, 1j))
@settings(max_examples=300, deadline=None)
def test_one_reader_matches_coerce_then_clear(vector, field, bad):
    # the reader refuses an entry outside the field with the bytes of
    # field.coerce: 0.5, "1", None and 1j anywhere, a Gaussian over QQ
    if bad is not None:
        k, x = bad
        vector = vector[:k] + [x] + vector[k:]
    got = outcome(scalars._integral, field, vector)
    want = outcome(coerced_integral, field, vector)
    assert got == want
    if isinstance(want[0], type):
        assert want[0] is FieldMismatchError
        assert want[1].startswith("cannot coerce ")
    else:
        assert all(type(n) is int for part in got[0] for n in part)


def test_log_resonance_clears_its_class_once(monkeypatch):
    concurrent3 = os_algebra(Arrangement(2, [[1, 0], [0, 1], [1, 1]]))
    calls, clear = [], aomoto._integral

    def counted(field, vector):
        calls.append(field)
        return clear(field, vector)
    monkeypatch.setattr(aomoto, "_integral", counted)
    for alpha, member in (([1, 1, -2], True), ([1, 1, 1], False),
                          ([0, 0, 0], False)):
        calls.clear()
        assert log_resonance_membership(concurrent3, alpha).member is member
        assert calls == [QQ]


def test_aomoto_complex_coerces_no_entry(monkeypatch):
    concurrent3 = os_algebra(Arrangement(2, [[1, 0], [0, 1], [1, 1]]))
    calls, coerce = [], scalars.RationalField.coerce

    def counted(self, x):
        calls.append(x)
        return coerce(self, x)
    monkeypatch.setattr(scalars.RationalField, "coerce", counted)
    assert QQ.coerce(2) == 2 and calls == [2]  # the count sees a coerce
    calls.clear()
    for alpha in ([1, -1, 0], [Fraction(1, 2), 3, Fraction(-5, 2)]):
        cx = AomotoComplex(concurrent3, alpha)
        assert cx.cohomology_dims() == ((0, 1, 1) if sum(alpha) == 0
                                        else (0, 0, 0))
    assert calls == []
