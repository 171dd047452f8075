"""Critical divisors of master functions, P^1 log divisors, local Koszul
cohomology, and boundary residues.

The bivariate counts are cross-checked against a Groebner-basis staircase
count of the saturated critical ideal (an elimination route fully
independent of the resultant solver), and whole reports against the
symbolic-expression route kept in `master_oracle`.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from jumploci import arrangement, master
from jumploci.aomoto import AomotoComplex
from jumploci.arrangement import Arrangement, os_algebra
from jumploci.errors import DegeneracyError, PreconditionError
from jumploci.master import (
    _PRIMES, _cleared_numerator, _divide_out, _factor, _punctures,
    _root_intervals, critical_points_bivariate, critical_points_univariate,
    local_koszul_univariate, log_zero_divisor_p1, residues_line_arrangement)
from jumploci.verify import BIVARIATE_CASES
from master_oracle import (
    oracle_critical_points_bivariate, oracle_critical_points_univariate,
    oracle_local_koszul_univariate, oracle_log_zero_divisor_p1)

FLAGSHIP = Arrangement(2, [[0, 1, 0], [0, 0, 1], [-1, 1, 1]])
FOURLINES = Arrangement(2, [[0, 1, 0], [0, 0, 1], [0, 1, -1], [-1, 1, 1]])
BOOLEAN = Arrangement(2, [[0, 1, 0], [0, 0, 1]])


def groebner_count(arr, lam):
    """Multiplicity count of critical points off the lines, via a
    Rabinowitsch saturation and the staircase of a Groebner basis."""
    x, y, t = sp.symbols("x y t")
    fs = [sp.Rational(c0) + sp.Rational(c1) * x + sp.Rational(c2) * y
          for c0, c1, c2 in arr.forms]
    prod = sp.prod(fs)
    parts = [sum(sp.Rational(l) * sp.diff(f, var) * (prod / f)
                 for l, f in zip(lam, fs)) for var in (x, y)]
    basis = sp.groebner(
        [sp.expand(parts[0]), sp.expand(parts[1]), 1 - t * prod],
        t, x, y, order="grevlex")
    lead = [tuple(sp.Poly(g, t, x, y).LM(order="grevlex").exponents)
            for g in basis.exprs]
    bound = []
    for i in range(3):
        pures = [e[i] for e in lead if all(e[j] == 0 for j in range(3) if j != i)]
        if not pures:
            return None  # positive-dimensional: no finite staircase
        bound.append(min(pures))
    count = 0
    for a in range(bound[0]):
        for b in range(bound[1]):
            for c in range(bound[2]):
                if not any(a >= e[0] and b >= e[1] and c >= e[2]
                           for e in lead):
                    count += 1
    return count


# -- univariate --------------------------------------------------------------

def test_two_points_equal_weights():
    rep = critical_points_univariate([0, 1], [1, 1])
    assert rep.total == 1 and rep.chi == -1 and rep.chi_matches
    (z,) = rep.zeros
    assert z.kind == "interior" and z.value == Fraction(1, 2)
    assert z.multiplicity == 1


def test_three_points_equal_weights():
    # numerator 3x^2 - 6x + 2: two simple irrational zeros
    rep = critical_points_univariate([0, 1, 2], [1, 1, 1])
    assert rep.total == 2 and rep.chi == -2 and rep.chi_matches
    for z in rep.zeros:
        assert z.minpoly == (3, -6, 2)
        assert z.interval is not None and z.multiplicity == 1
    assert _cleared_numerator(*_punctures([0, 1, 2], [1, 1, 1])) == [3, -6, 2]


def test_zero_weight_sum_pushes_zero_to_boundary():
    rep = critical_points_univariate([0, 1], [1, -1])
    assert rep.total == 0 and not rep.chi_matches


def test_numerator_degree():
    # with nonzero weight sum the numerator has degree d - 1
    n = _cleared_numerator(*_punctures([0, 1, 2, 5], [1, 2, 3, 4]))
    assert len(n) == 4  # leading zeros are dropped


def test_univariate_input_validation():
    with pytest.raises(PreconditionError, match="distinct"):
        critical_points_univariate([0, 1, 1], [1, 1, 1])
    with pytest.raises(PreconditionError, match="zero"):
        critical_points_univariate([0, 1], [0, 0])
    with pytest.raises(PreconditionError):
        critical_points_univariate([0, 1], [1])  # wrong weight count


@pytest.mark.parametrize("bad, shown", [
    (0.1, "0.1"), (True, "True"), ("1/3", "'1/3'"), (sp.Rational(1, 3), "1/3")])
@pytest.mark.parametrize("fn", [
    critical_points_univariate, log_zero_divisor_p1, local_koszul_univariate])
def test_points_must_be_rational(fn, bad, shown):
    # refused as the weights are, not converted: Fraction(0.1) would be
    # 3602879701896397/36028797018963968, and True or "1/3" a silent 1, 1/3
    with pytest.raises(PreconditionError,
                       match=rf"^point 1 must be rational, got {shown}$"):
        fn([0, bad, 2], [1, 1, 1])


def test_log_divisor_boundary_zero():
    rep = log_zero_divisor_p1([0, 1], [1, -1])
    assert rep.total == 1 and rep.divisor_size == 3
    (z,) = rep.zeros
    assert z.kind == "infinity" and z.multiplicity == 1
    assert rep.notes  # the residue at infinity vanished


def test_log_divisor_interior_case():
    rep = log_zero_divisor_p1([0, 1, 2], [1, 1, 1])
    assert rep.total == 2 and rep.divisor_size == 4
    assert all(z.kind == "interior" for z in rep.zeros)
    interior = critical_points_univariate([0, 1, 2], [1, 1, 1])
    assert sorted(z.minpoly for z in rep.zeros) == \
        sorted(z.minpoly for z in interior.zeros)


def test_log_divisor_single_puncture():
    rep = log_zero_divisor_p1([0], [1])
    assert rep.total == 0 and rep.divisor_size == 2 and not rep.zeros


def test_log_divisor_degree_is_weight_independent():
    for lam in ([1, 1, 1], [1, -1, 3], [2, -1, -1], [Fraction(1, 2), 5, 7]):
        rep = log_zero_divisor_p1([0, 1, 4], lam)
        assert rep.total == 2  # |D| - 2 with D = 3 punctures + infinity


def test_scaling_leaves_divisor_unchanged():
    base = critical_points_univariate([0, 1, 3], [1, 2, 3])
    for c in (2, -1, Fraction(5, 7)):
        scaled = critical_points_univariate([0, 1, 3], [c * l for l in (1, 2, 3)])
        assert [(z.value, z.minpoly, z.multiplicity) for z in scaled.zeros] \
            == [(z.value, z.minpoly, z.multiplicity) for z in base.zeros]


# -- local Koszul ------------------------------------------------------------

def test_koszul_crafted_double_zero():
    reports = local_koszul_univariate([0, 1, 2], [24, -27, 6])
    (k,) = reports
    assert k.zero.kind == "interior" and k.zero.value == Fraction(4)
    assert k.zero.multiplicity == 2
    assert k.h0 == 0 and k.h1 == 2


def test_koszul_fractional_weights():
    reports = local_koszul_univariate(
        [Fraction(3), Fraction(0)], [Fraction(3, 2), Fraction(3, 2)])
    (k,) = reports
    assert k.zero.value == Fraction(3, 2) and k.zero.multiplicity == 1
    assert k.h0 == 0 and k.h1 == 1


def test_koszul_matches_multiplicity_everywhere():
    for pts, lam in ([(0, 1, 2), (1, 1, 1)], [(0, 2, 5), (3, -1, 4)],
                     [(0, 1), (1, -1)]):
        for k in local_koszul_univariate(list(pts), list(lam)):
            assert k.h0 == 0
            assert k.h1 == k.zero.multiplicity


# -- bivariate ---------------------------------------------------------------

def test_flagship_critical_point():
    rep = critical_points_bivariate(FLAGSHIP, [1, 1, 1])
    assert rep.total == 1 and rep.chi == 1 and rep.chi_matches
    (z,) = rep.zeros
    assert z.value == (Fraction(1, 3), Fraction(1, 3))
    assert z.multiplicity == 1


def test_boolean_has_no_critical_points():
    rep = critical_points_bivariate(BOOLEAN, [2, 3])
    assert rep.total == 0 and rep.chi == 0 and rep.chi_matches


def test_four_lines_count():
    rep = critical_points_bivariate(FOURLINES, [1, 2, 3, 5])
    assert rep.total == 2 and rep.chi == 2 and rep.chi_matches
    for z in rep.zeros:
        assert z.minpoly == (121, 11, -18)


def test_groebner_staircase_agrees():
    cases = [(FLAGSHIP, [1, 1, 1]), (FOURLINES, [1, 2, 3, 5]),
             (BOOLEAN, [2, 3]), (FOURLINES, [3, 1, 1, 2])]
    for arr, lam in cases:
        rep = critical_points_bivariate(arr, lam)
        assert rep.total == groebner_count(arr, lam), lam


def test_bivariate_scaling_invariance():
    base = critical_points_bivariate(FOURLINES, [1, 2, 3, 5])
    scaled = critical_points_bivariate(FOURLINES, [3, 6, 9, 15])
    assert base.total == scaled.total
    assert sorted(z.minpoly for z in base.zeros) == \
        sorted(z.minpoly for z in scaled.zeros)


def test_degenerate_weights_refused():
    # three concurrent lines with weights summing to zero at the common
    # point: the critical set is positive-dimensional and no count exists
    concurrent = Arrangement(2, [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(DegeneracyError):
        critical_points_bivariate(concurrent, [1, 1, -2])


def test_non_essential_arrangement_refused():
    with pytest.raises(PreconditionError):
        critical_points_bivariate(
            Arrangement(2, [[0, 1, 0], [-1, 1, 0]]), [1, 1])


# -- the length identity against Aomoto cohomology and boundary residues ----

# braid A3 deconed: x, y, x - y, x - 1, y - 1, with chi = 2
DECONED_A3 = Arrangement(2, [[0, 1, 0], [0, 0, 1], [0, 1, -1], [-1, 1, 0],
                             [-1, 0, 1]])
GRID = Arrangement(2, [[0, 1, 0], [-1, 1, 0], [0, 0, 1], [-1, 0, 1]])


def aomoto_dims(arr, lam):
    return AomotoComplex(os_algebra(arr), lam).cohomology_dims()


def projective_zero_residues(arr, lam):
    """The boundary components of residue 0 of the projective closure:
    the cone over `arr` with the line at infinity z = 0 of weight
    -sum lambda."""
    cone = Arrangement(3, [[c1, c2, c0] for c0, c1, c2 in arr.forms]
                       + [[0, 0, 1]], central=True)
    return residues_line_arrangement(
        cone, list(lam) + [-sum(lam)]).zero_components


@pytest.mark.parametrize("lam", [
    (1, 1, -2, 1, 1), (1, -2, 1, -2, 1), (-1, -1, 2, -1, -1),
    (-1, 2, -1, 2, -1), (2, -1, -1, -1, 2), (-2, 1, 1, 1, -2)])
def test_resonant_weights_are_refused(lam):
    # a resonant alpha is pulled back along a pencil, so Z(alpha) contains
    # a fiber and has no finite length to certify
    assert aomoto_dims(DECONED_A3, lam)[1] == 1
    with pytest.raises(DegeneracyError):
        critical_points_bivariate(DECONED_A3, lam)


def test_weights_without_zero_residues_are_certified():
    rng = random.Random(0)
    certified = 0
    while certified < 5:
        lam = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(5)]
        if projective_zero_residues(DECONED_A3, lam):
            continue
        assert aomoto_dims(DECONED_A3, lam) == (0, 0, 2), lam
        rep = critical_points_bivariate(DECONED_A3, lam)
        assert rep.total == 2 and len(rep.zeros) == 2, lam
        assert all(z.multiplicity == 1 for z in rep.zeros)
        certified += 1


def test_zero_on_the_line_at_infinity_is_refused():
    # the classes {x, x - 1} and {y, y - 1} both have weight sum 0, so
    # alpha vanishes on the line at infinity; Aomoto cohomology cannot see it
    assert aomoto_dims(GRID, [1, -1, 1, -1]) == (0, 0, 1)
    with pytest.raises(DegeneracyError, match="line at infinity"):
        critical_points_bivariate(GRID, [1, -1, 1, -1])


def test_zero_weight_sum_with_nonzero_class_sums_is_certified():
    # sum lambda = 0, but after the two points at infinity are blown up
    # the line at infinity meets only their exceptional curves, of
    # residues 2 and -2
    rep = critical_points_bivariate(GRID, [1, 1, -1, -1])
    assert rep.total == 1 and rep.chi == 1
    (z,) = rep.zeros
    assert z.value == (Fraction(1, 2), Fraction(1, 2))
    assert z.multiplicity == 1


# -- against the symbolic-expression route -----------------------------------

def outcome(fn, *args, **kwargs):
    """The report, or the type and message of the input error raised."""
    try:
        return fn(*args, **kwargs)
    except (DegeneracyError, PreconditionError) as exc:
        return type(exc), str(exc)


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def punctured_lines(draw):
    """Distinct rational punctures with mixed-sign rational weights; a zero
    weight puts a zero at its puncture, and half the cases have
    sum lambda = 0, which puts one at infinity."""
    d = draw(st.integers(1, 6))
    points = draw(st.lists(small_rationals, min_size=d, max_size=d,
                           unique=True))
    lam = draw(st.lists(st.one_of(st.just(Fraction(0)), small_rationals),
                        min_size=d, max_size=d))
    if d > 1 and draw(st.booleans()):
        lam[-1] = -sum(lam[:-1])
    return points, lam


UNIVARIATE_ROUTES = [
    (critical_points_univariate, oracle_critical_points_univariate),
    (log_zero_divisor_p1, oracle_log_zero_divisor_p1),
    (local_koszul_univariate, oracle_local_koszul_univariate),
]


@given(punctured_lines())
@settings(max_examples=100, deadline=None)
def test_univariate_reports_match_the_expression_route(case):
    points, lam = case
    for fn, oracle in UNIVARIATE_ROUTES:
        assert outcome(fn, points, lam) == outcome(oracle, points, lam)


# N(z) is a multiple of (z^2 - 2)^2: one irreducible factor, twice
SQUARED_QUADRATIC = ([0, 1, -1, 3, -3], [Fraction(4, 9), Fraction(-1, 16),
                                         Fraction(-1, 16), Fraction(49, 144),
                                         Fraction(49, 144)])


@pytest.mark.parametrize("points, lam", [
    ([0, 1, 2], [24, -27, 6]),                          # double interior zero
    ([0, Fraction(1, 3), -2, 5], [1, -3, Fraction(2, 7), 2]),
    ([0, 1, 2, 3], [1, -1, 1, -1]),                     # sum 0
    ([0, 1, 2], [1, 0, -1]),                            # zero at a puncture
    ([1, 2, 3, 4, 5], [1, 1, -5, 1, 1]),
    SQUARED_QUADRATIC,                                  # N ~ (z^2 - 2)^2
])
def test_univariate_hand_cases_match_the_expression_route(points, lam):
    for fn, oracle in UNIVARIATE_ROUTES:
        assert outcome(fn, points, lam) == outcome(oracle, points, lam)


def test_repeated_irreducible_factor_has_order_two_at_both_roots():
    reports = local_koszul_univariate(*SQUARED_QUADRATIC)
    assert len(reports) == 2
    for k in reports:
        assert k.zero.minpoly == (1, 0, -2) and k.zero.multiplicity == 2
        assert k.h0 == 0 and k.h1 == 2


def test_one_univariate_triple_factors_once(monkeypatch):
    # every factorization goes through master._factor, which calls sympy's
    # factor_list only when no certificate proves the numerator irreducible
    calls = []
    factor = master._factor

    def counted(coeffs):
        calls.append(coeffs)
        return factor(coeffs)

    monkeypatch.setattr(master, "_factor", counted)
    master._log_divisor.cache_clear()  # an earlier test may hold this one
    points, lam = [0, 1, 2, 3, 5], [1, 2, 3, 4, 5]
    critical_points_univariate(points, lam)
    log_zero_divisor_p1(points, lam)
    local_koszul_univariate(points, lam)
    assert len(calls) == 1


def test_the_memo_serves_no_stale_report():
    # B has A's points: the weights are part of the key
    a = ([0, 1, 2, 3, 5], [1, 2, 3, 4, 5])
    b = ([0, 1, 2, 3, 5], [2, -1, 5, 1, -7])
    assert log_zero_divisor_p1(*a) != log_zero_divisor_p1(*b)
    for points, lam in (a, b, a):
        for fn, oracle in UNIVARIATE_ROUTES:
            assert fn(points, lam) == oracle(points, lam)


line_coefficients = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-7, 7),
                                  st.integers(1, 5)))
nonzero_weights = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                            st.integers(1, 3))


@st.composite
def weighted_line_arrangements(draw):
    d = draw(st.integers(3, 5))
    forms = draw(st.lists(st.tuples(line_coefficients, line_coefficients,
                                    line_coefficients),
                          min_size=d, max_size=d))
    try:
        arr = Arrangement(2, [list(f) for f in forms])
    except PreconditionError:  # a zero linear part or a repeated line
        assume(False)
    assume(arr.rank() == 2)
    lam = draw(st.lists(nonzero_weights, min_size=d, max_size=d))
    return arr, lam


@given(weighted_line_arrangements(), st.integers(0, 3))
@settings(max_examples=6, deadline=None)
def test_bivariate_reports_match_the_expression_route(case, seed):
    arr, lam = case
    got = outcome(critical_points_bivariate, arr, lam, seed=seed)
    assert got == outcome(oracle_critical_points_bivariate, arr, lam, seed=seed)
    assert got == outcome(critical_points_bivariate, arr, lam, seed=0)


@pytest.mark.parametrize("name, forms", BIVARIATE_CASES)
def test_bivariate_reports_build_no_os_algebra(monkeypatch, name, forms):
    # chi(M) is read off line_points, so no Orlik-Solomon algebra is built
    arr = Arrangement(2, forms)
    d = arr.size
    weights = [list(range(1, d + 1)), [2, -1, 3, 5, -7][:d],
               [1] * (d - 1) + [1 - d]]
    want = [outcome(oracle_critical_points_bivariate, arr, lam)
            for lam in weights]

    def refuse(*args, **kwargs):
        raise AssertionError("an OS algebra was built")

    monkeypatch.setattr(arrangement, "os_algebra", refuse)
    assert [outcome(critical_points_bivariate, arr, lam)
            for lam in weights] == want


TRIPLE_POINT = Arrangement(2, [[0, 1, 0], [0, 0, 1], [0, 1, 1], [-1, 1, 2]])


@pytest.mark.parametrize("arr, lam", [
    (FOURLINES, [1, 2, 3, 5]),
    # three lines through the origin: its valuation is divided out
    (TRIPLE_POINT, [1, 2, 2, 3]),
    (TRIPLE_POINT, [Fraction(1, 2), -3, Fraction(5, 3), 2]),
    (Arrangement(2, [[0, 1, 0], [0, 0, 1], [-1, 1, 1],
                     [Fraction(1, 2), Fraction(-1, 3), 1],
                     [2, 1, Fraction(5, 3)]]),
     [1, Fraction(2, 3), -3, 5, Fraction(7, 2)]),
    # weights summing to zero at the common point of concurrent lines
    (Arrangement(2, [[1, 0], [0, 1], [1, 1]]), [1, 1, -2]),
])
def test_bivariate_hand_cases_match_the_expression_route(arr, lam):
    got = outcome(critical_points_bivariate, arr, lam)
    assert got == outcome(oracle_critical_points_bivariate, arr, lam)
    if arr.size == 3:
        assert got == (DegeneracyError,
                       "resultant vanishes identically: the critical set is "
                       "not isolated for these weights")


# -- real-root shortcut ------------------------------------------------------

@pytest.mark.parametrize("coeffs", [
    [3, -6, 2],            # all roots real
    [1, 0, -3, 1],         # three real roots
    [1, 0, -5, 0, 5],      # four real roots
    [1, 0, 0, -2],         # one real root, two non-real
    [1, -1, -1, 1, -1],    # two real roots, two non-real
    [1, 0, 1],             # no real roots
    [1, 0, 0, 0, 1],       # no real roots
])
def test_real_root_shortcut_is_all_intervals(coeffs):
    f = sp.Poly(coeffs, sp.Symbol("x"), domain="ZZ")
    assert f.is_irreducible
    assert _root_intervals(f) == f.intervals(all=True)


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=7))
@settings(max_examples=60, deadline=None)
def test_real_root_shortcut_on_irreducible_factors(coeffs):
    f = sp.Poly(coeffs, sp.Symbol("x"), domain="ZZ")
    assume(f.degree() >= 2)
    for g, _m in f.factor_list()[1]:
        if g.degree() >= 2:
            assert _root_intervals(g) == g.intervals(all=True)


# -- certified factoring -----------------------------------------------------

def sympy_factors(coeffs):
    f = sp.Poly(coeffs, sp.Symbol("x"), domain="ZZ")
    return [(tuple(int(c) for c in g.all_coeffs()), m)
            for g, m in f.factor_list()[1]]


def times(f, g):
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] += a * b
    return prod


def squarefree(coeffs):
    f = sp.Poly(coeffs, sp.Symbol("x"), domain="ZZ")
    return sp.gcd(f, f.diff()).degree() == 0


LC_OF_EVERY_PRIME = math.prod(_PRIMES)


@pytest.mark.parametrize("coeffs, certified", [
    ([1, 0, -10, 0, 1], False),       # irreducible, split mod every p
    ([1, 0, -5, 0, 6], False),        # (x^2 - 2)(x^2 - 3)
    ([1, 0, -4, 0, 4], False),        # (x^2 - 2)^2
    (times([1, 3, 3, 1], [1, 0, 1]), False),  # (x + 1)^3 (x^2 + 1)
    ([4, 0, -8], True),               # 4 (x^2 - 2): content, not a square
    ([-6, 0, -6, -6], True),          # -6 (x^3 + x + 1)
    ([105, 0, 1, 1], True),           # 3, 5 and 7 divide the lead
    ([3 * 5 * 7 * 11, 2, 0, 0, 1], True),
    ([LC_OF_EVERY_PRIME, 0, 0, 1, 1], False),  # no sieve prime is left
    ([5, -20, 20, -3], True),
    ([7], False), ([-3], False),      # degree 0: no factors
    ([4, -6], True), ([-4, 6], True),  # degree 1: 2x - 3
    ([1] + [0] * 8 + [1, 1], True),   # degree 10: x^10 + x + 1
    ([1] + [0] * 9 + [-2], True),     # degree 10: x^10 - 2
    (times([1, 0, 0, 1, 1], [1, 1, 0, 0, 0, 0, 1]), False),
])
def test_factor_is_sympys_factor_list(monkeypatch, coeffs, certified):
    # a certified or constant polynomial makes no factor_list call, any
    # other exactly one
    want = sympy_factors(coeffs)
    calls = []
    factor_list = sp.Poly.factor_list

    def counted(self, *args, **kwargs):
        calls.append(self)
        return factor_list(self, *args, **kwargs)

    monkeypatch.setattr(sp.Poly, "factor_list", counted)
    assert _factor(coeffs) == want
    assert len(calls) == (0 if certified or len(coeffs) < 2 else 1)


@st.composite
def integer_polynomials(draw):
    """Random integer polynomials of degree 0..10, and products of small
    factors with repeats, a content and a sign."""
    lead = st.integers(-30, 30).filter(bool)
    if draw(st.booleans()):
        n = draw(st.integers(0, 10))
        return [draw(lead)] + draw(st.lists(st.integers(-50, 50),
                                            min_size=n, max_size=n))
    f = [draw(st.sampled_from([-6, -2, -1, 1, 3, 35]))]
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 3))
        g = [draw(lead)] + draw(st.lists(st.integers(-5, 5), min_size=n,
                                         max_size=n))
        for _ in range(draw(st.integers(1, 3))):
            f = times(f, g)
    return f


@given(integer_polynomials())
@settings(max_examples=150, deadline=None)
def test_factor_matches_factor_list(coeffs):
    assert _factor(coeffs) == sympy_factors(coeffs)
    if len(coeffs) > 1 and not squarefree(coeffs):
        # no prime of the sieve can prove a square-free reduction
        assert next(master._sieve(coeffs), None) is None
        assert not master._squarefree(coeffs)


# -- exact division in ZZ[z] -------------------------------------------------

@given(st.lists(st.integers(-5, 5), min_size=2, max_size=4),
       st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_divide_out_is_the_exponent_of_a_primitive_divisor(g, q, m):
    x = sp.Symbol("x")
    g = sp.Poly(g, x, domain="ZZ").primitive()[1]
    q = sp.Poly(q, x, domain="ZZ")
    assume(g.degree() >= 1 and not q.is_zero)
    n = g ** m * q
    order, rest = _divide_out([int(c) for c in n.all_coeffs()],
                              [int(c) for c in g.all_coeffs()])
    assert order >= m
    assert g ** order * sp.Poly(rest, x, domain="ZZ") == n
    assert not sp.Poly(rest, x, domain="QQ").rem(g.set_domain("QQ")).is_zero


# -- residues ----------------------------------------------------------------

def test_residues_concurrent_triple():
    cen = Arrangement(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]], central=True)
    table = residues_line_arrangement(cen, [1, 1, -2])
    assert table.lines == ((0, Fraction(1)), (1, Fraction(1)),
                           (2, Fraction(-2)))
    (pt,) = table.points
    assert pt.lines == (0, 1, 2) and pt.residue == 0
    assert ("point", (0, 1, 2)) in table.zero_components


def test_residue_along_exceptional_matches_blowup_chart():
    # pull back along (x, y) -> (u, uv) and read off the du/u coefficient
    cen = Arrangement(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]], central=True)
    lam = [Fraction(3), Fraction(-1), Fraction(-2)]
    table = residues_line_arrangement(cen, lam)
    u, v = sp.symbols("u v")
    pulled = [u, u * v, u + u * v]  # x, y, x + y on the blow-up chart
    alpha_du = sum(sp.Rational(l) * sp.diff(f, u) / f
                   for l, f in zip(lam, pulled))
    residue = sp.simplify(alpha_du * u).subs(u, 0)
    assert Fraction(int(sp.nsimplify(residue))) == table.points[0].residue


def test_residues_generic_position():
    triangle = Arrangement(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], central=True)
    table = residues_line_arrangement(triangle, [1, 1, -2])
    assert table.points == ()
    assert table.lines == ((0, Fraction(1)), (1, Fraction(1)),
                           (2, Fraction(-2)))
    assert table.zero_components == ()


def test_residues_require_zero_weight_sum():
    cen = Arrangement(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]], central=True)
    with pytest.raises(PreconditionError, match="sum"):
        residues_line_arrangement(cen, [1, 1, 1])
    with pytest.raises(PreconditionError):
        residues_line_arrangement(FLAGSHIP, [1, -1, 0])  # not central in C^3


def test_residues_scale_linearly():
    cen = Arrangement(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0]],
                      central=True)
    lam = [1, 1, 1, -3]
    base = residues_line_arrangement(cen, lam)
    doubled = residues_line_arrangement(cen, [2 * l for l in lam])
    for (j, r), (j2, r2) in zip(base.lines, doubled.lines):
        assert j == j2 and r2 == 2 * r
    for p, p2 in zip(base.points, doubled.points):
        assert p.lines == p2.lines and p2.residue == 2 * p.residue
