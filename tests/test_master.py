"""Critical divisors of master functions, P^1 log divisors, local Koszul
cohomology, and boundary residues.

The bivariate counts are cross-checked against a Groebner-basis staircase
count of the saturated critical ideal (an elimination route fully
independent of the resultant solver), and whole reports against the
symbolic-expression route kept in `master_oracle`.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings, strategies as st
from sympy.polys.rootisolation import dup_isolate_real_roots_sqf

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
    _infinity_valuation, oracle_critical_points_bivariate,
    oracle_critical_points_univariate, oracle_local_koszul_univariate,
    oracle_log_zero_divisor_p1)

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


@given(punctured_lines())
@settings(max_examples=100, deadline=None)
@example(([0, 1, 2], [1, 1, -2]))                     # sum 0: N loses its lead
@example(([0, 1, 2, 3], [1, -1, 1, -1]))              # and more
@example(([0, 1, 3], [0, 1, 2]))                      # N(0) = 0
@example(([0, Fraction(1, 2), -3], [0, 3, -3]))       # both
@example(([Fraction(2, 3)], [Fraction(-5, 7)]))       # d = 1: N constant
def test_n_tilde_is_n_read_backwards(case):
    # w^(d-1) N(1/w) = N~(w); the oracle builds N~ from its definition
    points, lam = case
    assume(any(lam))
    _report, n, tilde = master._log_divisor(*_punctures(points, lam))
    vinf, want = _infinity_valuation([Fraction(c) for c in points],
                                     [Fraction(v) for v in lam])
    assert sp.Poly(tilde, want.gen, domain="QQ").monic() == want.monic()
    assert next(i for i, c in enumerate(reversed(tilde)) if c) == vinf
    assert len(n) + vinf == len(points)  # N's leading zeros, N~'s trailing


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

    def counted(coeffs, *rest):
        calls.append(coeffs)
        return factor(coeffs, *rest)

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


@st.composite
def resultant_pairs(draw):
    """Two bivariate integer polynomials {(deg_y, deg_x): c} with constant
    leading y-coefficients, of degree 0..3 in y and in x; at times P is
    zero, or Q is a multiple of P, whose resultant is zero when P is not
    constant in y."""
    def poly():
        dy, dx = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        h = {(dy, 0): draw(st.integers(-5, 5).filter(bool))}
        for i in range(dy):
            for e in range(dx + 1):
                if c := draw(st.integers(-6, 6)):
                    h[i, e] = c
        return h
    p, q = poly(), poly()
    kind = draw(st.sampled_from(["pair", "pair", "zero", "multiple"]))
    if kind == "zero":
        p = {}
    elif kind == "multiple":
        q = {key: -2 * c for key, c in p.items()}
    return p, q


@given(resultant_pairs())
@settings(max_examples=150, deadline=None)
@example(({(0, 0): 3}, {(0, 0): 5}))  # deg_y 0 and 0: the empty matrix
@example(({(1, 0): 5, (0, 0): -4}, {(3, 0): 3, (1, 0): 4, (0, 0): -5}))
@example(({(1, 0): 2, (0, 2): 1}, {(1, 0): -4, (0, 2): -2}))  # Res = 0
def test_resultant_is_sympys(pq):
    # the evaluated Sylvester determinants, interpolated, are sympy's
    # resultant, in its operand order when deg_y P < deg_y Q
    p, q = pq
    y, x = sp.symbols("y x")
    want = sp.resultant(*(sp.Poly.from_dict(h, y, x, domain="ZZ")
                          for h in (p, q)))
    assert master._resultant(p, q) == (
        [] if want.is_zero else [int(c) for c in want.all_coeffs()])


def test_interpolation_refuses_values_of_no_integer_polynomial():
    assert master._interpolate([0, 1, 4, 9], -1) == [1, 2, 1]  # (x + 1)^2
    with pytest.raises(AssertionError, match="not those of an integer"):
        master._interpolate([0, 0, 1], 0)  # x (x - 1) / 2


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


_PLANS_SCRIPT = """
import sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from inputs import master_plan
from jumploci import master
from jumploci.io import parse_arrangement

for seed in (0, 7, 22):
    plan = master_plan(seed)
    for b in plan["bivariate"]:
        arr = parse_arrangement(b["arrangement"])
        lam = [Fraction(w) for w in b["weights"]]
        assert master.critical_points_bivariate(arr, lam).chi_matches
    for u in plan["univariate"]:
        pts = [Fraction(p) for p in u["points"]]
        lam = [Fraction(w) for w in u["weights"]]
        master.critical_points_univariate(pts, lam)
        master.log_zero_divisor_p1(pts, lam)
        master.local_koszul_univariate(pts, lam)
assert "sympy" not in sys.modules, "the master plans loaded sympy"
"""


def test_the_master_plans_never_import_sympy():
    # a fresh interpreter, since this one has imported sympy: the
    # benchmark's master plans of seeds 0, 7 and 22 (positive weights, so
    # every critical point is real) run on integers the package owns, the
    # resultants, the back-substitution gcds and every factorization
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PLANS_SCRIPT, os.path.join(root, "bench")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# -- real-root shortcut ------------------------------------------------------

def sympy_root_intervals(f):
    """`f.intervals(all=True)` for a sympy Poly f, in the form that
    `_root_intervals` returns it."""
    def frac(r):
        return Fraction(int(r.p), int(r.q))

    real, complexes = f.intervals(all=True)
    boxes = []
    for (a, b), _m in complexes:
        (ar, ai), (br, bi) = a.as_real_imag(), b.as_real_imag()
        boxes.append(((frac(ar), frac(br)), (frac(ai), frac(bi))))
    return [(frac(lo), frac(hi)) for (lo, hi), _m in real], boxes


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
    assert _root_intervals(tuple(coeffs)) == sympy_root_intervals(f)


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=7))
@settings(max_examples=60, deadline=None)
def test_real_root_shortcut_on_irreducible_factors(coeffs):
    f = sp.Poly(coeffs, sp.Symbol("x"), domain="ZZ")
    assume(f.degree() >= 2)
    for g, _m in f.factor_list()[1]:
        if g.degree() >= 2:
            got = _root_intervals(tuple(int(c) for c in g.all_coeffs()))
            assert got == sympy_root_intervals(g)


# -- the port of sympy's real root isolation ---------------------------------

def sympy_real_intervals(coeffs):
    intervals = dup_isolate_real_roots_sqf([int(c) for c in coeffs], sp.ZZ)
    return [(Fraction(int(s.numerator), int(s.denominator)),
             Fraction(int(t.numerator), int(t.denominator)))
            for s, t in intervals]


def square_free(coeffs):
    f = sp.Poly(coeffs, sp.Symbol("x"), domain="ZZ")
    return f.degree() >= 1 and sp.gcd(f, f.diff()).degree() == 0


def inverted(coeffs):
    """x^n f(1/x - 1) for f of degree n: the roots r of f become
    1/(r + 1), and f is the polynomial that the first bisection at 1
    hands on."""
    f = sp.Poly(coeffs, sp.Symbol("x"), domain="ZZ")
    return [int(c) for c in reversed(f.shift(-1).all_coeffs())]


# sympy's LMQ logarithm, int(math.log(x, 2)), reads k for x = 2^k - 1 from
# k = 48 on, where x.bit_length() - 1 reads k - 1
LOG_SPLIT = [2**k - 1 for k in (49, 53, 60)]


@st.composite
def integer_polynomials(draw):
    """Integer polynomials of degree 1-10, coefficients up to 10, 10^6 or
    10^15; some with a constant term +-(2^k - 1), k >= 49, as drawn or
    inverted, and some with roots forced at 0 or at small rationals."""
    bound = draw(st.sampled_from([10, 10**6, 10**15]))
    coeffs = draw(st.lists(st.integers(-bound, bound), min_size=2,
                           max_size=11))
    if draw(st.booleans()):
        coeffs[-1] = draw(st.sampled_from([1, -1])) * (2**draw(
            st.integers(49, 64)) - 1)
        if coeffs[0] and draw(st.booleans()):
            coeffs = inverted(coeffs)
    for root in draw(st.lists(st.sampled_from(
            [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
             Fraction(-2, 3), Fraction(3, 2), Fraction(-5)]), max_size=2)):
        # times (b z - a) for root a/b
        a, b = root.numerator, root.denominator
        coeffs = [b * c - a * p for c, p in zip(coeffs + [0], [0] + coeffs)]
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
    return coeffs


@given(integer_polynomials())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_real_isolation_is_sympys(coeffs):
    assume(square_free(coeffs))
    assert master._isolate_real(coeffs) == sympy_real_intervals(coeffs)


@pytest.mark.parametrize("coeffs", [
    # a real root and a complex pair: past the LMQ shift, which these
    # constant terms set, the variations drop to 1 and the interval ends
    # where the shift left it
    inverted([-8, 1, -2, LOG_SPLIT[1]]),
    inverted([5, -7, 6, -LOG_SPLIT[0]]),
    inverted([2, -3, 6, -LOG_SPLIT[2]]),
])
def test_real_isolation_keeps_sympys_logarithm(coeffs):
    assert square_free(coeffs)
    assert master._isolate_real(coeffs) == sympy_real_intervals(coeffs)


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

# N = (z + 2)(4z + 5)(a cubic with one real root): its isolating intervals
# are (-2, -2), (-2, -1) and (-1, 0), so -5/4 lies in an interval that ends
# at the root -2, where f vanishes and only f' gives the sign past it
FIVE_ROOTS = [5700, 17685, 13512, 4482, 5331, 270]

# z (z^2 + 100z + 1)(z^3 - 3z + 1): the interval of the root near -0.01 is
# (-1, 0), next to the root 0, so its enclosures hold 0 and the set of that
# root alone gives the candidate z, which divides; the factor's root is 0
NEXT_TO_ZERO = times([1, 0], times([1, 100, 1], [1, 0, -3, 1]))


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
    # not certified, square-free, every root real: split on the roots
    (times([2, -5], [9, -79, 176, -36]), False),  # a rational root
    ([16, 12, -126, -38, 48], False),
    (times([1, -3, 1], [2, 0, -7]), False),  # (2, 2)
    (NEXT_TO_ZERO, False),
])
def test_factor_is_sympys_factor_list(monkeypatch, coeffs, certified):
    # a certified or constant polynomial makes no factor_list call, and
    # neither does a square-free one whose roots are all real, which is
    # split on its roots; any other makes exactly one
    want = sympy_factors(coeffs)
    f = sp.Poly(coeffs, sp.Symbol("x"), domain="ZZ")
    real = (len(coeffs) > 2 and squarefree(coeffs)
            and f.count_roots() == f.degree())
    calls = []
    factor_list = sp.Poly.factor_list

    def counted(self, *args, **kwargs):
        calls.append(self)
        return factor_list(self, *args, **kwargs)

    monkeypatch.setattr(sp.Poly, "factor_list", counted)
    assert _factor(coeffs) == want
    assert len(calls) == (0 if certified or real or len(coeffs) < 2 else 1)


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
@example(FIVE_ROOTS)
def test_factor_matches_factor_list(coeffs):
    assert _factor(coeffs) == sympy_factors(coeffs)
    if len(coeffs) > 1 and not squarefree(coeffs):
        # no prime of the sieve can prove a square-free reduction
        assert next(master._sieve(coeffs), None) is None
        assert not master._squarefree(coeffs)


@st.composite
def squarefree_mod_p(draw):
    """(f, p): p from _PRIMES and f monic of degree 1..12 over F_p, as
    residues 0..p-1 highest degree first, square-free mod p."""
    p = draw(st.sampled_from(_PRIMES))
    n = draw(st.integers(1, 12))
    f = [1] + draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    # not Poly.is_sqf, which holds x^3 square-free mod 3 (f' = 0 there)
    factors = sp.Poly(f, sp.Symbol("x"), modulus=p).factor_list()[1]
    assume(all(m == 1 for _g, m in factors))
    return f, p


@given(squarefree_mod_p())
@settings(max_examples=200, deadline=None)
@example(([1, 0, 0, 0, 1], 3))                 # (x^2 + x - 1)(x^2 - x - 1)
@example(([1, 0, 0, 0, 0, 0, 0, 0, 1, 2], 3))  # degrees 1, 4, 4
@example(([1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1], 3))  # degrees 2, 8
def test_distinct_degrees_are_sympys_factor_degrees(case):
    # sympy's factorization over GF(p) is the oracle for the Frobenius rows
    f, p = case
    factors = sp.Poly(f, sp.Symbol("x"), modulus=p).factor_list()[1]
    assert all(m == 1 for _g, m in factors)
    assert sorted(master._gf_degrees(f, p)) == sorted(
        g.degree() for g, _m in factors)


# numerators that `_factor` met in the master benchmark plans (bivariate
# eliminants and univariate N, at seeds 0-2), with the degree sums and
# fewest factors mod p that the sieve gave before its residue classes
# were held mod f; the split budget n 2^r depends on both
@pytest.mark.parametrize("f, sums, r", [
    ((3000, 14540, 15135, 2124), 0b1001, 1),
    ((27000, 141900, -491790, -2620007, -1955972, 1670749, 1445481),
     0b1000001, 2),
    ((1400263200, 3492878760, -13904103780, -29869450170, 43979280580,
      67723363859, -57090877588, -45438655633, 24641722712, 3474762254,
      -737974694), 0b10000000001, 1),
    ((23337720, 64678824, -3294372900, 17086399099, -15095736774,
      -83980386116, 162127283990, 75381391557, -264513994492, 56804933532,
      55411933752), 0b10000000001, 2),
    ((7, 71, 175, -66, -240), 0b10001, 1),
    ((14, -93, 112, 156, -144), 0b10001, 2),
    ((18, -203, 747, -952, 180), 0b11011, 2),
    ((8, 6, -63, -19, 24), 0b11111, 3),
])
def test_degree_sums_of_benchmark_numerators(f, sums, r):
    assert master._degree_sums(f) == (sums, r)


@st.composite
def totally_real_products(draw):
    """Products of one to four factors whose roots are all real: a linear
    a z - b, a quadratic a z^2 + b z + c with b^2 > 4ac, or a product of
    linears with its constant term moved by one; times a content and a
    sign."""
    f = [draw(st.sampled_from([-3, -1, 1, 2, 6]))]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["linear", "quadratic", "moved"]))
        if kind == "linear":
            g = [draw(st.integers(1, 6)), draw(st.integers(-20, 20))]
        elif kind == "quadratic":
            a, b = draw(st.integers(1, 6)), draw(st.integers(-20, 20))
            c = draw(st.integers(-30, 30))
            assume(b * b > 4 * a * c)
            g = [a, b, c]
        else:
            g = [1]
            for _ in range(draw(st.integers(2, 4))):
                g = times(g, [draw(st.integers(1, 4)),
                              draw(st.integers(-12, 12))])
            g[-1] += draw(st.sampled_from([-1, 1]))
        f = times(f, g)
    return f


@given(totally_real_products())
@settings(max_examples=120, deadline=None)
@example(times([2, -5], [9, -79, 176, -36]))
@example(times([1, 2], [1, 0, -2]))  # a root at an end of an interval
@example(NEXT_TO_ZERO)
def test_totally_real_products_are_split_without_sympy(coeffs):
    f = sp.Poly(coeffs, sp.Symbol("x"), domain="ZZ")
    assume(len(coeffs) > 2 and squarefree(coeffs))
    assume(f.count_roots() == f.degree())  # every root real
    assert master._descartes_real(coeffs)
    want = sympy_factors(coeffs)
    splits, calls = [], []
    split, factor_list = master._split, sp.Poly.factor_list

    def spied(*args):
        splits.append(split(*args))
        return splits[-1]

    def counted(self, *args, **kwargs):
        calls.append(self)
        return factor_list(self, *args, **kwargs)

    with mock.patch.object(master, "_split", spied), \
            mock.patch.object(sp.Poly, "factor_list", counted):
        assert _factor(coeffs) == want
    # sympy is asked only when the split ran out of root sets to try
    assert len(calls) == (None in splits)


def test_the_split_gives_way_to_sympy_past_n_2_to_the_r_root_sets(
        monkeypatch):
    f = times([1, 5, 5, -5, -5], [1, 0, -7, 6, -1])
    want = sympy_factors(NEXT_TO_ZERO), sympy_factors(f)
    calls = []
    factor_list = sp.Poly.factor_list

    def counted(self, *args, **kwargs):
        calls.append(self)
        return factor_list(self, *args, **kwargs)

    monkeypatch.setattr(sp.Poly, "factor_list", counted)
    # every degree is allowed and some prime gives 3 factors: 6 2^3 = 48
    # root sets may be tried, and 10 find the factors
    assert master._degree_sums(tuple(NEXT_TO_ZERO)) == (0b1111111, 3)
    assert _factor(NEXT_TO_ZERO) == want[0]
    assert not calls
    # two quartics whose roots interleave: only degree 4 is allowed, and
    # some prime gives 2 factors, so 8 2^2 = 32 of the C(8, 4) = 70 root
    # sets are tried, none of them a factor's, before sympy is asked
    assert master._degree_sums(tuple(f)) == (0b100010001, 2)
    assert _factor(f) == want[1]
    assert len(calls) == 1


def test_a_factor_left_whole_keeps_its_intervals():
    isolated = {}
    f = (1, 0, -10, 0, 1)
    assert _factor(list(f), isolated) == [(f, 1)]
    assert isolated == {f: master._isolate_real(f)}
    isolated = {}
    assert _factor(NEXT_TO_ZERO, isolated) == sympy_factors(NEXT_TO_ZERO)
    assert not isolated  # each factor's own intervals are sympy's


def test_refinement_takes_the_sign_past_a_root_from_the_derivative():
    intervals = master._isolate_real(FIVE_ROOTS)
    assert intervals == [(-2, -2), (-2, -1), (-1, 0)]
    roots = master._Roots(FIVE_ROOTS, intervals)
    roots.sharpen(20)
    a, b, q = roots.iv[1]
    assert Fraction(a, q) <= Fraction(-5, 4) <= Fraction(b, q)
    assert Fraction(b - a, q) < Fraction(1, 2 ** 20)
    assert _factor(FIVE_ROOTS) == sympy_factors(FIVE_ROOTS)


def test_a_candidate_is_a_factor_only_by_exact_division(monkeypatch):
    # z^4 - 10z^2 + 1 splits mod every prime, so no degree is excluded;
    # its roots +-sqrt2 +-sqrt3 give candidates whose enclosures hold an
    # integer (near 3.146, or pairs with trace 0), and exact division
    # refuses each of them
    divisions = []
    divide_out = master._divide_out

    def counted(coeffs, divisor):
        got = divide_out(coeffs, divisor)
        divisions.append(got[0])
        return got

    monkeypatch.setattr(master, "_divide_out", counted)
    assert _factor([1, 0, -10, 0, 1]) == [((1, 0, -10, 0, 1), 1)]
    assert divisions and not any(divisions)


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
