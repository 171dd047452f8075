"""Arrangements, matroid circuits, Orlik-Solomon algebras, deconing.

The Poincare polynomials computed through the OS quotient are checked here
against a third, fully independent oracle: the Whitney subset sum
P(t) = sum over subsets S with nonempty intersection of (-1)^{|S|} (-t)^{rank S}.
(The acceptance suite already runs the NBC and point-count oracles.)
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from jumploci import arrangement, cli, exterior, master, scalars
from jumploci.arrangement import (
    Arrangement, circuit_boundary, decone, line_points, matroid_circuits,
    os_algebra, points_arrangement, poincare_and_euler,
    restrict_line_arrangement)
from jumploci.exterior import Multivector, build_quotient_algebra
from jumploci.errors import DegeneracyError, PreconditionError
from jumploci.verify import LINE_LIBRARY, SIXPLANES_FORMS, line_library
from jumploci.scalars import DEFAULT_PRIME, Matrix, rank, rank_and_kernel


def whitney_poincare(arr):
    d = arr.size
    coeffs = [0] * (arr.rank() + 1)
    for size in range(d + 1):
        for subset in combinations(range(d), size):
            if arr.common_point(subset) is None:
                continue
            r = rank(Matrix([arr.forms[j][1:] for j in subset])) if subset else 0
            coeffs[r] += (-1) ** (size - r)
    return tuple(coeffs)


def minimal_empty_oracle(arr):
    """Every hyperplane set with empty intersection all of whose one-smaller
    subsets meet, found among all 2^d subsets."""
    out = []
    for size in range(2, arr.size + 1):
        for s in combinations(range(arr.size), size):
            if arr.common_point(s) is None and all(
                    arr.common_point(t) is not None
                    for t in combinations(s, size - 1)):
                out.append(s)
    return sorted(out)


def monomial_gens(algebra):
    """The index sets of the monomial relations among `ideal_gens` (a
    circuit boundary has at least three terms)."""
    return [tuple(j for j in range(algebra.ngens) if mask >> j & 1)
            for g in algebra.ideal_gens if len(g.terms) == 1
            for mask in g.terms]


def seeded_affine(seed, ambient, size):
    """An affine arrangement with parallel families: a few pairwise
    non-proportional directions, each repeated with several constant terms,
    then shuffled."""
    rng = random.Random(seed)
    directions = []
    forms = []
    while len(forms) < size:
        direction = [Fraction(rng.randint(-2, 2)) for _ in range(ambient)]
        if not any(direction):
            continue
        lead = next(c for c in direction if c)
        direction = [c / lead for c in direction]
        if direction in directions:
            continue
        directions.append(direction)
        for c in rng.sample(range(-3, 4), rng.randint(1, 3)):
            forms.append([Fraction(c)] + direction)
    forms = forms[:size]
    rng.shuffle(forms)
    return Arrangement(ambient, forms)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ambient,size", [(2, 8), (3, 8)])
def test_empty_intersections_match_full_enumeration(seed, ambient, size):
    arr = seeded_affine(seed, ambient, size)
    found = monomial_gens(os_algebra(arr))
    assert found == minimal_empty_oracle(arr)
    assert found  # parallel families always give empty pairs


def circuits_oracle(arr):
    """Every dependent set of augmented forms all of whose one-smaller
    subsets are independent, by exact rank over all 2^d subsets."""
    vecs = arr.augmented()

    def independent(s):
        return rank([vecs[j] for j in s]) == len(s) if s else True

    out = []
    for size in range(1, arr.size + 1):
        for s in combinations(range(arr.size), size):
            if not independent(s) and all(
                    independent(t) for t in combinations(s, size - 1)):
                out.append(s)
    return sorted(out)


@st.composite
def coincident_arrangements(draw):
    """Small integer forms, central or affine, in which later forms are
    often forced to coincide with earlier ones: a repeated direction with a
    new constant term (a parallel family), or an integer combination of two
    earlier forms (through their common points, so concurrent triples)."""
    ambient = draw(st.integers(1, 3))
    central = draw(st.booleans())
    coeff = st.integers(-3, 3)
    size = draw(st.integers(2, 6))
    forms = []
    for _ in range(3 * size):
        if len(forms) == size:
            break
        kind = draw(st.sampled_from(["free", "parallel", "combination"]))
        if kind == "parallel" and forms:
            form = [draw(coeff)] + list(draw(st.sampled_from(forms))[1:])
        elif kind == "combination" and len(forms) >= 2:
            a = draw(st.sampled_from(forms))
            b = draw(st.sampled_from(forms))
            s, t = draw(coeff), draw(coeff)
            form = [s * x + t * y for x, y in zip(a, b)]
        else:
            form = [draw(coeff) for _ in range(ambient + 1)]
        if central:
            form[0] = 0
        try:  # a zero linear part or a repeated hyperplane is no new form
            Arrangement(ambient, forms + [form])
        except PreconditionError:
            continue
        forms.append(form)
    assume(len(forms) >= 2)
    return Arrangement(ambient, forms)


@given(coincident_arrangements())
@settings(max_examples=150, deadline=None)
def test_flat_walk_matches_the_circuit_and_relation_oracles(arr):
    circuits = matroid_circuits(arr)
    oracle = circuits_oracle(arr)
    assert circuits == oracle
    expected = [circuit_boundary(arr.size, c) for c in oracle
                if arr.central or arr.common_point(c) is not None]
    if not arr.central:
        expected += [Multivector.monomial(arr.size, s)
                     for s in minimal_empty_oracle(arr)]
    assert list(os_algebra(arr).ideal_gens) == expected


P = DEFAULT_PRIME


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts of `common_point`, which the relation walk never calls."""
    calls = {"common_point": 0}
    exact_point = Arrangement.common_point

    def counted_point(self, subset):
        calls["common_point"] += 1
        return exact_point(self, subset)

    monkeypatch.setattr(Arrangement, "common_point", counted_point)
    return calls


@pytest.mark.parametrize("forms,circuits", [
    # independent over Q, but the two forms agree mod p
    ([[1, 0], [1, P]], []),
    ([[1, 0], [1, P], [0, 1]], [(0, 1, 2)]),
    # a coefficient 1/p clears to a form whose image mod p is (0, 0, 1)
    ([[0, 1], [1, Fraction(1, P)], [1, 0]], [(0, 1, 2)]),
])
def test_circuits_of_forms_equal_mod_p_match_the_oracle(forms, circuits):
    arr = Arrangement(2, forms)
    assert matroid_circuits(arr) == circuits == circuits_oracle(arr)


@pytest.mark.parametrize("forms", [
    # x = 0 and 1 + x + p y = 0 meet at (0, -1/p); mod p they are parallel
    [[0, 1, 0], [1, 1, P]],
    # x = 0 and 1/p + x + y = 0: the second clears to (1, p, p), whose
    # linear part vanishes mod p
    [[0, 1, 0], [Fraction(1, P), 1, 1]],
])
def test_lines_parallel_mod_p_get_no_empty_relation(exact_calls, forms):
    arr = Arrangement(2, forms)
    assert minimal_empty_oracle(arr) == []
    before = dict(exact_calls)
    algebra = os_algebra(arr, arr.rank())
    assert monomial_gens(algebra) == []
    assert exact_calls["common_point"] == before["common_point"]


def braid(n):
    """The braid arrangement A_{n-1}: the forms x_i - x_j in C^n, i < j,
    indexed like the edges (i, j) of the complete graph K_n."""
    return Arrangement(n, [[1 if k == i else (-1 if k == j else 0)
                            for k in range(n)]
                           for i, j in combinations(range(n), 2)],
                       central=True)


def test_circuit_walk_makes_one_elimination_per_flat(monkeypatch):
    # the flats of braid A4 are the 52 set partitions of 5 points (B_5);
    # every subset is decided by one bit of a flat, none is ranked
    calls = []
    eliminate = arrangement._rref_parts

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(arrangement, "_rref_parts", counted)
    assert len(matroid_circuits(braid(5))) == 37
    assert 0 < len(calls) <= 52


@pytest.mark.parametrize("fixture", ["concurrent3", "generic3"])
def test_os_algebra_command_walks_the_forms_once(monkeypatch, capsys,
                                                 fixture):
    # the circuits it reports and the relations of its build, central or
    # affine, come from one walk
    calls = []
    walk = arrangement._minimal_dependent

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(arrangement, "_minimal_dependent", counted)
    assert cli.main(["os-algebra", "--arrangement", fixture]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_braid_a5_circuits_are_the_cycles_of_k6():
    # a set of edges of K_6 is a circuit of the graphic matroid exactly
    # when it is a cycle: connected, every vertex it touches of degree 2
    edges = list(combinations(range(6), 2))
    circuits = matroid_circuits(braid(6))
    for c in circuits:
        degree, parent = {}, {}

        def root(v):
            while parent.get(v, v) != v:
                v = parent[v]
            return v
        for i, j in (edges[k] for k in c):
            degree[i], degree[j] = degree.get(i, 0) + 1, degree.get(j, 0) + 1
            parent[root(i)] = root(j)
        assert set(degree.values()) == {2}, c
        assert len({root(v) for v in degree}) == 1, c
    # K_6 has C(6, k) (k - 1)! / 2 cycles of length k; distinct circuits
    # that are all cycles, as many as there are cycles, are all of them
    assert len(set(circuits)) == len(circuits) == sum(
        comb(6, k) * factorial(k - 1) // 2 for k in range(3, 7)) == 197


def coxeter_b3():
    """The Coxeter arrangement B_3: x_i, and x_i - x_j, x_i + x_j (i < j)."""
    forms = [[1 if k == i else 0 for k in range(3)] for i in range(3)]
    for i, j in combinations(range(3), 2):
        for s in (-1, 1):
            forms.append([1 if k == i else (s if k == j else 0)
                          for k in range(3)])
    return Arrangement(3, forms, central=True)


def assert_eliminates_to(algebra):
    """The straightened algebra is the elimination build on its generators,
    bit for bit."""
    oracle = build_quotient_algebra(algebra.ngens, algebra.ideal_gens,
                                    algebra.top,
                                    hodge_types=[(1, 1)] * algebra.ngens)
    assert algebra.monomials == oracle.monomials
    assert algebra.basis == oracle.basis
    assert algebra.proj == oracle.proj
    assert algebra.ideal_gens == oracle.ideal_gens
    assert algebra.dims() == oracle.dims()
    assert algebra.hodge_types == oracle.hodge_types


@given(coincident_arrangements(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_straightening_matches_elimination(arr, cut):
    # a top below the rank drops the rules too large to fire
    top = max(arr.rank() - cut, 0)
    algebra = os_algebra(arr, top)
    assert_eliminates_to(algebra)
    # the rank read off the walk is the rank of the linear parts
    assert algebra.complete is (top == arr.rank())
    assert os_algebra(arr).top == arr.rank()


@pytest.mark.parametrize("arr, dims", [
    (braid(4), (1, 6, 11, 6)),
    (braid(5), (1, 10, 35, 50, 24)),
    (coxeter_b3(), (1, 9, 23, 15)),
], ids=["braid-A3", "braid-A4", "coxeter-B3"])
def test_straightening_matches_elimination_on_reflection_arrangements(
        arr, dims):
    algebra = os_algebra(arr)
    assert algebra.dims() == dims
    assert_eliminates_to(algebra)


def test_straightening_refuses_a_circuit_list_missing_a_relation():
    # without the triangle (3, 4, 5) of K_4 no rule rewrites e_3 e_4, and
    # the rows e_T g of degree 3 of the first generator, the boundary of
    # (0, 1, 3), do not all straighten to zero
    arr = braid(4)
    arr.dependencies = [(t, flat) for t, flat in braid(4).dependencies
                        if t != (3, 4, 5)]
    with pytest.raises(AssertionError, match="generator 0 .* degree 3"):
        os_algebra(arr)


def test_os_algebra_runs_no_elimination(monkeypatch):
    a4 = braid(5)
    top = a4.rank()
    matroid_circuits(a4)  # the walk ranks forms; a4 keeps it

    def refuse(*args, **kwargs):
        raise AssertionError("os_algebra eliminated")
    for module, name in ((scalars, "_rref_parts"), (exterior, "_rref_parts"),
                         (exterior, "build_quotient_algebra"),
                         (arrangement, "build_quotient_algebra")):
        monkeypatch.setattr(module, name, refuse)
    assert os_algebra(a4, top).dims() == (1, 10, 35, 50, 24)
    # the rank and the flat walk of an affine arrangement rank forms (at
    # most three columns for lines), never ideal rows
    eliminate, widths = arrangement._rref_parts, []

    def forms_only(parts, ncols, field, *read):
        widths.append(ncols)
        assert ncols <= 3, "os_algebra eliminated ideal rows"
        return eliminate(parts, ncols, field, *read)
    for module in (scalars, arrangement):
        monkeypatch.setattr(module, "_rref_parts", forms_only)
    hexlat = Arrangement(2, dict(LINE_LIBRARY)["hexlat6"])
    assert os_algebra(hexlat).dims() == (1, 6, 9)
    assert widths


def test_circuit_examples():
    assert matroid_circuits(Arrangement(2, [[1, 0], [0, 1]])) == []
    assert matroid_circuits(Arrangement(2, [[1, 0], [0, 1], [1, 1]])) == \
        [(0, 1, 2)]
    four = Arrangement(2, [[1, 0], [0, 1], [1, 1], [1, -1]])
    assert matroid_circuits(four) == [(0, 1, 2), (0, 1, 3), (0, 2, 3),
                                      (1, 2, 3)]


def test_circuits_are_minimal_dependent():
    arr = Arrangement(4, SIXPLANES_FORMS, central=True)
    assert matroid_circuits(arr) == [(0, 1, 2, 4), (0, 1, 3, 4, 5),
                                     (0, 2, 3, 4, 5), (1, 2, 3, 5)]
    for c in matroid_circuits(arr):
        rows = [arr.forms[j][1:] for j in c]
        assert rank(Matrix(rows)) == len(c) - 1
        for drop in range(len(c)):
            sub = [r for k, r in enumerate(rows) if k != drop]
            assert rank(Matrix(sub)) == len(sub)


def test_poincare_examples():
    assert poincare_and_euler(Arrangement(2, [[1, 0], [0, 1]])) == ((1, 2, 1), 0)
    generic3 = Arrangement(2, [[0, 1, 0], [0, 0, 1], [-1, 1, 1]])
    assert poincare_and_euler(generic3) == ((1, 3, 3), 1)
    concurrent3 = Arrangement(2, [[1, 0], [0, 1], [1, 1]])
    assert poincare_and_euler(concurrent3) == ((1, 3, 2), 0)


def test_six_planes_dims():
    arr = Arrangement(4, SIXPLANES_FORMS, central=True)
    A = os_algebra(arr)
    assert A.dim(1) == 6
    assert A.dims() == (1, 6, 15, 18, 8)
    assert A.euler() == 0  # central: (1+t) divides the Poincare polynomial


def test_whitney_oracle_matches_os_dims():
    for name, arr in line_library():
        coeffs, _chi = poincare_and_euler(arr)
        assert whitney_poincare(arr) == coeffs, name
    six = Arrangement(4, SIXPLANES_FORMS, central=True)
    assert whitney_poincare(six) == poincare_and_euler(six)[0]


def test_degree_two_counts_multiple_points():
    # dim A^2 of an affine line arrangement = sum over intersection points
    # of (multiplicity - 1)
    for name, arr in line_library():
        pts = {}
        for i, j in combinations(range(arr.size), 2):
            p = arr.common_point([i, j])
            if p is None:
                continue
            key = tuple(p)
            pts.setdefault(key, set()).update(
                k for k in range(arr.size)
                if sum(c * x for c, x in zip(arr.forms[k][1:], p))
                == -arr.forms[k][0])
        expected = sum(len(s) - 1 for s in pts.values())
        assert os_algebra(arr).dim(2) == expected, name


def test_deletion_restriction():
    arr = Arrangement(2, [[0, 1, 0], [0, 0, 1], [-1, 1, 1], [0, 1, -1]])
    p_full, _ = poincare_and_euler(arr)
    for j in range(arr.size):
        p_del, _ = poincare_and_euler(arr.delete(j))
        p_res, _ = poincare_and_euler(restrict_line_arrangement(arr, j))
        summed = list(p_del) + [0] * (len(p_full) - len(p_del))
        for k, c in enumerate(p_res):
            summed[k + 1] += c
        assert tuple(summed) == p_full, j


def test_restriction_drops_parallel_lines():
    # x = 0 and x = 1 never meet; restricting to y = 0 sees both
    arr = Arrangement(2, [[0, 1, 0], [-1, 1, 0], [0, 0, 1]])
    restricted = restrict_line_arrangement(arr, 2)
    assert restricted.size == 2
    restricted_to_parallel = restrict_line_arrangement(arr, 0)
    assert restricted_to_parallel.size == 1  # only y = 0 crosses x = 0


def test_decone_examples():
    central = Arrangement(2, [[1, 0], [0, 1], [1, 1]], central=True)
    affine, index_map = decone(central, 2)
    assert affine.ambient == 1 and affine.size == 2
    assert index_map == {0: 0, 1: 1}
    assert poincare_and_euler(affine) == ((1, 2), -1)  # two points on a line

    boolean = Arrangement(2, [[1, 0], [0, 1]], central=True)
    point, _ = decone(boolean, 1)
    assert poincare_and_euler(point) == ((1, 1), 0)

    with pytest.raises(PreconditionError):
        decone(central, 7)
    with pytest.raises(PreconditionError):
        decone(Arrangement(2, [[0, 1, 0], [-1, 1, 0]]), 0)  # not central


BRAID_A3 = [[1 if k == i else (-1 if k == j else 0) for k in range(4)]
            for i, j in combinations(range(4), 2)]


# central arrangements whose every deconing is checked: deconed braid A3
# has parallel pairs and triple points, the deconed six planes have
# circuits with and without a common point
CONED = {
    "generic4": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]),
    "braidA3": (4, BRAID_A3),
    "sixplanes": (4, SIXPLANES_FORMS),
}


def test_cone_decone_poincare():
    # P_central(t) = (1 + t) P_decone(t) for every choice of hyperplane
    for name, (ambient, forms) in CONED.items():
        central = Arrangement(ambient, forms, central=True)
        p_central, _ = poincare_and_euler(central)
        for j in range(central.size):
            affine, _ = decone(central, j)
            p_aff, _ = poincare_and_euler(affine)
            prod = [0] * (len(p_aff) + 1)
            for k, c in enumerate(p_aff):
                prod[k] += c
                prod[k + 1] += c
            assert tuple(prod) == p_central, (name, j)


def test_points_arrangement():
    arr = points_arrangement([0, 1, 2])
    assert arr.size == 3 and arr.ambient == 1
    assert poincare_and_euler(arr) == ((1, 3), -2)
    with pytest.raises(PreconditionError):
        points_arrangement([0, 1, 1])


def test_duplicate_forms_cite_both_indices():
    with pytest.raises(PreconditionError, match="forms 0 and 2"):
        Arrangement(2, [[1, 1], [0, 1], [2, 2]])


def test_central_flag_checked_against_forms():
    with pytest.raises(PreconditionError, match="central"):
        Arrangement(2, [[1, 1, 0], [0, 0, 1]], central=True)
    with pytest.raises(PreconditionError):
        Arrangement(2, [[1, 0], [0, 1]], central=False)


def test_zero_linear_part_rejected():
    with pytest.raises(PreconditionError, match="zero linear part"):
        Arrangement(2, [[1, 0, 0]])


def test_truncated_build_refuses_euler():
    # a truncated build is only an algebra: the Euler characteristic is
    # taken from the full-rank build, with no way to ask for a shorter one
    arr = Arrangement(2, [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(TypeError):
        poincare_and_euler(arr, top=1)
    assert os_algebra(arr, top=1).dims() == (1, 3)


@pytest.mark.parametrize("bad, shown", [
    (0.1, "0.1"), ("1/3", "'1/3'"), (True, "True")])
def test_inexact_coefficients_are_refused(bad, shown):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, and True
    # or "1/3" a silent 1, 1/3
    with pytest.raises(PreconditionError,
                       match=rf"^form 1 coefficient 2 must be rational, "
                             rf"got {shown}$"):
        Arrangement(2, [[0, 1, 0], [1, 1, bad]])
    with pytest.raises(PreconditionError,
                       match=rf"^point 1 must be rational, got {shown}$"):
        points_arrangement([0, bad])


def test_library_is_well_formed():
    assert len(LINE_LIBRARY) == 10
    for name, arr in line_library():
        assert arr.size <= 6 and arr.ambient == 2, name


# ------------------------------------------------------------ points of P^2

def common_point_oracle(arr):
    """The points of an arrangement in C^2 by pairwise `common_point`: the
    finite ones grouped by point, as (x, y, 1), and one point at infinity
    per class of two or more parallel lines, the direction (c2, -c1, 0) of
    its lines scaled to last nonzero coordinate 1."""
    finite, infinite = {}, {}
    for i, j in combinations(range(arr.size), 2):
        p = arr.common_point((i, j))
        if p is not None:
            finite.setdefault(tuple(p) + (Fraction(1),), set()).update((i, j))
        else:
            _c0, c1, c2 = arr.forms[i]
            key = (-c2 / c1, 1, 0) if c1 else (1, 0, 0)
            infinite.setdefault(tuple(map(Fraction, key)), set()).update(
                (i, j))
    return sorted(((p, tuple(sorted(m)))
                   for p, m in (finite | infinite).items()),
                  key=lambda pair: pair[1])


def kernel_oracle(arr):
    """The points by the pairwise `rank_and_kernel` of two line vectors,
    (c1, c2, c0) in C^2 and the linear part in C^3, with every line scanned
    against each kernel vector."""
    if arr.ambient == 2:
        vecs = [(c1, c2, c0) for c0, c1, c2 in arr.forms]
    else:
        vecs = arr.linear_parts()
    points = {}
    for i, j in combinations(range(arr.size), 2):
        _rk, kern = rank_and_kernel(Matrix([vecs[i], vecs[j]]))
        v = kern[0]
        members = tuple(k for k in range(arr.size)
                        if sum(c * w for c, w in zip(vecs[k], v)) == 0)
        points[members] = v
    return [(points[m], m) for m in sorted(points)]


def restrict_oracle(arr, j):
    """The restriction to H_j by intersecting every other line with the
    parametrization q + t (-c2, c1) of H_j."""
    c0, c1, c2 = arr.forms[j]
    direction = (-c2, c1)
    q = (-c0 / c1, Fraction(0)) if c1 else (Fraction(0), -c0 / c2)
    points = []
    for k, (d0, d1, d2) in enumerate(arr.forms):
        slope = d1 * direction[0] + d2 * direction[1]
        if k == j or not slope:
            continue
        t = -(d0 + d1 * q[0] + d2 * q[1]) / slope
        if t not in points:
            points.append(t)
    return Arrangement(1, [[-t, Fraction(1)] for t in points])


@given(coincident_arrangements())
@settings(max_examples=150, deadline=None)
def test_line_points_match_pairwise_solves_and_kernels(arr):
    assume(arr.ambient == 2 or (arr.ambient == 3 and arr.central))
    points = line_points(arr)
    assert points == kernel_oracle(arr)
    if arr.ambient == 2:
        assert points == common_point_oracle(arr)
        for j in range(arr.size):
            got = restrict_line_arrangement(arr, j)
            assert got.forms == restrict_oracle(arr, j).forms, j


def test_restriction_matches_the_intersection_loop_on_the_library():
    for name, arr in line_library():
        for j in range(arr.size):
            assert restrict_line_arrangement(arr, j).forms == \
                restrict_oracle(arr, j).forms, (name, j)


def test_line_points_refuse_other_arrangements():
    for arr in (Arrangement(1, [[0, 1], [1, 1]]),
                Arrangement(3, [[1, 1, 0, 0], [0, 0, 1, 0]]),
                Arrangement(4, SIXPLANES_FORMS)):
        with pytest.raises(PreconditionError, match="line arrangement"):
            line_points(arr)


def test_three_parallel_lines_meet_in_a_triple_point_at_infinity():
    arr = Arrangement(2, [[0, 1, 1], [1, 1, 1], [2, 1, 1]])
    assert line_points(arr) == [((-1, 1, 0), (0, 1, 2))]
    assert master._vanishes_at_infinity(line_points(arr), [1, 1, -2])
    assert not master._vanishes_at_infinity(line_points(arr), [1, 1, -1])


GRID = [[0, 1, 0], [-1, 1, 0], [0, 0, 1], [-1, 0, 1]]  # x = 0, 1; y = 0, 1


def test_grid_with_alternating_weights_vanishes_at_infinity():
    arr = Arrangement(2, GRID)
    lam = [1, -1, 1, -1]
    assert master._vanishes_at_infinity(line_points(arr), lam)
    with pytest.raises(DegeneracyError, match="line at infinity"):
        master.critical_points_bivariate(arr, lam)


def test_a_line_parallel_to_no_other_keeps_alpha_off_infinity():
    # x = 0, x = 1 (weight sum 0); y = 0 and x + y = 1 each alone
    arr = Arrangement(2, [[0, 1, 0], [-1, 1, 0], [0, 0, 1], [-1, 1, 1]])
    lam = [1, -1, 2, -2]
    assert sum(lam) == 0
    assert not master._vanishes_at_infinity(line_points(arr), lam)


def test_points_and_restrictions_need_no_elimination(monkeypatch,
                                                     exact_calls):
    hexlat = dict(LINE_LIBRARY)["hexlat6"]
    arr = Arrangement(2, hexlat)
    cone = Arrangement(3, [[0, c1, c2, c0] for c0, c1, c2 in arr.forms]
                       + [[0, 0, 0, 1]])
    weights = [1, 2, 3, 4, 5, 6]
    before = exact_calls["common_point"]
    master.critical_points_bivariate(arr, weights)
    assert exact_calls["common_point"] == before

    def refuse(*args, **kwargs):
        raise AssertionError("elimination called")

    monkeypatch.setattr(scalars, "_echelon", refuse)
    # the cone's line 6 is the line at infinity: dropped, the cone's points
    # are the affine ones
    dropped = [(p, tuple(k for k in lines if k != 6))
               for p, lines in line_points(cone)]
    assert sorted(pair for pair in dropped if len(pair[1]) >= 2) == \
        sorted(line_points(arr))
    table = master.residues_line_arrangement(cone, weights + [-21])
    assert [p.lines for p in table.points] == [(0, 1, 2, 3), (0, 4, 6),
                                                (1, 5, 6), (2, 4, 5)]
    for j in range(arr.size):
        assert restrict_line_arrangement(arr, j).size >= 1
