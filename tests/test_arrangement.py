"""Arrangements, matroid circuits, Orlik-Solomon algebras, deconing.

The Poincare polynomials computed through the OS quotient are checked here
against a third, fully independent oracle: the Whitney subset sum
P(t) = sum over subsets S with nonempty intersection of (-1)^{|S|} (-t)^{rank S}.
(The acceptance suite already runs the NBC and point-count oracles.)
"""

from fractions import Fraction
from itertools import combinations

import random

import pytest

from jumploci.arrangement import (
    Arrangement, _empty_intersection_minimal, decone, matroid_circuits, os_algebra, points_arrangement,
    poincare_and_euler, restrict_line_arrangement)
from jumploci.errors import PreconditionError
from jumploci.verify import LINE_LIBRARY, SIXPLANES_FORMS, line_library
from jumploci.scalars import Matrix, rank


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
    found = _empty_intersection_minimal(arr)
    assert found == minimal_empty_oracle(arr)
    assert found  # parallel families always give empty pairs


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


def test_cone_decone_poincare():
    # P_central(t) = (1 + t) P_decone(t) for every choice of hyperplane
    central = Arrangement(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                          central=True)
    p_central, _ = poincare_and_euler(central)
    for j in range(central.size):
        affine, _ = decone(central, j)
        p_aff, _ = poincare_and_euler(affine)
        prod = [0] * (len(p_aff) + 1)
        for k, c in enumerate(p_aff):
            prod[k] += c
            prod[k + 1] += c
        assert tuple(prod) == p_central


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
    arr = Arrangement(2, [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(PreconditionError, match="truncated"):
        poincare_and_euler(arr, top=1)
    assert os_algebra(arr, top=1).dims() == (1, 3)


def test_library_is_well_formed():
    assert len(LINE_LIBRARY) == 10
    for name, arr in line_library():
        assert arr.size <= 6 and arr.ambient == 2, name
