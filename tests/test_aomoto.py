"""The complex (A*, alpha wedge): cohomology, resonance, log resonance."""

from fractions import Fraction
from itertools import product

import pytest

import random

from jumploci import aomoto, exterior, scalars
from jumploci.aomoto import (
    AomotoComplex, LogResonanceReport, generic_dims_sample, isotropic_check,
    log_resonance_membership, resonance_membership)
from jumploci.arrangement import Arrangement, os_algebra, points_arrangement
from jumploci.elliptic import elliptic_model, tangent_pair_basis
from jumploci.errors import PreconditionError
from jumploci.exterior import Multivector, build_quotient_algebra
from jumploci.scalars import (
    GF, BadPrimeError, GaussianRational, Matrix, rank_and_kernel, solve_linear)
from jumploci.verify import SIXPLANES_FORMS

I = GaussianRational(0, 1)


def three_points():
    return os_algebra(points_arrangement([0, 1, 2]))


def concurrent3():
    return os_algebra(Arrangement(2, [[1, 0], [0, 1], [1, 1]]))


def six_planes():
    return os_algebra(Arrangement(4, SIXPLANES_FORMS, central=True))


def test_zero_class_gives_zero_matrices():
    A = three_points()
    cx = AomotoComplex(A, [0, 0, 0])
    assert all(m.is_zero() for m in cx.matrices)
    assert cx.cohomology_dims() == (1, 3)


def test_three_point_cohomology():
    A = three_points()
    assert AomotoComplex(A, [1, 1, 1]).cohomology_dims() == (0, 2)


def test_concurrent_triple_point_resonance():
    # weights summing to zero at the triple point: h^1 jumps to 1, and with
    # chi = 0 the top degree matches it
    A = concurrent3()
    cx = AomotoComplex(A, [1, 1, -2])
    assert cx.cohomology_dims() == (0, 1, 1)
    assert cx.matrices[1].mul(cx.matrices[0]).is_zero()
    assert cx.euler_matches()
    assert AomotoComplex(A, [1, 1, 1]).cohomology_dims() == (0, 0, 0)


def test_kernels_are_kept_from_the_rank_computation():
    # the kernels are read off the integer reductions behind `ranks`, and
    # are the ones rank_and_kernel gives on the Fraction matrices
    cx = AomotoComplex(six_planes(), [1, 1, 1, -1, 0, 2])
    ranks = cx.ranks()
    kernels = cx.kernels()
    for m, r, kernel in zip(cx.matrices, ranks, kernels):
        assert (r, kernel) == rank_and_kernel(m)
        assert len(kernel) == m.ncols - r


def test_wrong_alpha_length():
    with pytest.raises(PreconditionError, match="coordinates"):
        AomotoComplex(three_points(), [1, 1])


def test_jump_component_membership():
    A = six_planes()
    # the two degree-2 jump components are cut out by the circuits
    # {0,1,2,4} (x, y, z, x+y+z) and {1,2,3,5} (y, z, w, y-z+w): weights
    # supported on the circuit and summing to zero there
    for alpha in ([1, 0, 0, 0, -1, 0], [0, 1, 0, 0, 0, -1],
                  [1, 1, 1, 0, -3, 0], [0, 1, 2, -1, 0, -2]):
        rep = resonance_membership(A, [Fraction(c) for c in alpha], 2)
        assert rep.member and rep.dims == (0, 0, 1, 4, 3)
        assert rep.euler_ok


def test_degree_two_jump_needs_a_circuit_support():
    # weights straddling the two circuits, or breaking the zero-sum
    # condition on one, drop back to the generic h^2 = 0
    A = six_planes()
    off_component = [[1, 0, 0, 0, 0, -1],   # supported on {0,5}: in neither
                     [0, 0, 0, 1, -1, 0],   # supported on {3,4}: in neither
                     [1, 0, 0, 0, -2, 0]]   # circuit support, sum != 0
    for alpha in off_component:
        rep = resonance_membership(A, [Fraction(c) for c in alpha], 2)
        assert not rep.member and rep.dims[2] == 0


def test_resonance_degree_bounds():
    A = three_points()
    with pytest.raises(PreconditionError):
        resonance_membership(A, [1, 1, 1], 5)
    with pytest.raises(PreconditionError):
        resonance_membership(A, [1, 1, 1], 1, depth=0)


def test_generic_dims_full_space():
    rep = generic_dims_sample(three_points(), trials=50, seed=1)
    assert rep.dims[1] == 2
    assert not rep.flagged


def test_generic_dims_on_subspace():
    # the weight-sum-zero plane of the concurrent triple point
    rep = generic_dims_sample(
        concurrent3(), subspace=[[1, 0, -1], [0, 1, -1]], trials=40, seed=1)
    assert rep.dims[1] == 1


def test_generic_dims_zero_subspace():
    with pytest.raises(PreconditionError, match="zero subspace"):
        generic_dims_sample(concurrent3(), subspace=[[0, 0, 0]], trials=5)


@pytest.mark.parametrize("subspace, length", [
    ([[1, 0, 0, 5]], 4), ([[1, -1]], 2), ([[1, 0, -1], [0, 1]], 2)])
def test_generic_dims_subspace_rows_need_dim_a1_entries(subspace, length):
    k = len(subspace) - 1
    with pytest.raises(PreconditionError,
                       match=f"subspace row {k} has {length} entries; "
                             "A\\^1 has dimension 3"):
        generic_dims_sample(concurrent3(), subspace=subspace, trials=5)


def test_reduction_refuses_a_prime_that_moves_the_pivots():
    # (13 e0e1 + e0e2): over Q the degree-2 pivot is e0e1 and the basis
    # {e0e2, e1e2}; mod 13 the pivot is e0e2 and the basis {e0e1, e1e2}.
    # The dims agree, so only the basis comparison sees it.
    A = build_quotient_algebra(3, [Multivector(3, [(0b011, 13), (0b101, 1)])],
                               3)
    assert A.basis[2] == [0b101, 0b110]
    with pytest.raises(BadPrimeError, match="basis in degree 2 moves mod 13"):
        generic_dims_sample(A, prime=13, trials=5)
    assert generic_dims_sample(A, prime=17, trials=5).dims == (0, 0, 0, 0)


@pytest.mark.parametrize("terms", [
    # (1/13) e0e1 + e0e2: its RREF row is e0e1 + 13 e0e2, so den_2 = 1
    [(0b011, Fraction(1, 13)), (0b101, 1)],
    # 13 e0e1: the ideal's rank drops mod 13, but no den is divisible by it
    [(0b011, 13)]])
def test_reduction_accepts_a_prime_that_divides_no_denominator(terms):
    # the samples run on the rational table read mod 13, A tensor F_13
    A = build_quotient_algebra(3, [Multivector(3, terms)], 3)
    assert all(den == 1 for den, _ in A.proj)
    for seed, subspace in product(range(3), (None, [[1, 2, 3]])):
        at13, at17 = (generic_dims_sample(A, subspace, trials=5, prime=p,
                                          seed=seed) for p in (13, 17))
        assert at13.prime == 13 and at13.dims == at17.dims == (0, 0, 0, 0)


def test_reduction_runs_no_elimination(monkeypatch):
    A = six_planes()

    def refuse(*args, **kwargs):
        raise AssertionError("reduce_algebra_mod eliminated")
    for module, name in ((scalars, "_rref_parts"), (scalars, "_rref_mod"),
                         (scalars, "_rref_lifted"), (scalars, "rref"),
                         (exterior, "_rref_parts"),
                         (exterior, "build_quotient_algebra"),
                         (aomoto, "build_quotient_algebra")):
        monkeypatch.setattr(module, name, refuse)
    structure = A.structure_constants(1)
    reduced, i_res = aomoto.reduce_algebra_mod(A, 101)
    assert reduced.field is GF(101) and i_res is None
    assert reduced.basis is A.basis and reduced.proj is A.proj
    assert reduced.structure_constants(1) is structure


def test_semicontinuity_at_special_point():
    rep = generic_dims_sample(six_planes(), trials=30, seed=3)
    special = resonance_membership(
        six_planes(), [Fraction(c) for c in [1, 0, 0, 0, -1, 0]], 2)
    assert special.dims[2] >= rep.dims[2]
    assert rep.dims[2] == 0


def test_isotropic_single_vector():
    A = concurrent3()
    rep = isotropic_check(A, [[1, -1, 0]])
    assert rep.isotropic and rep.witness is None


def test_isotropic_tangent_pair():
    m = elliptic_model(3)
    (x1, y1), (x2, y2) = tangent_pair_basis(3, 0, 1)
    basis = [m.class_coords(x1, y1), m.class_coords(x2, y2)]
    assert isotropic_check(m.algebra, basis).isotropic


def test_non_isotropic_pair_names_witness():
    m = elliptic_model(2)
    a1 = m.class_coords([1, 0], [0, 0])
    b1 = m.class_coords([0, 0], [1, 0])
    rep = isotropic_check(m.algebra, [a1, b1])
    assert not rep.isotropic
    assert rep.witness[:2] == (0, 1)
    assert any(rep.witness[2])


@pytest.mark.parametrize("top", [0, 1])
def test_isotropy_needs_the_algebra_through_degree_two(top):
    # e0 e1 != 0 in A^2 of concurrent3; a build through degree 1 cannot see
    # it (and at top 0 the degree-one lift used to raise IndexError)
    A = os_algebra(Arrangement(2, [[1, 0], [0, 1], [1, 1]]), top=top)
    with pytest.raises(PreconditionError, match="through degree 2; top is"):
        isotropic_check(A, [[1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("vectors, k, length", [
    ([[1, 0, 0, 0], [0, 0, 0, 1]], 0, 4),
    ([[1, -1, 0], [1, 0]], 1, 2)])
def test_isotropy_vectors_need_dim_a1_entries(vectors, k, length):
    # the first case used to be truncated to e0, 0 and reported isotropic
    with pytest.raises(PreconditionError) as err:
        isotropic_check(concurrent3(), vectors)
    assert str(err.value) == (f"vector {k} has {length} entries; A^1 has "
                              "dimension 3")


def test_log_resonance_weight_two_case():
    # every OS generator has type (1,1), so F^1 is all of A^1 and the
    # logarithmic locus coincides with the usual one
    rep = log_resonance_membership(concurrent3(), [1, 1, -2])
    assert rep.member and rep.h1 == 1 and rep.filtration_dim == 3
    rep = log_resonance_membership(concurrent3(), [1, 1, 1])
    assert not rep.member and rep.h1 == 0


def test_log_resonance_elliptic_is_empty():
    m = elliptic_model(3)
    x = [GaussianRational(1), GaussianRational(-1), GaussianRational(0)]
    alpha = m.class_coords(x, [I * c for c in x])
    rep = log_resonance_membership(m.algebra, alpha)
    assert not rep.member and rep.h1 == 0 and rep.filtration_dim == 3


def test_log_resonance_zero_class_flagged():
    rep = log_resonance_membership(concurrent3(), [0, 0, 0])
    assert not rep.member and rep.zero_class and rep.h1 is None


@pytest.mark.parametrize("alpha", [[0], [0, 0, 0, 0], [1, 1]])
def test_log_resonance_checks_the_length_before_the_zero_class(alpha):
    with pytest.raises(PreconditionError) as err:
        log_resonance_membership(concurrent3(), alpha)
    assert str(err.value) == f"alpha needs 3 coordinates, got {len(alpha)}"


def test_log_resonance_outside_filtration():
    m = elliptic_model(2)
    alpha = m.class_coords([1, 0], [0, 0])  # a_1 mixes (1,0) and (0,1)
    with pytest.raises(PreconditionError, match="F\\^1"):
        log_resonance_membership(m.algebra, alpha)


def _log_resonance_by_solving(algebra, alpha):
    """Log resonance through the rows of hodge_subspace(1, 1): F^1
    membership by solving against them, the restricted differential as the
    product with their transpose.  None for a class outside F^1."""
    field = algebra.field
    alpha = [field.coerce(a) for a in alpha]
    f1 = algebra.hodge_subspace(1, 1)
    if not any(alpha):
        return LogResonanceReport(False, None, True, len(f1))
    if not f1:
        return None
    basis = Matrix(f1, field=field).transpose()
    if solve_linear(basis, alpha) is None:
        return None
    r, _ = rank_and_kernel(algebra.class_mult_matrix(alpha, 1).mul(basis))
    h1 = len(f1) - r - 1
    return LogResonanceReport(h1 >= 1, h1, False, len(f1))


def _os_classes(algebra, rng):
    n = algebra.dim(1)
    return [[0] * n, [1] * n, [1] + [0] * (n - 1), [1, -1] + [0] * (n - 2)] + [
        [rng.randint(-3, 3) for _ in range(n)] for _ in range(6)]


def _elliptic_classes(model, rng):
    n = model.n
    out = [([0] * n, [0] * n)]
    for _ in range(4):
        c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        out.append((c, [I * v for v in c]))        # in F^1
        out.append((c, [-I * v for v in c]))       # type (0, 1)
        out.append((c, [Fraction(0)] * n))         # mixed
    c = [Fraction(1), Fraction(-1)] + [Fraction(0)] * (n - 2)
    out.append((c, [I * v for v in c]))
    return [model.class_coords(x, y) for x, y in out]


@pytest.mark.parametrize("name", [
    "three_points", "concurrent3", "generic3", "six_planes",
    "elliptic3", "elliptic4"])
def test_log_resonance_matches_the_subspace_route(name):
    rng = random.Random(f"log-resonance:{name}")
    if name.startswith("elliptic"):
        model = elliptic_model(int(name[-1]))
        algebra, classes = model.algebra, _elliptic_classes(model, rng)
    else:
        algebra = {"three_points": three_points, "concurrent3": concurrent3,
                   "six_planes": six_planes,
                   "generic3": lambda: os_algebra(Arrangement(
                       2, [[0, 1, 0], [0, 0, 1], [-1, 1, 1]]))}[name]()
        classes = _os_classes(algebra, rng)
    outside = 0
    for alpha in classes:
        want = _log_resonance_by_solving(algebra, alpha)
        if want is None:
            outside += 1
            with pytest.raises(PreconditionError, match="F\\^1"):
                log_resonance_membership(algebra, alpha)
        else:
            assert log_resonance_membership(algebra, alpha) == want
    assert outside == (8 if name.startswith("elliptic") else 0)


def test_euler_is_alpha_independent():
    A = concurrent3()
    seen = set()
    for alpha in ([1, 1, -2], [1, 1, 1], [0, 0, 0], [5, -3, 2]):
        h = AomotoComplex(A, alpha).cohomology_dims()
        seen.add(sum((-1) ** d * x for d, x in enumerate(h)))
    assert seen == {A.euler()}


def test_scaling_invariance():
    A = six_planes()
    base = AomotoComplex(
        A, [Fraction(c) for c in [1, 0, 0, 0, -1, 0]]).cohomology_dims()
    for c in (2, -1, Fraction(7, 3)):
        scaled = [Fraction(x) * c for x in [1, 0, 0, 0, -1, 0]]
        assert AomotoComplex(A, scaled).cohomology_dims() == base


def test_composition_zero_across_fields():
    m = elliptic_model(3)
    x = [GaussianRational(1), GaussianRational(2), GaussianRational(-3)]
    alpha = m.class_coords(x, [I * c for c in x])
    cx = AomotoComplex(m.algebra, alpha)
    assert cx.matrices[1].mul(cx.matrices[0]).is_zero()
