"""The complex (A*, alpha wedge): cohomology, resonance, log resonance."""

import copy
import functools
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

import random

import aomoto_oracle as oracle
from jumploci import aomoto, exterior, scalars
from jumploci.aomoto import (
    AomotoComplex, LogResonanceReport, generic_dims_sample, isotropic_check,
    log_resonance_membership, resonance_membership)
from jumploci.arrangement import Arrangement, os_algebra, points_arrangement
from jumploci.elliptic import (EllipticModel, e2_page, elliptic_model,
                               tangent_pair_basis)
from jumploci.errors import PreconditionError
from jumploci.exterior import build_quotient_algebra
from jumploci.scalars import (
    DEFAULT_PRIME, GF, BadPrimeError, GaussianRational, Matrix,
    rank_and_kernel, solve_linear)
from jumploci.verify import (SIXPLANES_FORMS, _composes_to_zero,
                             check_structural_invariants)

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
    assert all(row == {} for part in cx.parts for row in part)
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
    assert _composes_to_zero(cx.parts[1], cx.parts[0])
    assert cx.euler_matches()
    assert AomotoComplex(A, [1, 1, 1]).cohomology_dims() == (0, 0, 0)


def test_ranks_leave_the_kernel_echelons_unbuilt(monkeypatch):
    # the ranks stop after the forward pass, on the full route (the affine
    # grid x = 0, 1, y = 0, 1, whose monomial relations refuse both
    # boundary routes), on the quotient route (sum alpha = 0 on a central
    # arrangement) and on the homotopy route, and assemble only the blocks
    # they rank, so neither the echelons nor the full differentials
    # (`parts`) are built; the kernels, asked for afterwards, are read off
    # reduced echelon forms and are the ones rank_and_kernel gives on the
    # Fraction matrices
    grid = os_algebra(Arrangement(2, [[0, 1, 0], [-1, 1, 0], [0, 0, 1],
                                      [-1, 0, 1]]))
    for algebra, alpha, route, dims in (
            (grid, [1, -1, 1, -1], "full", (0, 0, 1)),
            (six_planes(), [1, 1, 1, -1, 0, -2], "quotient", (0, 0, 0, 2, 2)),
            (six_planes(), [1, 1, 1, 1, 1, 1], "homotopy", (0, 0, 0, 0, 0))):
        cx = AomotoComplex(algebra, alpha)
        assert cx.route == route
        assert cx.cohomology_dims() == dims
        assert "_echelons" not in vars(cx) and "parts" not in vars(cx)
        kernels = cx.kernels()
        ref = oracle.OracleComplex(algebra, alpha)
        assert (cx.ranks(), kernels) == (ref.ranks, ref.kernels)
        for d, (r, kernel) in enumerate(zip(cx.ranks(), kernels)):
            assert len(kernel) == algebra.dim(d) - r

    # e2_page and LR_1 build their complexes inside: a full differential
    # asked for there would raise
    def refuse(self):
        raise AssertionError("a full differential was assembled")
    monkeypatch.setattr(AomotoComplex, "parts", property(refuse))
    m = elliptic_model(4)
    assert e2_page(m, [1, -1, 1, -1], [I, -I, I, -I]).h == (0, 1, 4)
    rep = log_resonance_membership(
        m.algebra, m.class_coords([1, -1, 0, 0], [I, -I, 0, 0]))
    assert (rep.member, rep.h1) == (False, 0)
    rep = log_resonance_membership(concurrent3(), [1, 1, -2])
    assert (rep.member, rep.h1) == (True, 1)


@functools.cache
def block_algebras():
    """Algebras over each field whose differentials are assembled by block:
    braid A3 and A4 and the six planes over QQ, elliptic_model(4) over
    QQ(i), and two of them read mod p."""
    braid4 = os_algebra(Arrangement(5, [
        [1 if k == i else -1 if k == j else 0 for k in range(5)]
        for i, j in combinations(range(5), 2)], central=True))
    planes, model = six_planes(), elliptic_model(4).algebra
    return (os_algebra(braid3()), braid4, planes, model,
            aomoto.reduce_algebra_mod(planes, 101)[0],
            aomoto.reduce_algebra_mod(model, 13)[0])


@st.composite
def blocks(draw):
    algebra = draw(st.sampled_from(block_algebras()))
    d = draw(st.integers(0, algebra.top))
    p = getattr(algebra.field, "p", None)
    entries = st.integers(0, p - 1) if p else st.integers(-3, 3)
    n1 = algebra.dim(1)
    alpha = [draw(st.lists(entries, min_size=n1, max_size=n1))
             for _ in range(2 if algebra.field is scalars.QI else 1)]

    def positions(n):
        # distinct positions in any order, empty included
        return st.none() | st.lists(st.sampled_from(range(n)), unique=True)
    rows = draw(positions(algebra.dim(d + 1)) if algebra.dim(d + 1)
                else st.sampled_from([None, []]))
    cols = draw(positions(algebra.dim(d)))
    return algebra, alpha, d, rows, cols


@given(blocks())
@settings(max_examples=150, deadline=None)
def test_a_block_is_the_slice_of_the_full_differential(case):
    algebra, alpha, d, rows, cols = case
    full = algebra.class_mult_parts(alpha, d)
    rows_ = range(algebra.dim(d + 1)) if rows is None else rows
    cols_ = range(algebra.dim(d)) if cols is None else cols
    # sparse rows: block row k holds the entries of full row rows_[k] on
    # cols_, keyed by their block columns
    assert algebra.class_mult_parts(alpha, d, rows, cols) == [
        {j: full[r][c] for j, c in enumerate(cols_) if c in full[r]}
        for r in rows_]


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


def test_generic_dims_refuses_rows_that_lose_rank_mod_p():
    # (p, 2p, 0) is a nonzero multiple of (1, 2, 0) whose image mod p is 0:
    # the images would span only the line of (1, -1, 0), where h^1 = 1
    p = DEFAULT_PRIME
    with pytest.raises(BadPrimeError,
                       match=f"rank 2 over QQ but their images mod {p} "
                             "have rank 1"):
        generic_dims_sample(concurrent3(), subspace=[[p, 2 * p, 0],
                                                     [1, -1, 0]], trials=5)
    with pytest.raises(BadPrimeError, match="rank 1 over QQ .* rank 0"):
        generic_dims_sample(concurrent3(), subspace=[[p, -p, 0]], trials=5)
    # the same plane with rows that keep their rank, and the exact Aomoto
    # complex at a point of it, give the generic dims
    rep = generic_dims_sample(concurrent3(), subspace=[[1, 2, 0], [1, -1, 0]],
                              trials=5)
    assert rep.dims == (0, 0, 0)
    assert resonance_membership(concurrent3(), [2, 1, 0], 1).dims == (0, 0, 0)


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
    A = build_quotient_algebra(3, [{0b011: 13, 0b101: 1}], 3)
    assert A.basis[2] == [0b101, 0b110]
    with pytest.raises(BadPrimeError, match="basis in degree 2 moves mod 13"):
        generic_dims_sample(A, prime=13, trials=5)
    assert generic_dims_sample(A, prime=17, trials=5).dims == (0, 0, 0, 0)


@pytest.mark.parametrize("terms", [
    # (1/13) e0e1 + e0e2: its RREF row is e0e1 + 13 e0e2, so den_2 = 1
    {0b011: Fraction(1, 13), 0b101: 1},
    # 13 e0e1: the ideal's rank drops mod 13, but no den is divisible by it
    {0b011: 13}])
def test_reduction_accepts_a_prime_that_divides_no_denominator(terms):
    # the samples run on the rational table read mod 13, A tensor F_13
    A = build_quotient_algebra(3, [terms], 3)
    assert all(den == 1 for den, _ in A.proj)
    for seed, subspace in product(range(3), (None, [[1, 2, 3]])):
        at13, at17 = (generic_dims_sample(A, subspace, trials=5, prime=p,
                                          seed=seed) for p in (13, 17))
        assert at13.prime == 13 and at13.dims == at17.dims == (0, 0, 0, 0)


def test_reduction_runs_no_elimination(monkeypatch):
    A = six_planes()

    def refuse(*args, **kwargs):
        raise AssertionError("reduce_algebra_mod eliminated")
    for module, name in ((scalars, "_rref_parts"), (scalars, "_rref_exact"),
                         (scalars, "rref"), (exterior, "_rref_parts"),
                         (exterior, "build_quotient_algebra"),
                         (aomoto, "build_quotient_algebra")):
        monkeypatch.setattr(module, name, refuse)
    structure = A.structure_constants(1)
    reduced, i_res = aomoto.reduce_algebra_mod(A, 101)
    assert reduced.field is GF(101) and i_res is None
    assert reduced.basis is A.basis and reduced.proj is A.proj
    assert reduced.structure_constants(1) is structure
    # the boundary checks ran once, on the rational algebra, for every p
    assert reduced.boundary_split() is A.boundary_split()
    assert A.boundary_split()[0] and A.boundary_split()[1] is not None


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


def test_isotropy_takes_more_than_64_generators():
    # x = 0 and the 65 lines y = k: e0 e1 != 0, and parallel e1 e2 = 0;
    # a product of lifted classes once refused more than 64 generators
    A = os_algebra(Arrangement(2, [[0, 1, 0]] + [[-k, 0, 1]
                                                 for k in range(65)]))
    assert A.dims() == (1, 66, 65)
    e = [[int(i == j) for i in range(66)] for j in range(3)]
    rep = isotropic_check(A, e)
    assert rep.witness[:2] == (0, 1) and any(rep.witness[2])
    assert isotropic_check(A, e[1:]).isotropic


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
    basis = Matrix(list(zip(*f1)), field=field)
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
    assert _composes_to_zero(cx.parts[1], cx.parts[0])
    # over QQ(i) the rows hold (re, im) pairs, and a corrupted pair shows
    outer = [dict(row) for row in cx.parts[1]]
    k, j = next((k, j) for k, row in enumerate(outer) for j in row)
    outer[k][j] = (outer[k][j][0], outer[k][j][1] + 1)
    assert not _composes_to_zero(outer, cx.parts[0])


def test_criterion_8_fails_on_a_corrupted_differential(monkeypatch):
    # criterion 8 multiplies the differentials' integer rows: one entry of
    # each map out of degree 0 doubled (or set, where it was zero) makes
    # it report a composition failure
    exact = exterior.GradedAlgebra.class_mult_parts

    def corrupted(self, alpha, d, rows=None, cols=None):
        block = exact(self, alpha, d, rows, cols)
        if d == 0 and block:
            v = block[0].get(0)
            if v is None:
                v = 1 if len(alpha) == 1 else (1, 0)
            else:
                v = 2 * v if type(v) is int else (2 * v[0], 2 * v[1])
            block[0] = {0: v}
        return block
    monkeypatch.setattr(exterior.GradedAlgebra, "class_mult_parts",
                        corrupted)
    result = check_structural_invariants(0)
    assert not result.passed
    kinds = {kind for _name, _t, kind in result.details["failures"]}
    assert "composition" in kinds


# ------------------------------------------- the three routes of `ranks`

def assert_oracle_ranks(algebra, alpha, route):
    cx = AomotoComplex(algebra, alpha)
    assert cx.route == route
    ref = oracle.OracleComplex(algebra, alpha)
    assert cx.ranks() == ref.ranks
    assert cx.cohomology_dims() == ref.cohomology_dims()


@st.composite
def central_classes(draw):
    """A central arrangement of 3 to 6 planes in C^2 or C^3 with small
    integer forms, its OS algebra built through a drawn top degree (so the
    truncation is reached), over QQ or a small F_p, and an integer class
    whose sum is drawn to be 0, p (0 mod p, not over QQ) or anything."""
    ambient = draw(st.integers(2, 3))
    forms = []
    for form in draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=ambient, max_size=ambient),
            min_size=3, max_size=6)):
        try:  # a zero form or a repeated hyperplane is no new plane
            Arrangement(ambient, forms + [form], central=True)
        except PreconditionError:
            continue
        forms.append(form)
    assume(len(forms) >= 3)
    arr = Arrangement(ambient, forms, central=True)
    algebra = os_algebra(arr, top=draw(st.integers(1, arr.rank())))
    prime = draw(st.sampled_from([None, 2, 3, 5, 7]))
    alpha = draw(st.lists(st.integers(-3, 3), min_size=len(forms),
                          max_size=len(forms)))
    total = draw(st.sampled_from([None, 0, prime or 1]))
    if total is not None:
        alpha[-1] = total - sum(alpha[:-1])
    if prime is not None:
        try:
            algebra, _ = aomoto.reduce_algebra_mod(algebra, prime)
        except BadPrimeError:
            assume(False)
    return algebra, alpha, prime


@given(central_classes())
@settings(max_examples=120, deadline=None)
def test_central_ranks_match_the_oracle_on_both_boundary_routes(case):
    # the boundary derivation descends on every central OS algebra, and the
    # route turns on sum alpha as an element of the field: a unit over QQ
    # may be 0 mod p
    algebra, alpha, prime = case
    total = sum(alpha) % prime if prime else sum(alpha)
    assert_oracle_ranks(algebra, alpha, "homotopy" if total else "quotient")


@pytest.mark.parametrize("n, top", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_elliptic_ranks_match_the_oracle_on_both_boundary_routes(n, top):
    # D kills every diagonal relation; sum alpha over the u, v coordinates
    # is sum x, so a class with sum x = 0 takes the quotient route
    model = elliptic_model(n, top)
    rng = random.Random(f"boundary-routes:{n}:{top}")

    def gaussian():
        return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                rng.randint(-2, 2))
    for trial in range(8):
        x = [gaussian() for _ in range(n)]
        y = [gaussian() for _ in range(n)] if trial % 4 else [I * v for v in x]
        if trial % 2:
            x[-1] = -sum(x[:-1], GaussianRational(0))
        route = "homotopy" if any(x) and sum(x, GaussianRational(0)) \
            else "quotient"
        assert_oracle_ranks(model.algebra, model.class_coords(x, y), route)


def test_homotopy_route_is_zero_out_of_the_truncation():
    # built through degree 1, concurrent3 at sum alpha != 0 is exact in
    # degree 0 only: h^1 = 3 - 1 is the truncation's, not A's h^1 = 0
    A = os_algebra(Arrangement(2, [[1, 0], [0, 1], [1, 1]]), top=1)
    assert_oracle_ranks(A, [1, 1, 1], "homotopy")
    assert AomotoComplex(A, [1, 1, 1]).cohomology_dims() == (0, 2)


def braid3():
    """x_i - x_j in C^4: rank 3, so a build through degree 2 is truncated."""
    return Arrangement(4, [[1 if k == i else -1 if k == j else 0
                            for k in range(4)]
                           for i in range(4) for j in range(i + 1, 4)],
                       central=True)


def test_truncated_top_degree_is_refused():
    # d_2 of the build through degree 2 is the truncation's zero map, so it
    # reported h^2 = 6 and membership where the full build has h = 0
    alpha = [1, 2, 3, 4, 5, 7]
    full, cut = os_algebra(braid3()), os_algebra(braid3(), top=2)
    assert full.complete and not cut.complete
    rep = resonance_membership(full, alpha, 2)
    assert rep.dims == (0, 0, 0, 0) and not rep.member
    with pytest.raises(PreconditionError, match=(
            r"^degree 2 is the top of an algebra truncated at 2: h\^2 needs "
            r"A\^3, which was not built")):
        resonance_membership(cut, alpha, 2)
    # below the top the truncation answers as the full build does
    assert not resonance_membership(cut, alpha, 1).member


def test_truncated_elliptic_model_refuses_log_resonance():
    # at top 1, d_1 was the zero map, and c = (1, 2, -1) read h1 = 2
    c = [1, 2, -1]
    ic = [I * v for v in c]
    low, model = EllipticModel(3, top=1), EllipticModel(3, top=2)
    with pytest.raises(PreconditionError, match=(
            r"^degree 1 logarithmic resonance needs A\^2, which an algebra "
            r"truncated at 1 did not build")):
        log_resonance_membership(low.algebra, low.class_coords(c, ic))
    rep = log_resonance_membership(model.algebra, model.class_coords(c, ic))
    assert not rep.member and rep.h1 == 0


def test_complete_algebras_answer_at_their_top():
    # concurrent3 is built through its rank 2, three points through rank 1:
    # A^3 and A^2 vanish, so the zero map out of the top is the true one
    A = concurrent3()
    assert A.complete and A.top == 2
    rep = resonance_membership(A, [1, -1, 0], 2)
    assert rep.dims == (0, 1, 1) and rep.member
    B = three_points()
    assert B.complete and B.top == 1
    assert log_resonance_membership(B, [1, 1, -2]) == LogResonanceReport(
        True, 2, False, 3)
    assert resonance_membership(B, [1, 1, -2], 1).dims == (0, 2)
    # a quotient is complete when built through degree ngens, an elliptic
    # model through degree 2n
    assert build_quotient_algebra(3, [], 3).complete
    assert not build_quotient_algebra(3, [], 2).complete
    assert EllipticModel(2, top=9).algebra.complete
    assert not EllipticModel(2, top=3).algebra.complete


def test_affine_monomial_relations_refuse_the_boundary_routes():
    # x = 0 and x = 1 are parallel, so e0 e1 = 0 and D(e0 e1) = e1 - e0 is
    # no relation: D does not descend, and alpha = e0 with sum 1 is not
    # acyclic
    A = os_algebra(Arrangement(2, [[0, 1, 0], [-1, 1, 0], [0, 0, 1]]))
    assert A.boundary_split() == (False, None)
    assert_oracle_ranks(A, [1, 0, 0], "full")
    assert AomotoComplex(A, [1, 0, 0]).cohomology_dims() == (0, 1, 1)
    assert_oracle_ranks(A, [1, -1, 0], "full")


def test_an_adjoined_monomial_refuses_the_boundary_routes():
    A3 = os_algebra(Arrangement(4, [[1, -1, 0, 0], [1, 0, -1, 0],
                                    [1, 0, 0, -1], [0, 1, -1, 0],
                                    [0, 1, 0, -1], [0, 0, 1, -1]]))
    A = build_quotient_algebra(6, [*A3.ideal_gens, {0b11: 1}], 3)
    assert A.boundary_split() == (False, None)
    for alpha in ([1, 0, 0, 0, 0, 0], [2, 1, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0]):
        assert_oracle_ranks(A, alpha, "full")
    # sum alpha = 1, and yet h^1 = 1
    assert AomotoComplex(A, [1, 0, 0, 0, 0, 0]).cohomology_dims() \
        == (0, 1, 3, 0)


def test_quotient_route_needs_e_j_a_to_be_a_coordinate_subspace():
    # double one structure constant of e_j: D still descends, but e_j no
    # longer sends a basis monomial to +-den at a basis monomial
    A = concurrent3()
    assert A.boundary_split() == (True, [[0], [0, 1], []])
    broken = copy.copy(A)
    broken._boundary = None
    den, cols = A.structure_constants(0)
    (k, c), = cols[-1][0]
    gens = list(cols)
    gens[-1] = [((k, 2 * c),)]
    broken._structure = {**A._structure, 0: (den, gens)}
    assert broken.boundary_split() == (True, None)
    assert A.boundary_split() == (True, [[0], [0, 1], []])


def test_the_empty_arrangement_takes_the_full_route():
    # no generator, so no e_j to split by
    A = os_algebra(Arrangement(2, []))
    assert A.boundary_split() == (True, None)
    assert_oracle_ranks(A, [], "full")
    assert AomotoComplex(A, []).cohomology_dims() == (1,)
