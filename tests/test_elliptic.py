"""Configuration spaces of points on a genus-one curve: model, scroll,
Hodge decomposition, and the filtered second page."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from elliptic_oracle import diagonal_class
from jumploci import elliptic, exterior, scalars
from jumploci.aomoto import AomotoComplex
from jumploci.elliptic import (
    EllipticModel, _diagonal_relation, _e2_from_blocks, e2_page,
    elliptic_model, hodge_decompose, scroll_membership, tangent_pair_basis)
from jumploci.errors import PreconditionError
from jumploci.exterior import Multivector, wedge
from jumploci.scalars import (QI, GaussianRational, Matrix, rank,
                              rank_and_kernel, rref)

I = GaussianRational(0, 1)
ZERO = GaussianRational(0)


def gi(*vals):
    return [GaussianRational(v) for v in vals]


def test_model_dimensions():
    m2 = elliptic_model(2)
    assert m2.algebra.dim(1) == 4
    assert len(m2.diagonal_pairs) == 1
    assert m2.algebra.dim(2) == 5

    m3 = elliptic_model(3)
    assert m3.algebra.dims() == (1, 6, 12)
    assert len(m3.diagonal_pairs) == 3


def test_out_of_range_n():
    with pytest.raises(PreconditionError):
        elliptic_model(1)
    with pytest.raises(PreconditionError):
        elliptic_model(33)
    with pytest.raises(PreconditionError):
        elliptic_model(3, top=-1)


def test_diagonal_classes_are_type_one_one():
    m = elliptic_model(3)
    for cls in (diagonal_class(3, k, l) for k, l in m.diagonal_pairs):
        for mask in cls.terms:
            assert m.algebra.monomial_hodge_type(mask) == (1, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_diagonal_classes_are_multiples_of_the_rational_relations(n):
    # the model is built from one rational relation per diagonal: the
    # Kunneth class over its coefficient at the lowest monomial, which is
    # i/2 (the closed form)
    m = elliptic_model(n)
    relations = m.algebra.ideal_gens
    assert len(relations) == len(m.diagonal_pairs)
    for (k, l), relation in zip(m.diagonal_pairs, relations):
        diagonal = diagonal_class(n, k, l)
        lead = diagonal.terms[min(diagonal.terms)]
        assert lead == I / 2
        assert relation.terms[min(relation.terms)] == 1
        assert all(type(c) in (int, Fraction) for c in relation.terms.values())
        assert relation.scale(lead) == diagonal


def _gaussian_quotient(m, d):
    """Basis and projections in degree d from the Q(i) RREF of the Kunneth
    diagonal classes times every monomial of degree d - 2."""
    ngens = 2 * m.n
    monos = m.algebra.monomials[d]
    index = {mask: k for k, mask in enumerate(monos)}
    rows = []
    for g in (diagonal_class(m.n, k, l) for k, l in m.diagonal_pairs):
        for c in combinations(range(ngens), d - 2) if d >= 2 else ():
            w = wedge(g, Multivector.monomial(ngens, c))
            if not w.is_zero():
                row = [ZERO] * len(monos)
                for mask, coeff in w.terms.items():
                    row[index[mask]] = coeff
                rows.append(row)
    _, pivots, rrows = rref(rows, QI) if rows else (0, (), [])
    keep = [k for k in range(len(monos)) if k not in pivots]
    position = {k: j for j, k in enumerate(keep)}
    proj = []
    for k in range(len(monos)):
        if k in pivots:
            row = rrows[pivots.index(k)]
            proj.append(tuple((position[j], -row[j]) for j in keep if row[j]))
        else:
            proj.append(((position[k], 1),))
    return [monos[k] for k in keep], proj


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("top", [2, 3])
def test_rational_build_matches_the_gaussian_rref_of_the_diagonals(n, top):
    m = elliptic_model(n, top)
    for d in range(top + 1):
        basis, proj = _gaussian_quotient(m, d)
        den, cols = m.algebra.proj[d]
        assert basis == m.algebra.basis[d]
        assert proj == [tuple((j, Fraction(c, den)) for j, c in col)
                        for col in cols]


# every n = 2..8 at each top <= 4, and n = 2..4 through top 2n, the top
# degree of the exterior algebra
CORPUS = [(n, top) for n in range(2, 9) for top in range(5)]
CORPUS += [(n, top) for n in range(2, 5) for top in range(5, 2 * n + 1)]


def test_elliptic_models_are_pinned_bit_for_bit():
    # the SHA-256 of every model in CORPUS (top, monomials, basis,
    # projections, relations and Hodge types) as the elimination build of
    # the diagonal relations gave it; straightening must change none of it
    values = []
    for n, top in CORPUS:
        a = elliptic_model(n, top).algebra
        values.append((a.top, a.monomials, a.basis, a.proj,
                       [sorted(g.terms.items()) for g in a.ideal_gens],
                       a.hodge_types))
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "12dd1a7dcd4c0968944c5cb28cf9a3d5210c7d54f067c314f68b743dac934ffd")


def test_elliptic_model_runs_no_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("EllipticModel eliminated")
    for module, name in ((scalars, "_rref_parts"), (exterior, "_rref_parts"),
                         (exterior, "build_quotient_algebra"),
                         (elliptic, "build_quotient_algebra")):
        monkeypatch.setattr(module, name, refuse)
    assert EllipticModel(6, 3).algebra.dims() == (1, 12, 51, 110)


def test_straightening_refuses_relations_missing_a_rule():
    # without the element solved for u_0 v_1 no rule rewrites it, and the
    # (0, 1) diagonal relation does not straighten to zero in degree 2
    n = 4
    pairs = list(combinations(range(n), 2))
    gens = [_diagonal_relation(n, k, l) for k, l in pairs]
    last = {k: _diagonal_relation(n, k, n - 1) for k in range(n - 1)}
    rels = [g if l == n - 1 else g - last[k]
            for (k, l), g in zip(pairs, gens) if (k, l) != (0, 1)]
    with pytest.raises(AssertionError, match="generator .* degree 2"):
        exterior._straighten(2 * n, 2, gens, rels)


def test_coordinate_roundtrip():
    m = elliptic_model(3)
    x, y = gi(1, -2, 1), gi(0, 5, -5)
    coords = m.class_coords(x, y)
    assert m.xy_of_coords(coords) == (tuple(x), tuple(y))


def test_scroll_examples():
    assert scroll_membership(3, gi(1, -1, 0), gi(2, -2, 0)).member
    verdict = scroll_membership(3, gi(1, -1, 0), gi(0, 1, -1))
    assert not verdict.member and "minor" in verdict.reason
    verdict = scroll_membership(3, gi(1, 0, 0), gi(0, 0, 0))
    assert not verdict.member and "sum" in verdict.reason
    with pytest.raises(PreconditionError):
        scroll_membership(3, gi(1, -1), gi(0, 0, 0))


def test_scroll_point_outside_every_tangent_pair():
    # rank-one witness not proportional to any e_i - e_j: the inclusion of
    # the tangent cone into the resonance locus is strict here
    x = gi(1, 1, -2)
    y = gi(2, 2, -4)
    assert scroll_membership(3, x, y).member
    for i in range(3):
        for j in range(i + 1, 3):
            e = [ZERO] * 3
            e[i], e[j] = GaussianRational(1), GaussianRational(-1)
            assert rank(Matrix([e, x])) == 2


def test_resonance_on_and_off_the_scroll():
    m = elliptic_model(3)

    def h1(x, y):
        cx = AomotoComplex(m.algebra, m.class_coords(x, y))
        return cx.cohomology_dims()[1]

    assert h1(gi(1, -1, 0), gi(2, -2, 0)) >= 1      # rank one, zero sums
    assert h1(gi(1, 1, -2), [I * c for c in gi(1, 1, -2)]) >= 1
    assert h1(gi(1, -1, 0), gi(0, 1, -1)) == 0       # full rank
    # a pure class with nonzero coordinate sum is off the scroll and not
    # resonant: the zero-sum conditions are part of the locus
    assert h1(gi(1, 0, 0), [I, ZERO, ZERO]) == 0


def test_hodge_decompose_pure_class():
    m = elliptic_model(3)
    x = gi(1, 0, 0)
    y = [I, ZERO, ZERO]
    split = hodge_decompose(m, x, y)
    assert split.pure10 == (tuple(x), tuple(y))
    assert all(not c for pair in split.pure01 for c in pair)
    assert all(not c for pair in split.pure11 for c in pair)


def test_hodge_decompose_mixed_class():
    m = elliptic_model(3)
    half = GaussianRational(1) / GaussianRational(2)
    split = hodge_decompose(m, gi(1, 0, 0), gi(0, 0, 0))
    (u, lu), (v, lv) = split.pure10, split.pure01
    assert u[0] == half and lu[0] == I * half
    assert v[0] == half and lv[0] == -I * half
    # components recompose to the input
    for k in range(3):
        assert u[k] + v[k] == (1 if k == 0 else 0)
        assert lu[k] + lv[k] == ZERO


def test_hodge_decompose_zero():
    m = elliptic_model(2)
    split = hodge_decompose(m, gi(0, 0), gi(0, 0))
    assert all(not c for pair in split.pure10 for c in pair)
    assert all(not c for pair in split.pure01 for c in pair)


def test_tangent_pairs_sit_in_the_scroll():
    for i in range(3):
        for j in range(i + 1, 3):
            (x1, y1), (x2, y2) = tangent_pair_basis(3, i, j)
            for s, t in ((1, 0), (0, 1), (1, 1), (2, -3)):
                x = [s * a + t * b for a, b in zip(x1, x2)]
                y = [s * c + t * d for c, d in zip(y1, y2)]
                assert scroll_membership(3, x, y).member


def test_distinct_tangent_pairs_meet_only_at_zero():
    m = elliptic_model(3)
    spans = {}
    for i in range(3):
        for j in range(i + 1, 3):
            (x1, y1), (x2, y2) = tangent_pair_basis(3, i, j)
            spans[(i, j)] = [m.class_coords(x1, y1), m.class_coords(x2, y2)]
    pairs = sorted(spans)
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            stacked = Matrix(spans[pairs[a]] + spans[pairs[b]])
            assert rank(stacked) == 4


def test_e2_page_values():
    m = elliptic_model(3)
    x = gi(1, -1, 0)
    rep = e2_page(m, x, [I * c for c in x])
    assert rep.entries[(1, 0)] == 0
    assert rep.entries[(0, 1)] == 1
    assert rep.h == (0, 1, 3)
    assert rep.consistent
    for deg in range(3):
        assert sum(rep.entries[(p, deg - p)] for p in range(deg + 1)) \
            == rep.h[deg]


def _e2_by_intersection(n, x):
    """E_2 entries and h from the definitions: F^p as the span of the
    projected monomials of first index >= p, and dim(V intersect F^p) as
    dim V + dim F^p - dim(V + F^p)."""
    deep = elliptic_model(n, top=3)
    A = deep.algebra
    cx = AomotoComplex(A, deep.class_coords(x, [I * c for c in x]))

    def dim(rows):
        return rank(rows, QI) if rows else 0

    entries = {}
    for m in range(3):
        _, cocycles = rank_and_kernel(cx.matrices[m])
        prev = cx.matrices[m - 1] if m else Matrix([], field=QI)
        bounds = [prev.col(j) for j in range(prev.ncols)]
        fdims = []
        for p in range(m + 2):
            fp = [A.project(Multivector(A.ngens, [(mono, 1)]), m)
                  for mono in A.monomials[m]
                  if A.monomial_hodge_type(mono)[0] >= p]
            fdims.append(sum(
                sign * (dim(v) + dim(fp) - dim(list(v) + fp))
                for sign, v in ((1, cocycles), (-1, bounds))))
        for p in range(m + 1):
            entries[(p, m - p)] = fdims[p] - fdims[p + 1]
    return entries, cx.cohomology_dims()[:3]


@pytest.mark.parametrize("x", [
    (1, -1, 0), (1, 2, 0), (2, -1, -1),
    (1, 2, -3, 0), (1, 1, 1, 1),
    (GaussianRational(1, 2), GaussianRational(0, -1), 3),
])
def test_e2_page_matches_subspace_intersection(x):
    x = [QI.coerce(c) for c in x]
    rep = e2_page(elliptic_model(len(x)), x, [I * c for c in x])
    assert (rep.entries, rep.h) == _e2_by_intersection(len(x), x)
    assert rep.consistent


def test_e2_blocks_catch_a_class_that_leaves_the_bigrading():
    # alpha = (x, y) with y != i x has parts of type (1, 0) and (0, 1), so
    # the bigraded blocks of alpha wedge miss some of its rank
    deep = elliptic_model(3, top=3)
    A = deep.algebra
    cx = AomotoComplex(A, deep.class_coords(gi(1, 0, -1), gi(0, 2, -2)))
    assert not _e2_from_blocks(cx).consistent

    def of_type(p, m):
        return [j for j, mono in enumerate(A.basis[m])
                if A.monomial_hodge_type(mono)[0] == p]

    sums = tuple(sum(cx.restricted_rank(m, rows=of_type(p + 1, m + 1),
                                        cols=of_type(p, m))
                     for p in range(m + 1))
                 for m in range(3))
    assert sums == (1, 4, 5)
    assert cx.ranks()[:3] == (1, 5, 7)


def test_e2_page_rejects_bad_alpha():
    m = elliptic_model(3)
    with pytest.raises(PreconditionError, match="F\\^1"):
        e2_page(m, gi(1, -1, 0), gi(1, -1, 0))
    with pytest.raises(PreconditionError):
        e2_page(m, gi(0, 0, 0), gi(0, 0, 0))


def test_scroll_equivalence_spot_checks():
    # membership matches h^1 >= 1 on a few handpicked classes of each kind
    m = elliptic_model(4)

    def h1(x, y):
        cx = AomotoComplex(m.algebra, m.class_coords(x, y))
        return cx.cohomology_dims()[1]

    cases = [
        (gi(1, -1, 0, 0), gi(-3, 3, 0, 0)),
        (gi(1, 2, -3, 0), gi(2, 4, -6, 0)),
        (gi(1, -1, 0, 0), gi(0, 0, 1, -1)),
        (gi(1, 0, 0, 0), gi(0, -1, 0, 0)),
    ]
    for x, y in cases:
        verdict = scroll_membership(4, x, y)
        assert verdict.member == (h1(x, y) >= 1), (x, y)
