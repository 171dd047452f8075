"""Configuration spaces of points on a genus-one curve: model, scroll,
Hodge decomposition, and the filtered second page."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from aomoto_oracle import class_mult_matrix
from elliptic_oracle import diagonal_class
from exterior_oracle import add, positional, project, scale, wedge
from jumploci import elliptic, exterior, scalars
from jumploci.aomoto import (AomotoComplex, reduce_algebra_mod,
                             resonance_membership)
from jumploci.arrangement import os_algebra, points_arrangement
from jumploci.elliptic import (
    EllipticModel, _diagonal_relation, _e2_from_blocks, e2_page,
    elliptic_model, hodge_decompose, scroll_membership, tangent_pair_basis)
from jumploci.errors import PreconditionError
from jumploci.exterior import _mono_type
from jumploci.scalars import (QI, QQ, ClearedVector, FieldMismatchError,
                              GaussianRational, Matrix, _integral, rank,
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
        for mask in cls:
            assert _mono_type(mask, m.algebra.hodge_types) == (1, 1)


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
        lead = diagonal[min(diagonal)]
        assert lead == I / 2
        assert relation[min(relation)] == 1
        assert all(type(c) in (int, Fraction) for c in relation.values())
        assert scale(relation, lead) == diagonal


def _gaussian_quotient(m, d):
    """Basis and projections (keyed by mask) in degree d from the Q(i) RREF
    of the Kunneth diagonal classes times every monomial of degree d - 2."""
    ngens = 2 * m.n
    monos = [sum(1 << i for i in c) for c in combinations(range(ngens), d)]
    index = {mask: k for k, mask in enumerate(monos)}
    rows = []
    for g in (diagonal_class(m.n, k, l) for k, l in m.diagonal_pairs):
        for c in combinations(range(ngens), d - 2) if d >= 2 else ():
            w = wedge(g, {sum(1 << i for i in c): 1})
            if w:
                row = [ZERO] * len(monos)
                for mask, coeff in w.items():
                    row[index[mask]] = coeff
                rows.append(row)
    _, pivots, rrows = rref(rows, QI) if rows else (0, (), [])
    keep = [k for k in range(len(monos)) if k not in pivots]
    position = {k: j for j, k in enumerate(keep)}
    proj = {}
    for k, mask in enumerate(monos):
        if k in pivots:
            row = rrows[pivots.index(k)]
            proj[mask] = tuple((position[j], -row[j]) for j in keep if row[j])
        else:
            proj[mask] = ((position[k], 1),)
    return [monos[k] for k in keep], proj


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("top", [2, 3])
def test_rational_build_matches_the_gaussian_rref_of_the_diagonals(n, top):
    m = elliptic_model(n, top)
    for d in range(top + 1):
        basis, proj = _gaussian_quotient(m, d)
        den, cols = m.algebra.proj[d]
        assert basis == m.algebra.basis[d]
        assert proj == {mask: tuple((j, Fraction(c, den)) for j, c in col)
                        for mask, col in cols.items()}


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
        monomials, proj = positional(a)
        values.append((a.top, monomials, a.basis, proj,
                       [sorted(g.items()) for g in a.ideal_gens],
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


def test_elliptic_model_builds_no_multivector():
    # the diagonal relations and their differences are integer relations
    # {mask: int} from the builder to the straightening
    algebra = EllipticModel(4, 3).algebra
    assert algebra.dims() == (1, 8, 22, 28)
    assert all(type(g) is dict and all(type(c) is int for c in g.values())
               for g in algebra.ideal_gens)


def test_straightening_refuses_relations_missing_a_rule():
    # without the element solved for u_0 v_1 no rule rewrites it, and the
    # (0, 1) diagonal relation does not straighten to zero in degree 2
    n = 4
    pairs = list(combinations(range(n), 2))
    gens = [_diagonal_relation(k, l) for k, l in pairs]
    last = {k: _diagonal_relation(k, n - 1) for k in range(n - 1)}
    rels = [g if l == n - 1 else
            add(g, scale(last[k], -1))
            for (k, l), g in zip(pairs, gens) if (k, l) != (0, 1)]
    with pytest.raises(AssertionError, match="generator .* degree 2"):
        exterior._straighten(2 * n, QI, 2, gens, rels,
                             ((1, 0), (0, 1)) * n, False)


def test_coordinate_roundtrip():
    # class_coords writes (u_k, v_k) with x = u + v and y = i(u - v)
    m = elliptic_model(3)
    x, y = gi(1, -2, 1), gi(0, 5, -5)
    coords = list(m.class_coords(x, y))
    u, v = coords[0::2], coords[1::2]
    assert [a + b for a, b in zip(u, v)] == x
    assert [I * (a - b) for a, b in zip(u, v)] == y


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
    alpha = deep.class_coords(x, [I * c for c in x])
    cx = AomotoComplex(A, alpha)

    def dim(rows):
        return rank(rows, QI) if rows else 0

    entries = {}
    for m in range(3):
        _, cocycles = rank_and_kernel(class_mult_matrix(A, alpha, m))
        prev = class_mult_matrix(A, alpha, m - 1) if m else Matrix(
            [], field=QI)
        bounds = [tuple(r[j] for r in prev.entries)
                  for j in range(prev.ncols)]
        fdims = []
        for p in range(m + 2):
            fp = [project(A, {mono: 1}, m) for mono in A.proj[m][1]
                  if _mono_type(mono, A.hodge_types)[0] >= p]
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
                if _mono_type(mono, A.hodge_types)[0] == p]

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


# -- class coordinates and the scroll against the GaussianRational formulas --
#
# class_coords and scroll_membership compute on integer parts; the oracles
# below are the GaussianRational arithmetic they replaced, kept verbatim.

def old_class_coords(n, x, y):
    if len(x) != n or len(y) != n:
        raise PreconditionError(f"coordinate vectors must have length {n}")
    x, y = [QI.coerce(c) for c in x], [QI.coerce(c) for c in y]
    coords = []
    for a, b in zip(x, y):
        coords.append(GaussianRational((a.re + b.im) / 2, (a.im - b.re) / 2))
        coords.append(GaussianRational((a.re - b.im) / 2, (a.im + b.re) / 2))
    return tuple(coords)


def old_scroll_membership(n, x, y):
    if len(x) != n or len(y) != n:
        raise PreconditionError(f"vectors must have length {n}")
    x = [QI.coerce(c) for c in x]
    y = [QI.coerce(c) for c in y]
    sx = sum(x, QI.zero())
    if sx:
        return False, f"sum of x coordinates is {sx}, not 0"
    sy = sum(y, QI.zero())
    if sy:
        return False, f"sum of y coordinates is {sy}, not 0"
    for i in range(n):
        for j in range(i + 1, n):
            m = x[i] * y[j] - x[j] * y[i]
            if m:
                return False, f"minor x_{i+1} y_{j+1} - x_{j+1} y_{i+1} = {m}"
    return True, None


def outcome(f, *args):
    """The value of f(*args), or the type of the error it raised."""
    try:
        return f(*args)
    except PreconditionError as e:
        return type(e)


q_values = st.fractions(min_value=-50, max_value=50, max_denominator=12)
qi_values = st.one_of(
    st.integers(-5, 5), q_values, st.builds(GaussianRational, q_values),
    st.builds(GaussianRational, q_values, q_values))
# mostly good vectors of the model's length; sometimes a value outside
# Q(i) (FieldMismatchError) or a wrong length (PreconditionError)
bad_values = st.sampled_from([0.5, "1", None, 1j])
entries = st.one_of(qi_values, qi_values, qi_values, bad_values)


@st.composite
def xy_pairs(draw, n=4):
    def vector():
        k = draw(st.sampled_from([n] * 6 + [n - 1, n + 1]))
        good = draw(st.booleans())
        return draw(st.lists(qi_values if good else entries,
                             min_size=k, max_size=k))
    return vector(), vector()


@given(xy_pairs())
@settings(max_examples=100, deadline=None)
def test_class_coords_match_the_gaussian_formula(xy):
    m = elliptic_model(4)
    new, old = outcome(m.class_coords, *xy), outcome(old_class_coords, 4, *xy)
    assert new == old
    if isinstance(old, tuple):
        assert all(type(c) is GaussianRational and type(c.re) is Fraction
                   and type(c.im) is Fraction for c in new)
    else:
        assert old in (PreconditionError, FieldMismatchError)


def zero_sum(v):
    """v with its last entry replaced to make the sum 0, when v is a
    nonempty vector over Q(i)."""
    if not v or not all(isinstance(c, (int, Fraction, GaussianRational))
                        for c in v):
        return v
    return list(v[:-1]) + [-sum(v[:-1], QI.zero())]


@given(xy_pairs(), st.sampled_from(["as drawn", "zero sums", "rank one"]))
@settings(max_examples=100, deadline=None)
def test_scroll_verdicts_match_the_gaussian_formula(xy, shape):
    x, y = xy
    if shape != "as drawn":  # the minors decide
        x, y = zero_sum(x), zero_sum(y)
    if shape == "rank one" and x is not xy[0]:
        y = [GaussianRational(2, -1) * c for c in x]
    new = outcome(scroll_membership, 4, x, y)
    old = outcome(old_scroll_membership, 4, x, y)
    if isinstance(old, tuple):
        assert (new.member, new.reason) == old
    else:
        assert new == old


def test_scroll_minor_message_is_unchanged():
    verdict = scroll_membership(3, [Fraction(1, 2), Fraction(-1, 2), 0],
                                [GaussianRational(0, Fraction(1, 3)), 0,
                                 GaussianRational(0, Fraction(-1, 3))])
    assert verdict.reason == (
        "minor x_1 y_2 - x_2 y_1 = GaussianRational(0, 1/6)")


def eliminations(monkeypatch):
    """(field, read) of every elimination of `scalars._rref_exact`: QQ
    for rows of one integer part, QI for rows of (re, im) pairs; read is
    False for the rank-only calls, which stop after the forward pass."""
    calls, eliminate = [], scalars._rref_exact

    def counted(rows, ncols, read, field):
        calls.append((field, read))
        return eliminate(rows, ncols, read, field)
    monkeypatch.setattr(scalars, "_rref_exact", counted)
    return calls


def test_pure_classes_eliminate_on_one_part(monkeypatch):
    # alpha = (x, ix) with x real has u = x and v = 0: every matrix of its
    # complex is real, so no elimination carries an imaginary part, and the
    # E_2 page reads only ranks
    calls = eliminations(monkeypatch)
    x = [Fraction(1, 2), -3, 2, 0, Fraction(1, 2)]
    rep = e2_page(elliptic_model(5), x, [I * c for c in x])
    assert rep.consistent
    assert set(calls) == {(QQ, False)}


def test_gaussian_classes_eliminate_on_two_parts(monkeypatch):
    m = elliptic_model(5)
    alpha = m.class_coords([1, -1, 0, 0, 0], [0, 2, -2, 0, 0])
    cx = AomotoComplex(m.algebra, alpha)
    assert cx.route == "quotient"
    calls = eliminations(monkeypatch)
    resonance_membership(m.algebra, alpha, 1)
    assert (QI, False) in calls
    # the kernels read rows, on two parts as well
    calls.clear()
    AomotoComplex(m.algebra, alpha).kernels()
    assert (QI, True) in calls


# -- class_coords returns a cleared vector: integer parts over one den --

def _complex_reading(algebra, alpha):
    cx = AomotoComplex(algebra, alpha)
    return cx.route, cx.ranks(), cx.cohomology_dims(), cx.kernels()


@given(xy_pairs())
@settings(max_examples=100, deadline=None)
def test_class_vector_is_the_cleared_gaussian_formula(xy):
    m = elliptic_model(4)
    new, old = outcome(m.class_coords, *xy), outcome(old_class_coords, 4, *xy)
    if not isinstance(old, tuple):
        assert new is old
        return
    assert isinstance(new, ClearedVector)
    parts, den = _integral(QI, old)
    assert new.den == den > 0 and [list(p) for p in new.parts] == parts
    assert _integral(QI, new) == (new.parts, new.den)
    assert tuple(new) == old == new and len(new) == len(old) == 8
    assert new[::2] == old[::2] and new[-1] == old[-1]
    # the vector reaches the elimination as it is, and reads as its items
    assert _complex_reading(m.algebra, new) \
        == _complex_reading(m.algebra, tuple(new))


def test_cleared_vectors_are_immutable_sequences():
    v = elliptic_model(2).class_coords([1, Fraction(1, 3)],
                                       [0, GaussianRational(2, -1)])
    # u_2 = (1/3 - i(2 - i))/2 = -1/3 - i and v_2 = (1/3 + i(2 - i))/2
    assert v.den == 6 and v.parts == ((3, 3, -2, 4), (0, 0, -6, 6))
    assert list(v) == [GaussianRational(Fraction(1, 2)),
                       GaussianRational(Fraction(1, 2)),
                       GaussianRational(Fraction(-1, 3), -1),
                       GaussianRational(Fraction(2, 3), 1)]
    assert hash(v) == hash(tuple(v)) and v.index(v[2]) == 2
    with pytest.raises(AttributeError, match="immutable"):
        v.den = 1
    with pytest.raises(IndexError):
        v[4]
    assert elliptic_model(2).class_coords([0, 0], [0, 0]).den == 1


def test_cleared_vectors_keep_the_field_errors_of_their_tuples():
    # a QQ algebra and a prime-field algebra with A^1 of dimension 4 refuse
    # the vector of the n = 2 model as they refuse the tuple of its items
    v = elliptic_model(2).class_coords([1, -1], [2, -2])
    rational = os_algebra(points_arrangement([0, 1, 2, 3]))
    residues, _ = reduce_algebra_mod(elliptic_model(2).algebra, 13)
    for algebra in (rational, residues):
        assert algebra.dim(1) == len(v)
        for alpha in (v, tuple(v)):
            with pytest.raises(FieldMismatchError, match="cannot coerce"):
                AomotoComplex(algebra, alpha)
            with pytest.raises(FieldMismatchError, match="cannot coerce"):
                resonance_membership(algebra, alpha, 1)


@pytest.mark.parametrize("x,y,route", [
    ([1, 0, 0, 0, 0], [0, 0, 0, 0, 0], "homotopy"),
    ([1, -1, 0, 0, 0], [2, -2, 0, 0, 0], "quotient"),
    ([1, -1, 1, -1, 0], [1, 2, -3, 0, 0], "quotient"),
])
def test_h1_queries_build_no_gaussian_rational(monkeypatch, x, y, route):
    m = elliptic_model(5)
    assert AomotoComplex(m.algebra, m.class_coords(x, y)).route == route
    built, init = [], GaussianRational.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(GaussianRational, "__init__", counted)
    rep = resonance_membership(m.algebra, m.class_coords(x, y), 1)
    assert built == []
    assert rep.dims[:2] == ((0, 1) if y == [2 * c for c in x] else (0, 0))


def old_e2_refusal(model, x, y):
    """The refusals of `e2_page` as it read them off coerced GaussianRationals:
    None when (x, y) is a nonzero class in F^1."""
    x, y = model._pair(x, y)
    if not any(x) and not any(y):
        raise PreconditionError("alpha = 0 has no E2 page here")
    for k in range(model.n):
        if y[k].re != -x[k].im or y[k].im != x[k].re:
            raise PreconditionError(
                "alpha lies outside filtration level F^1 (need y = i x)")


def refusal(f, *args):
    """(type, message) of the error f(*args) raised, or None."""
    try:
        f(*args)
    except PreconditionError as e:
        return type(e), str(e)
    return None


@given(xy_pairs(n=3), st.booleans())
@settings(max_examples=100, deadline=None)
def test_e2_page_refusals_match_the_coerced_route(xy, pure):
    m = elliptic_model(3)
    x, y = xy
    if pure:  # y = i x where x is a vector of Q(i), so most draws are in F^1
        y = outcome(lambda: [I * QI.coerce(c) for c in x])
        if not isinstance(y, list):
            y = xy[1]
    want = refusal(old_e2_refusal, m, x, y)
    got = refusal(e2_page, m, x, y)
    assert got == want
    if want is None:
        assert e2_page(m, x, y).consistent
