"""Hyperplane arrangements and their Orlik-Solomon algebras.

A hyperplane is an affine-linear form c0 + c1 x1 + ... + cn xn, stored as
its primitive integer multiple (gcd 1, first nonzero coefficient positive),
the one canonical form of a hyperplane: all that is computed here depends on
a form only up to scale.  Central arrangements are those with all constant
terms zero.  The OS algebra is the exterior algebra on one generator per
hyperplane (the class of dlog f_j, Hodge type (1,1)) modulo the boundaries
of the circuits that meet and the monomials of the minimal sets with empty
intersection.  Both are read off one walk over the flats of the forms and,
for an affine arrangement, e0 = (1, 0, ..., 0), by integer contraction: a
flat's covers are the classes of equal residues it carries.  The algebra is
straightened into the no-broken-circuit basis with no elimination either
(`exterior._straighten`), and certified to equal the elimination build.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, inf

from .errors import PreconditionError
# build_quotient_algebra is imported for the benchmark's tracer, which wraps
# arrangement.build_quotient_algebra
from .exterior import (_indices, _straighten,  # noqa: F401
                       build_quotient_algebra)
from .scalars import (QQ, Matrix, _clear_row, _rational, _rref_parts,
                      _sparse, solve_linear)


class Arrangement:
    """An ordered list of distinct hyperplanes in C^ambient.  Coefficients
    are ints or Fractions; a float, bool or str is refused, not converted.
    `forms` holds the primitive integer tuples (c0, c1, ..., cn)."""

    def __init__(self, ambient, forms, central=None):
        if ambient < 1:
            raise PreconditionError("ambient dimension must be at least 1")
        ints = []
        for k, form in enumerate(forms):
            vec = list(form)
            # an all-int row (no bool: type is int) is its own clearing
            if not all(type(c) is int for c in vec):
                vec = _clear_row([_rational(c, f"form {k} coefficient {i}")
                                  for i, c in enumerate(vec)], False)[1][0]
            if len(vec) == ambient:
                vec = [0] + vec
            if len(vec) != ambient + 1:
                raise PreconditionError(
                    f"form {k}: expected {ambient} linear coefficients "
                    f"(plus optional constant), got {len(vec)} entries")
            if not any(vec[1:]):
                raise PreconditionError(
                    f"form {k} has zero linear part; not a hyperplane")
            ints.append(_primitive(vec))
        if len(set(ints)) < len(ints):
            a, b = next((a, b) for a, b in combinations(range(len(ints)), 2)
                        if ints[a] == ints[b])
            raise PreconditionError(
                f"forms {a} and {b} define the same hyperplane")
        is_central = all(v[0] == 0 for v in ints)
        if central is not None and central != is_central:
            raise PreconditionError(
                f"central flag {central} contradicts the forms "
                f"(constant terms {'all vanish' if is_central else 'present'})")
        self.ambient = ambient
        self.forms = tuple(ints)
        self.central = is_central

    @property
    def size(self):
        return len(self.forms)

    def linear_parts(self):
        return [v[1:] for v in self.forms]

    @cached_property
    def dependencies(self):
        """The one walk of the arrangement (`_lattice_walk`): the
        minimal dependent sets of the augmented forms with their flats, and
        for an affine arrangement e0 = (1, 0, ..., 0) as one more vector,
        index `size`.  Arrangements are never mutated, so it is kept."""
        vecs = list(self.forms)
        if not self.central:
            vecs.append((1,) + (0,) * self.ambient)
        return _lattice_walk(vecs)

    @cached_property
    def walk_rank(self):
        """The rank of the linear parts, read off the walk: a vector of the
        walk is in the span of those before it iff a circuit ends there; e0
        adds one to both.  Kept with the walk it is read from."""
        return self.size - len({t[-1] for t, _ in self.dependencies})

    def rank(self):
        """Rank of the linear parts (integer rows); the top OS degree."""
        rows = [_sparse([v[1:]]) for v in self.forms]
        return len(_rref_parts(rows, self.ambient, QQ, False)[0])

    def common_point(self, subset):
        """A point on every listed hyperplane, or None if the intersection
        is empty."""
        subset = list(subset)
        if not subset:
            return tuple([Fraction(0)] * self.ambient)
        rows = [self.forms[j][1:] for j in subset]
        rhs = [-self.forms[j][0] for j in subset]
        return solve_linear(Matrix(rows), rhs)

    def delete(self, j):
        """The arrangement with hyperplane j removed."""
        forms = [f for k, f in enumerate(self.forms) if k != j]
        return Arrangement(self.ambient, forms)

    def __repr__(self):
        kind = "central" if self.central else "affine"
        return f"Arrangement({kind}, ambient={self.ambient}, size={self.size})"


def _primitive(res):
    """The primitive multiple of an integer vector, first nonzero entry > 0."""
    g = gcd(*res) if next(filter(None, res)) > 0 else -gcd(*res)
    return tuple(res) if g == 1 else tuple([x // g for x in res])


def _contract(flat, res, c, d, residues):
    """The covers of a flat, as d bitmasks with 0 at the vectors in it:
    vectors with equal residues share one, and `residues` gets each cover's
    (residues, its class's residue).  The flat's residues step `res`, those
    of a flat it covers, to c[p] a - a[p] c, made primitive, with c its
    class's residue and p the entry of c of least size: zero on c's line."""
    if c:
        p, least = 0, inf
        for q, x in enumerate(c):
            if x and abs(x) < least:
                p, least = q, abs(x)
        res = {k: _primitive([c[p] * x - a[p] * y for x, y in zip(a, c)])
               if a[p] else a for k, a in res.items() if not flat >> k & 1}
    classes, out = {}, [0] * d
    for i, b in res.items():
        classes[b] = classes.get(b, flat) | 1 << i
    for i, b in res.items():
        out[i] = cover = classes[b]
        residues.setdefault(cover, (res, b))
    return out


def _lattice_walk(vecs):
    """The minimal dependent index sets of the vectors, primitive tuples,
    each sorted with its flat, the bitmask of the vectors in its span; the
    list sorted.  The walk goes by size over the independent sets S, by
    bitmask: S + j, j past the last of S, is dependent exactly when bit j of
    the flat of S is set, and spans it; else its flat is a cover
    (`_contract`).  The one elimination is the rank r: a flat of rank r - 1
    has one cover, all the vectors.  A dependent S + j is minimal exactly
    when j is in no flat of a facet S - s_k, OR'd per S off the last level."""
    d = len(vecs)
    r = len(_rref_parts([_sparse([a]) for a in vecs],
                        len(vecs[0]) if vecs else 0, QQ, False)[0])
    residues = {0: (dict(enumerate(vecs)), None)}
    found, below, level, size = [], {}, {0: 0}, 0
    while level:
        size, larger, known = size + 1, {}, {}
        # past rank r - 1 every cover is all the vectors: one list a level
        spanning = [(1 << d) - 1] * d if size >= r else None
        for s, flat in level.items():
            covers = spanning if size >= r else known.get(flat)
            if covers is None:
                covers = known[flat] = _contract(flat, *residues.pop(flat),
                                                 d, residues)
            facets = t = None
            for j in range(s.bit_length(), d):
                if not flat >> j & 1:
                    larger[s | 1 << j] = covers[j]
                    continue
                if facets is None:
                    facets, bits = 0, s
                    while bits:
                        b = bits & -bits
                        facets |= below[s ^ b]
                        bits ^= b
                if not facets >> j & 1:
                    t = t or _indices(s)  # the indices of S, once
                    found.append((t + (j,), flat))
        below, level = level, larger
    return sorted(found)


def matroid_circuits(arr):
    """Minimal dependent hyperplane sets (affine dependence for affine
    arrangements), each sorted, the list sorted lexicographically: the
    minimal dependent sets of the augmented forms, none of them zero, read
    off the arrangement's one walk (`Arrangement.dependencies`) as those
    that avoid e0."""
    d = arr.size
    return [t for t, _ in arr.dependencies if t[-1] < d]


def circuit_boundary(circuit):
    """The relation sum_k (-1)^k e_{S minus s_k} of a sorted circuit S, as
    {mask: coefficient}."""
    mask = 0
    for i in circuit:
        mask |= 1 << i
    return {mask ^ 1 << i: -1 if k & 1 else 1 for k, i in enumerate(circuit)}


def os_algebra(arr, top=None):
    """The Orlik-Solomon algebra of an arrangement, built through degree
    `top` (default: the full rank).  Generator j is the class of dlog f_j,
    with Hodge type (1,1).

    Its relations are read off the arrangement's one walk
    (`Arrangement.dependencies`), which for an affine arrangement takes
    e0 = (1, 0, ..., 0) as vector d = `arr.size`; a set of forms has empty
    intersection exactly when e0 lies in its span, since an inconsistent
    system has 1 in the span of its forms.  A circuit through d, with d
    dropped, is a minimal empty set (its monomial).  A circuit that avoids
    d meets exactly when bit d of its flat is clear (its boundary);
    otherwise it holds an empty set and is no relation.  The ideal
    generators, dicts {mask: int}, are the boundaries, then the monomials;
    each is a rule, a boundary solved for its broken circuit.  The algebra
    is straightened with no elimination (`exterior._straighten`): bit for
    bit the one that `build_quotient_algebra` gives for these generators,
    or AssertionError.  The rank is read off the walk too
    (`Arrangement.walk_rank`); A is `complete` when top >= rank.
    """
    d = arr.size
    rank = arr.walk_rank
    if top is None:
        top = rank
    if top < 0:
        raise PreconditionError("top degree must be nonnegative")
    gens, empty = [], []
    for t, flat in arr.dependencies:
        if t[-1] < d:
            if not flat >> d & 1:
                gens.append(circuit_boundary(t))
        else:
            mask = 0
            for i in t[:-1]:
                mask |= 1 << i
            empty.append({mask: 1})
    gens += empty
    complete = top >= rank  # A^k = 0 above the rank
    top = min(top, d)
    return _straighten(d, QQ, top, gens, gens, ((1, 1),) * d, complete)


def poincare_and_euler(arr):
    """Poincare polynomial coefficients (b_0, ..., b_rank) and the Euler
    characteristic of the complement, from the full-rank build."""
    algebra = os_algebra(arr)
    return algebra.dims(), algebra.euler()


def decone(arr, j):
    """Affine arrangement obtained from a central one by setting f_j = 1,
    with f_j scaled so that its first nonzero coefficient is 1.

    Returns (deconed arrangement, index map from original hyperplane index
    to its position in the deconed arrangement).  The variable eliminated is
    the last one appearing in f_j.
    """
    if not arr.central:
        raise PreconditionError("decone requires a central arrangement")
    if not 0 <= j < arr.size:
        raise PreconditionError(f"hyperplane index {j} out of range")
    if arr.ambient < 2:
        raise PreconditionError("decone needs ambient dimension at least 2")
    c = arr.forms[j][1:]
    lead = next(filter(None, c))
    v = max(i for i in range(arr.ambient) if c[i])
    keep = [i for i in range(arr.ambient) if i != v]
    new_forms = []
    index_map = {}
    for k, form in enumerate(arr.forms):
        if k == j:
            continue
        # c[v] f_k where f_j = lead: x_v = (lead - sum_{i != v} c_i x_i) / c[v]
        dv = form[1 + v]
        index_map[k] = len(new_forms)
        new_forms.append([dv * lead] + [form[1 + i] * c[v] - dv * c[i]
                                        for i in keep])
    return Arrangement(arr.ambient - 1, new_forms), index_map


def line_points(arr):
    """Every point of P^2 where two or more lines of a line arrangement
    meet, the points at infinity z = 0 included, as pairs (point, lines)
    sorted by lines; lines are the sorted indices of the lines through the
    point.  A line is a vector in the coordinates (x, y, z): (c1, c2, c0)
    for c0 + c1 x + c2 y in C^2, the linear part of a central arrangement in
    C^3.  Two distinct lines meet in exactly one point, the cross product
    of their vectors, scaled so that its last nonzero coordinate is 1: a
    tuple of Fractions that keys the point exactly.  No elimination is made."""
    if arr.ambient == 2:
        vecs = [(c1, c2, c0) for c0, c1, c2 in arr.forms]
    elif arr.ambient == 3 and arr.central:
        vecs = arr.linear_parts()
    else:
        raise PreconditionError(
            "need a line arrangement: an arrangement in C^2 or a central "
            "one in C^3")
    points = {}
    for i, j in combinations(range(len(vecs)), 2):
        (a0, a1, a2), (b0, b1, b2) = vecs[i], vecs[j]
        p = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        last = next(c for c in reversed(p) if c)
        points.setdefault(tuple(Fraction(c, last) for c in p),
                          set()).update((i, j))
    return sorted(((p, tuple(sorted(lines))) for p, lines in points.items()),
                  key=lambda pair: pair[1])


def restrict_line_arrangement(arr, j):
    """Restriction of a line arrangement in C^2 to the line H_j: the
    arrangement of distinct intersection points, as forms on C^1.  They
    are the finite points of `line_points` on H_j, ordered by their
    smallest other line, at the parameter t of (x, y) = q + t (-c2, c1),
    that is t = y / c1, or -x / c2 when c1 = 0, for H_j written
    c0 + c1 x + c2 y with its first nonzero coefficient 1."""
    if arr.ambient != 2:
        raise PreconditionError("restriction implemented for line arrangements")
    if not 0 <= j < arr.size:
        raise PreconditionError(f"hyperplane index {j} out of range")
    lead = next(filter(None, arr.forms[j]))
    _c0, c1, c2 = arr.forms[j]
    found = []
    for (x, y, z), lines in line_points(arr):
        if z and j in lines:
            t = y * lead / c1 if c1 else -x * lead / c2
            found.append((min(k for k in lines if k != j), t))
    return Arrangement(1, [[-t, 1] for _k, t in sorted(found)])


def points_arrangement(points):
    """The arrangement of finitely many distinct points in C^1."""
    return Arrangement(1, [[-_rational(p, f"point {j}"), 1]
                           for j, p in enumerate(points)])
