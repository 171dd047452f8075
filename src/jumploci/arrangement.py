"""Hyperplane arrangements and their Orlik-Solomon algebras.

A hyperplane is an affine-linear form c0 + c1 x1 + ... + cn xn, stored
projectively normalized (first nonzero coefficient 1) so duplicates are
detected exactly.  Central arrangements are those with all constant terms
zero.  The OS algebra is the exterior algebra on one generator per
hyperplane (the class of dlog f_j, Hodge type (1,1)) modulo the boundaries
of the circuits that meet and the monomials of the minimal sets with empty
intersection.  Both are read off one walk over the minimal dependent sets
of the forms and, for an affine arrangement, the hyperplane at infinity
e0 = (1, 0, ..., 0).  The algebra is built with no elimination, by
straightening every monomial into the no-broken-circuit basis
(`exterior._straighten`), and certified to equal the elimination build.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm

from .errors import PreconditionError
# build_quotient_algebra is imported for the benchmark's tracer, which wraps
# arrangement.build_quotient_algebra
from .exterior import (GradedAlgebra, Multivector,  # noqa: F401
                       _straighten, build_quotient_algebra)
from .scalars import (QQ, Matrix, _clear, _rational, _rref_parts, _sparse,
                      rank, solve_linear)


class Arrangement:
    """An ordered list of distinct hyperplanes in C^ambient.  Coefficients
    are ints or Fractions; a float, bool or str is refused, not converted."""

    def __init__(self, ambient, forms, central=None):
        if ambient < 1:
            raise PreconditionError("ambient dimension must be at least 1")
        norm = []
        for k, form in enumerate(forms):
            vec = [_rational(c, f"form {k} coefficient {i}")
                   for i, c in enumerate(form)]
            if len(vec) == ambient:
                vec = [Fraction(0)] + vec
            if len(vec) != ambient + 1:
                raise PreconditionError(
                    f"form {k}: expected {ambient} linear coefficients "
                    f"(plus optional constant), got {len(vec)} entries")
            if not any(vec[1:]):
                raise PreconditionError(
                    f"form {k} has zero linear part; not a hyperplane")
            lead = next(c for c in vec if c)
            norm.append(tuple(c / lead for c in vec))
        for a, b in combinations(range(len(norm)), 2):
            if norm[a] == norm[b]:
                raise PreconditionError(
                    f"forms {a} and {b} define the same hyperplane")
        is_central = all(v[0] == 0 for v in norm)
        if central is not None and central != is_central:
            raise PreconditionError(
                f"central flag {central} contradicts the forms "
                f"(constant terms {'all vanish' if is_central else 'present'})")
        self.ambient = ambient
        self.forms = tuple(norm)
        self.central = is_central

    @property
    def size(self):
        return len(self.forms)

    def linear_parts(self):
        return [v[1:] for v in self.forms]

    def augmented(self):
        return [tuple(v) for v in self.forms]

    @cached_property
    def dependencies(self):
        """The one walk of the arrangement (`_minimal_dependent`): the
        minimal dependent sets of the augmented forms with their flats, and
        for an affine arrangement e0 = (1, 0, ..., 0) as one more vector,
        index `size`.  Arrangements are never mutated, so it is kept."""
        vecs = self.augmented()
        if not self.central:
            vecs.append((1,) + (0,) * self.ambient)
        return _minimal_dependent(vecs)

    def rank(self):
        """Rank of the linear parts; the top nonvanishing OS degree."""
        if not self.forms:
            return 0
        return rank(self.linear_parts())

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


def _covers(rows, flat, basis):
    """{i: cover} for every integer row i outside a flat: a bitmask of the
    rows in the span of the independent rows `basis`, and its cover through
    i the flat of `basis` and i.  One exact echelon R of the basis gives
    each row a its residue a - sum_k a[p_k] R_k, scaled to integers, which
    is zero exactly on the flat.  Rows b and c outside it share a cover
    exactly when c lies in the span of the flat and b, that is, when their
    residues are proportional: the primitive residue with a positive
    leading entry keys the cover."""
    pivots, free, echelon = _rref_parts(
        [_sparse([rows[b]]) for b in basis], len(rows[0]), QQ)
    big = lcm(*(den for den, _ in echelon))
    scaled = [[big // den * w for w in nums[0]] for den, nums in echelon]
    keys, masks = {}, {}
    for i, a in enumerate(rows):
        if not flat >> i & 1:
            res = [big * a[f] for f in free]
            for pk, w in zip(pivots, scaled):
                if a[pk]:
                    res = [x - a[pk] * y for x, y in zip(res, w)]
            g = gcd(*res) * (1 if next(x for x in res if x) > 0 else -1)
            keys[i] = key = tuple(x // g for x in res)
            masks[key] = masks.get(key, flat) | 1 << i
    return {i: masks[key] for i, key in keys.items()}


def _minimal_dependent(vecs):
    """The minimal dependent index sets of the vectors, none of them zero,
    each sorted and paired with its flat, the bitmask of the vectors in its
    span; the list sorted lexicographically.

    The walk goes by size over the independent sets S, each with its flat.
    Adding an index j past the last of S gives a dependent set exactly when
    bit j of that flat is set, and a minimal one exactly when its other
    one-smaller subsets are independent too; the flat of S, which it is
    returned with, is then its span.  Otherwise the flat of S and j is the
    cover of the flat of S through j (`_covers`, one echelon per flat),
    except at rank r, the rank of all the vectors: a set of rank r spans
    them all, and no minimal set is larger, since dropping one element
    leaves an independent set.
    """
    d, r = len(vecs), rank(vecs)
    rows = _clear(vecs)
    full = (1 << d) - 1
    covers, found = {}, []
    level = {(): 0}
    size = 0
    while level:
        size += 1
        larger = {}
        for s, flat in level.items():
            for j in range(s[-1] + 1 if s else 0, d):
                t = s + (j,)
                if flat >> j & 1:
                    if all(t[:k] + t[k + 1:] in level
                           for k in range(size - 1)):
                        found.append((t, flat))
                elif size == r:
                    larger[t] = full
                else:
                    if flat not in covers:
                        covers[flat] = _covers(rows, flat, s)
                    larger[t] = covers[flat][j]
        level = larger
    return sorted(found)


def matroid_circuits(arr):
    """Minimal dependent hyperplane sets (affine dependence for affine
    arrangements), each sorted, the list sorted lexicographically: the
    minimal dependent sets of the augmented forms, none of them zero, read
    off the arrangement's one walk (`Arrangement.dependencies`) as those
    that avoid e0."""
    return [t for t, _ in arr.dependencies if t[-1] < arr.size]


def circuit_boundary(ngens, circuit):
    """The relation sum_k (-1)^k e_{S minus s_k} for a sorted circuit S."""
    terms = []
    for k in range(len(circuit)):
        rest = circuit[:k] + circuit[k + 1:]
        terms.append((sum(1 << i for i in rest), (-1) ** k))
    return Multivector(ngens, terms)


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
    generators are the boundaries, then the monomials; each is a rule, a
    boundary solved for its broken circuit.  The algebra is straightened
    with no elimination (`exterior._straighten`): bit for bit the one that
    `build_quotient_algebra` gives for these generators, or AssertionError.
    The rank is read off the walk too; A is `complete` when top >= rank.
    """
    d = arr.size
    # a vector of the walk is in the span of those before it iff a circuit
    # ends there; e0 adds one to the size and one to the rank
    rank = d - len({t[-1] for t, _ in arr.dependencies})
    if top is None:
        top = rank
    if top < 0:
        raise PreconditionError("top degree must be nonnegative")
    meeting = [t for t, flat in arr.dependencies
               if t[-1] < d and not flat >> d & 1]
    empty = [t[:-1] for t, _ in arr.dependencies if t[-1] == d]
    gens = [circuit_boundary(d, s) for s in meeting]
    gens += [Multivector.monomial(d, s) for s in empty]
    complete = top >= rank  # A^k = 0 above the rank
    top = min(top, d)
    return GradedAlgebra(d, QQ, top, gens, ((1, 1),) * d,
                         *_straighten(d, top, gens, gens), complete)


def poincare_and_euler(arr):
    """Poincare polynomial coefficients (b_0, ..., b_rank) and the Euler
    characteristic of the complement, from the full-rank build."""
    algebra = os_algebra(arr)
    return algebra.dims(), algebra.euler()


def decone(arr, j):
    """Affine arrangement obtained from a central one by setting f_j = 1.

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
    v = max(i for i in range(arr.ambient) if c[i])
    keep = [i for i in range(arr.ambient) if i != v]
    new_forms = []
    index_map = {}
    for k, form in enumerate(arr.forms):
        if k == j:
            continue
        dv = form[1 + v]
        const = form[0] + dv / c[v]
        coeffs = [form[1 + i] - dv * c[i] / c[v] for i in keep]
        index_map[k] = len(new_forms)
        new_forms.append([const] + coeffs)
    return Arrangement(arr.ambient - 1, new_forms), index_map


def line_points(arr):
    """Every point of P^2 where two or more lines of a line arrangement
    meet, the points at infinity z = 0 included, as pairs (point, lines)
    sorted by lines; lines are the sorted indices of the lines through the
    point.  A line is a vector in the coordinates (x, y, z): (c1, c2, c0)
    for c0 + c1 x + c2 y in C^2, the linear part of a central arrangement in
    C^3.  Two distinct lines meet in exactly one point, the cross product
    of their vectors, here of their integer multiples, scaled so that its
    last nonzero coordinate is 1: a tuple of Fractions that keys the point
    exactly.  No elimination is made."""
    if arr.ambient == 2:
        vecs = [(c1, c2, c0) for c0, c1, c2 in arr.forms]
    elif arr.ambient == 3 and arr.central:
        vecs = arr.linear_parts()
    else:
        raise PreconditionError(
            "need a line arrangement: an arrangement in C^2 or a central "
            "one in C^3")
    vecs = _clear(vecs)
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
    that is t = y / c1, or -x / c2 when c1 = 0."""
    if arr.ambient != 2:
        raise PreconditionError("restriction implemented for line arrangements")
    if not 0 <= j < arr.size:
        raise PreconditionError(f"hyperplane index {j} out of range")
    _c0, c1, c2 = arr.forms[j]
    found = []
    for (x, y, z), lines in line_points(arr):
        if z and j in lines:
            t = y / c1 if c1 else -x / c2
            found.append((min(k for k in lines if k != j), t))
    return Arrangement(1, [[-t, Fraction(1)] for _k, t in sorted(found)])


def points_arrangement(points):
    """The arrangement of finitely many distinct points in C^1."""
    return Arrangement(1, [[-_rational(p, f"point {j}"), Fraction(1)]
                           for j, p in enumerate(points)])
