"""Hyperplane arrangements and their Orlik-Solomon algebras.

A hyperplane is an affine-linear form c0 + c1 x1 + ... + cn xn, stored
projectively normalized (first nonzero coefficient 1) so duplicates are
detected exactly.  Central arrangements are those with all constant terms
zero.  The OS algebra is the exterior algebra on one generator per
hyperplane (the class of dlog f_j, Hodge type (1,1)) modulo the boundaries
of the circuits that meet and the monomials of the minimal sets with empty
intersection.  Both are the minimal sets S whose forms become dependent
once the hyperplane at infinity e0 = (1, 0, ..., 0) is adjoined.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import PreconditionError
from .exterior import Multivector, build_quotient_algebra
from .scalars import (DEFAULT_PRIME, Matrix, _clear, _rational, _rref_mod,
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


def _mod_images(vecs):
    """Each vector cleared of denominators and reduced mod DEFAULT_PRIME.
    A nonzero integer multiple of a vector changes no rank, and a minor of
    integer rows that is nonzero mod p is nonzero, so the rank of any set of
    these images is a lower bound on the true rank of the vectors."""
    p = DEFAULT_PRIME
    return [[c % p for c in row] for row in _clear(vecs, False)[0]]


def _rank_mod(rows):
    """Rank mod DEFAULT_PRIME of rows of residues (the rows are copied)."""
    return len(_rref_mod([list(r) for r in rows], DEFAULT_PRIME))


def _minimal_subsets(d, largest, bad):
    """The minimal subsets of range(d) of sizes 2..largest on which `bad`
    holds, each sorted, the list sorted lexicographically.  `bad` must hold
    on every superset of a set where it holds, so a subset with a bad
    one-smaller subset is bad and not minimal: k set lookups decide a
    size-k subset, and `bad` is called only on the others."""
    found = []
    smaller = set()  # the bad subsets of the previous size
    for size in range(2, largest + 1):
        current = set()
        for subset in combinations(range(d), size):
            if any(subset[:k] + subset[k + 1:] in smaller
                   for k in range(size)):
                current.add(subset)
            elif bad(subset):
                found.append(subset)
                current.add(subset)
        smaller = current
    return sorted(found)


def _minimal_dependent(vecs, extra=()):
    """The minimal index sets S, of size at least 2, for which the vectors
    of S together with the independent vectors `extra` are dependent, each
    sorted, the list sorted lexicographically.

    Complete: with r the rank of all the vectors, every such S has
    |S| + len(extra) <= r + 1, since dropping one element of S leaves an
    independent set.  Subsets are decided by size, each exactly:

    - one of its one-smaller subsets is dependent: so is it, and it is not
      minimal (`_minimal_subsets`);
    - otherwise, at |S| + len(extra) = r + 1: dependent, with no rank;
    - otherwise, full rank of the images mod p (`_mod_images`): independent;
    - otherwise the exact `rank` decides.
    """
    vecs, extra = list(vecs), list(extra)
    every = vecs + extra
    r = rank(every) if every else 0
    images = _mod_images(every)
    tail = images[len(vecs):]

    def dependent(subset):
        size = len(subset) + len(extra)
        return size == r + 1 or (
            _rank_mod([images[j] for j in subset] + tail) < size
            and rank([vecs[j] for j in subset] + extra) < size)

    return _minimal_subsets(
        len(vecs), min(len(vecs), r + 1 - len(extra)), dependent)


def matroid_circuits(arr):
    """Minimal dependent hyperplane sets (affine dependence for affine
    arrangements), each sorted, the list sorted lexicographically: the
    minimal dependent sets of the augmented forms, none of them zero."""
    return _minimal_dependent(arr.augmented())


def circuit_boundary(ngens, circuit):
    """The relation sum_k (-1)^k e_{S minus s_k} for a sorted circuit S."""
    terms = []
    for k in range(len(circuit)):
        rest = circuit[:k] + circuit[k + 1:]
        terms.append((sum(1 << i for i in rest), (-1) ** k))
    return Multivector(ngens, terms)


def os_algebra(arr, top=None, circuits=None):
    """The Orlik-Solomon algebra of an arrangement, built through degree
    `top` (default: the full rank).  Generator j is the class of dlog f_j,
    with Hodge type (1,1).  `circuits` is `matroid_circuits(arr)`, passed by
    a caller that has already enumerated them.

    An affine arrangement's relations are the minimal S that are dependent
    with e0 = (1, 0, ..., 0) adjoined: S is dependent or has empty
    intersection, since an inconsistent system has 1 in the span of its
    forms.  Such an S is a circuit all of whose proper subsets meet, so a
    circuit that meets (its boundary), or an independent set with e0 in its
    span, a minimal empty set (its monomial)."""
    if top is None:
        top = arr.rank()
    if top < 0:
        raise PreconditionError("top degree must be nonnegative")
    if circuits is None:
        circuits = matroid_circuits(arr)
    d = arr.size
    relations = circuits
    if not arr.central:
        e0 = [Fraction(1)] + [Fraction(0)] * arr.ambient
        relations = _minimal_dependent(arr.augmented(), [e0])
    meeting = set(circuits)
    gens = [circuit_boundary(d, s) for s in relations if s in meeting]
    gens += [Multivector.monomial(d, s) for s in relations
             if s not in meeting]
    return build_quotient_algebra(
        d, gens, top, hodge_types=[(1, 1)] * d)


def poincare_and_euler(arr):
    """Poincare polynomial coefficients (b_0, ..., b_rank) and the Euler
    characteristic of the complement, from the full-rank build."""
    algebra = os_algebra(arr, arr.rank())
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
    vecs = _clear(vecs, False)[0]
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
