"""Hyperplane arrangements and their Orlik-Solomon algebras.

A hyperplane is an affine-linear form c0 + c1 x1 + ... + cn xn, stored
projectively normalized (first nonzero coefficient 1) so duplicates are
detected exactly.  Central arrangements are those with all constant terms
zero.  The OS algebra is the exterior algebra on one generator per
hyperplane (the class of dlog f_j, Hodge type (1,1)) modulo the circuit
boundary relations, plus, for affine arrangements, the monomials of
hyperplane sets with empty common intersection.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import PreconditionError
from .exterior import Multivector, build_quotient_algebra
from .scalars import Matrix, rank, solve_linear


class Arrangement:
    """An ordered list of distinct hyperplanes in C^ambient."""

    def __init__(self, ambient, forms, central=None):
        if ambient < 1:
            raise PreconditionError("ambient dimension must be at least 1")
        norm = []
        for k, form in enumerate(forms):
            vec = [Fraction(c) for c in form]
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


def matroid_circuits(arr):
    """Minimal dependent hyperplane sets (affine dependence for affine
    arrangements), each sorted, the list sorted lexicographically.

    Complete: every circuit has size at most rank + 1 and all are returned.
    """
    vecs = arr.augmented()
    d = len(vecs)
    r = rank(vecs) if vecs else 0
    circuits = []
    dependent = set()
    for size in range(2, min(d, r + 1) + 1):
        for subset in combinations(range(d), size):
            if any(c <= set(subset) for c in dependent):
                continue
            if rank([vecs[j] for j in subset]) < size:
                circuits.append(subset)
                dependent.add(frozenset(subset))
    return sorted(circuits)


def _empty_intersection_minimal(arr):
    """Minimal hyperplane sets with empty common intersection (affine only).

    A minimal inconsistent system of affine equations on C^n has linear
    parts of rank one less than its size, so at most n + 1 equations; larger
    subsets are never enumerated.
    """
    if arr.central:
        return []
    d = arr.size
    out = []
    found = set()
    for size in range(2, min(d, arr.ambient + 1) + 1):
        for subset in combinations(range(d), size):
            if any(s <= set(subset) for s in found):
                continue
            if arr.common_point(subset) is None:
                out.append(subset)
                found.add(frozenset(subset))
    return sorted(out)


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
    a caller that has already enumerated them."""
    if top is None:
        top = arr.rank()
    if top < 0:
        raise PreconditionError("top degree must be nonnegative")
    if circuits is None:
        circuits = matroid_circuits(arr)
    d = arr.size
    gens = []
    for c in circuits:
        if arr.central or arr.common_point(c) is not None:
            gens.append(circuit_boundary(d, c))
    for s in _empty_intersection_minimal(arr):
        gens.append(Multivector.monomial(d, s))
    return build_quotient_algebra(
        d, gens, top, hodge_types=[(1, 1)] * d)


def poincare_and_euler(arr, top=None):
    """Poincare polynomial coefficients (b_0, ..., b_rank) and the Euler
    characteristic of the complement.  Requires the full-rank build; a
    truncated request errors since the alternating sum would be wrong."""
    r = arr.rank()
    if top is not None and top < r:
        raise PreconditionError(
            f"Euler characteristic unavailable: build truncated at degree "
            f"{top} below the matroid rank {r}")
    algebra = os_algebra(arr, r)
    coeffs = algebra.dims()
    return coeffs, algebra.euler()


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


def restrict_line_arrangement(arr, j):
    """Restriction of a line arrangement in C^2 to the line H_j: the
    arrangement of distinct intersection points, as forms on C^1."""
    if arr.ambient != 2:
        raise PreconditionError("restriction implemented for line arrangements")
    if not 0 <= j < arr.size:
        raise PreconditionError(f"hyperplane index {j} out of range")
    c0, c1, c2 = arr.forms[j]
    direction = (-c2, c1)
    if c1:
        q = (-c0 / c1, Fraction(0))
    else:
        q = (Fraction(0), -c0 / c2)
    points = []
    for k, form in enumerate(arr.forms):
        if k == j:
            continue
        d0, d1, d2 = form
        slope = d1 * direction[0] + d2 * direction[1]
        if not slope:
            continue  # parallel to H_j, no trace
        t = -(d0 + d1 * q[0] + d2 * q[1]) / slope
        if t not in points:
            points.append(t)
    return Arrangement(1, [[-t, Fraction(1)] for t in points])


def points_arrangement(points):
    """The arrangement of finitely many distinct points in C^1."""
    return Arrangement(1, [[-Fraction(p), Fraction(1)] for p in points])
