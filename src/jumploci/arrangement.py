"""Hyperplane arrangements and their Orlik-Solomon algebras.

A hyperplane is an affine-linear form c0 + c1 x1 + ... + cn xn, stored
projectively normalized (first nonzero coefficient 1) so duplicates are
detected exactly.  Central arrangements are those with all constant terms
zero.  The OS algebra is the exterior algebra on one generator per
hyperplane (the class of dlog f_j, Hodge type (1,1)) modulo the boundaries
of the circuits that meet and the monomials of the minimal sets with empty
intersection.  Both are the minimal sets S whose forms become dependent
once the hyperplane at infinity e0 = (1, 0, ..., 0) is adjoined.  The
algebra is built with no elimination, by straightening every monomial into
the no-broken-circuit basis, and certified to equal the elimination build.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import PreconditionError
# build_quotient_algebra is imported for the benchmark's tracer, which wraps
# arrangement.build_quotient_algebra
from .exterior import (GradedAlgebra, Multivector, _mask,  # noqa: F401
                       _merge_sign, build_quotient_algebra)
from .scalars import (QQ, Matrix, _clear, _rational, _rref_parts, rank,
                      solve_linear)


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
        [[rows[b] for b in basis]], len(rows[0]), QQ)
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


def _minimal_dependent(vecs, extra=()):
    """The minimal index sets S for which the vectors of S together with the
    independent vectors `extra` are dependent, each sorted, the list sorted
    lexicographically.  No vector lies in the span of `extra`, so |S| >= 2.

    The walk goes by size over the independent sets S, each with its flat,
    the bitmask of the vectors in the span of S and `extra`.  Adding an
    index j past the last of S gives a dependent set exactly when bit j of
    that flat is set, and a minimal one exactly when its other one-smaller
    subsets are independent too.  Otherwise its flat is the cover of the
    flat of S through j (`_covers`, one echelon per flat), except at rank
    r, the rank of all the vectors: a set of rank r spans them all, and no
    minimal set is larger, since dropping one element leaves an
    independent set.
    """
    every = list(vecs) + list(extra)
    d, r = len(vecs), rank(every)
    rows = _clear(every, False)[0]
    full = (1 << len(every)) - 1
    covers, found = {}, []
    level = {(): full ^ ((1 << d) - 1)}  # the flat of `extra` alone
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
                        found.append(t)
                elif size + len(extra) == r:
                    larger[t] = full
                else:
                    if flat not in covers:
                        covers[flat] = _covers(
                            rows, flat, list(s) + list(range(d, len(every))))
                    larger[t] = covers[flat][j]
        level = larger
    return sorted(found)


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
    span, a minimal empty set (its monomial).  The ideal generators are the
    boundaries, then the monomials.  The algebra is straightened from them
    with no elimination (`_straighten`): bit for bit the one that
    `build_quotient_algebra` gives for these generators, or AssertionError.
    """
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
    rules = {}
    for s in relations:
        rule = s[:-1] if s in meeting else s
        if len(rule) <= top:  # a larger set never fires
            rules.setdefault(_mask(rule), s if s in meeting else None)
    return _straighten(d, min(top, d), gens, rules)


def _straighten(ngens, top, gens, rules):
    """The quotient of the exterior algebra by `gens` through degree `top`
    from rewriting rules, as a GradedAlgebra over QQ in the form that
    `build_quotient_algebra` gives.  `rules` maps a set mask to the circuit
    it is the broken circuit of, or to None for a set whose monomial is 0.
    A circuit C = (c_0 < ... < c_r) rewrites e_B, B = C minus c_r, as
    -(-1)^r sum_{k<r} (-1)^k e_{C minus c_k}, by its boundary.

    A monomial m containing a rule's set (its witness: m itself, or the
    witness of a one-smaller subset) is rewritten: m = B + R gives
    e_m = sign(B, R) e_B e_R, and each term of e_B's rule swaps c_k for
    c_r, so it is lex-later than m (0 if R holds c_r).  Walking a degree
    in reverse lex order, every term's normal form nf is already known.
    The basis is the monomials with no witness, and proj[d] is nf on it,
    den 1.  Every m - nf(m) lies in the ideal with leading monomial m; and
    nf(e_T g) = 0 is checked for every row e_T g that elimination would
    stack.  So the rows m - nf(m) are the RREF of the ideal in degree d,
    and the basis and proj are those of elimination.  Raises
    AssertionError naming the generator and degree that fail."""
    monomials, basis, proj = [], [], []
    witness = {}
    for d in range(top + 1):
        monos = [_mask(c) for c in combinations(range(ngens), d)]
        below, witness = witness, {}
        for m in monos:
            if m in rules:
                witness[m] = m
                continue
            bits = m
            while bits:
                b = bits & -bits
                bits ^= b
                w = below.get(m ^ b)
                if w is not None:
                    witness[m] = w
                    break
        std = [m for m in monos if m not in witness]
        position = {m: j for j, m in enumerate(std)}
        nf = {}
        for m in reversed(monos):
            w = witness.get(m)
            if w is None:
                nf[m] = ((position[m], 1),)
                continue
            circuit, rest = rules[w], m ^ w
            if circuit is None or rest >> circuit[-1] & 1:
                nf[m] = ()
                continue
            acc = {}
            r = len(circuit) - 1
            sign = -_merge_sign(w, rest) * (-1) ** r
            for k in range(r):
                t = (w ^ (1 << circuit[k])) | 1 << circuit[r]
                c = sign * (-1) ** k * _merge_sign(t, rest)
                for j, v in nf[t | rest]:
                    acc[j] = acc.get(j, 0) + c * v
            nf[m] = tuple(sorted((j, v) for j, v in acc.items() if v))
        for k, g in enumerate(gens):
            e = g.degree()
            for t in monomials[d - e] if e <= d else ():
                acc = {}
                for m, c in g.terms.items():
                    if not m & t:
                        c *= _merge_sign(m, t)
                        for j, v in nf[m | t]:
                            acc[j] = acc.get(j, 0) + c * v
                if any(acc.values()):
                    raise AssertionError(
                        f"ideal generator {k} does not straighten to zero "
                        f"in degree {d}: the rewriting rules miss part of "
                        "the ideal")
        monomials.append(monos)
        basis.append(std)
        proj.append((1, [nf[m] for m in monos]))
    return GradedAlgebra(ngens, QQ, top, gens, ((1, 1),) * ngens,
                         monomials, basis, proj)


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
