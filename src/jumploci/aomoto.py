"""Aomoto complexes (A*, alpha wedge .) and resonance membership.

Given a graded quotient algebra A and a degree-one class alpha, the Aomoto
complex has differential d(u) = alpha wedge u.  Its cohomology dimensions
are the resonance data: alpha lies in the degree-j, depth-k resonance locus
iff h^j >= k.  Everything is exact; randomized sampling runs over a prime
field by reading the algebra's integer structure constants mod p.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import PreconditionError
# build_quotient_algebra, rank_and_kernel and solve_linear are imported for
# the benchmark's tracer, which wraps them on this module
from .exterior import build_quotient_algebra  # noqa: F401
from .scalars import (DEFAULT_PRIME, GF, QI, QQ, BadPrimeError,  # noqa: F401
                      _integral, _kernel_basis, _read, _rref_parts, _sparse,
                      rank_and_kernel, solve_linear)


class AomotoComplex:
    """The complex A^0 -> A^1 -> ... -> A^top with differential alpha wedge.

    Each differential is assembled from the algebra's integer structure
    constants as the sparse integer rows of a nonzero multiple of itself
    (`parts[d]` maps degree-d coordinates to degree-(d+1) coordinates; the
    top one is the zero map out of A^top).  That every such complex squares
    to zero is checked once per algebra (`GradedAlgebra.check_anticommutation`).

    `ranks` takes one exact route, named by `route`, from the boundary
    derivation D (De_i = 1) and its two checks, run once per algebra
    (`GradedAlgebra.boundary_split`):
    "homotopy" when D descends to A and sum alpha is a unit: then
    D(alpha x) + alpha Dx = (sum alpha) x makes the complex exact below top;
    "quotient" when e_jA is also a coordinate subspace and sum alpha = 0:
    then A = ker D + e_jA, two copies of Q = A/e_jA, so
    r(d) = r_Q(d) + r_Q(d-1), ranked on the basis monomials without j;
    "full", the elimination of every differential, otherwise.  Both fast
    routes set r(top) = 0, the zero map of the truncation, which is d_top
    only when A^{top+1} = 0 (`GradedAlgebra.complete`); the queries below
    refuse a degree that reads it otherwise.  A rank is the pivot count of
    the forward pass of the exact elimination (`restricted_rank`), which
    assembles only the block it ranks, so no route builds a reduced echelon
    form or a differential in full.
    `kernels` come from the reduced echelon forms of the full differentials
    (`parts`, `_echelons`), built only when kernels are asked for.

    alpha is cleared once (`scalars._integral`), and the differentials
    are assembled from its integer parts.  A `scalars.ClearedVector` from
    `EllipticModel.class_coords` passes through as it is, so no field
    object is built between the class and the elimination.  Over QQ(i) a
    class with zero imaginary part has real differentials: the blocks that
    `restricted_rank` ranks are assembled from its real part and eliminated
    over QQ, with the rank they have over QQ(i).
    """

    def __init__(self, algebra, alpha):
        self._integral, _ = _integral(algebra.field, alpha)
        if len(self._integral[0]) != algebra.dim(1):
            raise PreconditionError(
                f"alpha needs {algebra.dim(1)} coordinates, got "
                f"{len(self._integral[0])}")
        algebra.check_anticommutation()
        descends, kept = algebra.boundary_split()
        self.algebra = algebra
        self.alpha = alpha
        p = getattr(algebra.field, "p", None)
        unit = any(sum(part) % p if p else sum(part)
                   for part in self._integral)
        if descends and unit:
            self._route = "homotopy"
        elif kept is not None and not unit:
            self._route = "quotient"
        else:
            self._route = "full"
        self._kept = kept
        self._ranks = None
        self._kernels = None

    @property
    def route(self):
        """How `ranks` is computed: "homotopy", "quotient" or "full"."""
        return self._route

    @cached_property
    def parts(self):
        """The full differentials as the sparse integer rows of
        `class_mult_parts`, for `kernels` and for `verify`'s d d = 0."""
        return [self.algebra.class_mult_parts(self._integral, d)
                for d in range(self.algebra.top + 1)]

    @cached_property
    def _blocks(self):
        """(alpha parts, field) of the blocks that `restricted_rank` ranks:
        a class over QQ(i) with zero imaginary part is ranked over QQ, from
        its real part.  The package's one switch from QQ(i) to QQ: the core
        eliminates every other matrix on the parts its rows have."""
        if self.algebra.field is QI and not any(self._integral[1]):
            return self._integral[:1], QQ
        return self._integral, self.algebra.field

    @cached_property
    def _echelons(self):
        """The reduced echelon forms of the differentials, for `kernels`."""
        field = self.algebra.field
        return [_rref_parts(parts, self.algebra.dim(d), field)
                for d, parts in enumerate(self.parts)]

    def ranks(self):
        if self._ranks is None:
            top = self.algebra.top
            if self._route == "full":
                r = [self.restricted_rank(d) for d in range(top + 1)]
            elif self._route == "homotopy":
                r = []
                for d in range(top):
                    r.append(self.algebra.dim(d) - (r[-1] if r else 0))
                r.append(0)
            else:
                kept = self._kept  # q[d + 1] = r_Q(d)
                q = [0] + [self.restricted_rank(d, kept[d + 1], kept[d])
                           for d in range(top)]
                r = [q[d + 1] + q[d] for d in range(top)] + [0]
            self._ranks = tuple(r)
        return self._ranks

    def kernels(self):
        """Canonical kernel bases of the differentials (the cocycles), read
        off the exact reduced echelon forms of the full differentials."""
        if self._kernels is None:
            field = self.algebra.field
            self._kernels = tuple(
                _kernel_basis(field, self.algebra.dim(d), *echelon)
                for d, echelon in enumerate(self._echelons))
        return self._kernels

    def restricted_rank(self, d, rows=None, cols=None):
        """Rank of the differential out of degree d restricted to the target
        coordinates `rows` and the source coordinates `cols` (all of them
        when None), from the forward pass of its elimination alone.  Only
        that block is assembled (`GradedAlgebra.class_mult_parts`); a block
        with no rows or no columns has rank 0 and is not assembled."""
        algebra = self.algebra
        nrows = algebra.dim(d + 1) if rows is None else len(rows)
        ncols = algebra.dim(d) if cols is None else len(cols)
        if not nrows or not ncols:
            return 0
        alpha, field = self._blocks
        block = algebra.class_mult_parts(alpha, d, rows, cols)
        return len(_rref_parts(block, ncols, field, read=False)[0])

    def cohomology_dims(self):
        """h^d = dim ker(d_d) - rank(d_{d-1}) for each degree through top."""
        r = self.ranks()
        dims = []
        for d in range(self.algebra.top + 1):
            below = r[d - 1] if d > 0 else 0
            dims.append(self.algebra.dim(d) - r[d] - below)
        return tuple(dims)

    def euler_matches(self):
        """Alternating sums of h^j and of dim A^j agree (exactness bookkeeping)."""
        h = self.cohomology_dims()
        lhs = sum((-1) ** d * x for d, x in enumerate(h))
        return lhs == self.algebra.euler()


@dataclass(frozen=True)
class ResonanceReport:
    degree: int
    depth: int
    dims: tuple
    member: bool
    euler_ok: bool


def resonance_membership(algebra, alpha, degree, depth=1):
    """Does alpha lie in the degree-`degree`, depth-`depth` resonance locus,
    i.e. is h^degree >= depth?"""
    if not 0 <= degree <= algebra.top:
        raise PreconditionError(
            f"degree {degree} outside the built range 0..{algebra.top}")
    if degree == algebra.top and not algebra.complete:
        raise PreconditionError(
            f"degree {degree} is the top of an algebra truncated at "
            f"{degree}: h^{degree} needs A^{degree + 1}, which was not built")
    if depth < 1:
        raise PreconditionError("depth must be at least 1")
    cx = AomotoComplex(algebra, alpha)
    dims = cx.cohomology_dims()
    euler = sum((-1) ** d * h for d, h in enumerate(dims))
    return ResonanceReport(degree, depth, dims, dims[degree] >= depth,
                           euler == algebra.euler())


def reduce_algebra_mod(algebra, prime):
    """A quotient algebra over QQ or QQ(i) with F_p as its coordinate field:
    the same basis, projections and integer structure constants, shared.

    Over QQ(i) the coordinates send i to the returned square root of -1
    mod p (requires p = 1 mod 4).  Raises BadPrimeError exactly when p
    divides some den_d: pivots that stay mod p make the RREF entries minors
    over a pivot minor prime to p.  A prime that only lowers the ideal's
    rank is accepted: h at a point of A tensor F_p is at least the rational
    h at any lift.
    """
    fp = GF(prime)
    if algebra.field is QQ:
        i_res = None
    elif algebra.field is QI:
        i_res = fp.sqrt_minus_one()
    else:
        raise PreconditionError("algebra is already over a prime field")
    for d, (den, _) in enumerate(algebra.proj):
        if den % prime == 0:
            raise BadPrimeError(
                f"quotient basis in degree {d} moves mod {prime}, which "
                f"divides its denominator {den}: coordinates over F_{prime} "
                "would not name the rational basis")
    # both in integers, so once for every p
    algebra.check_anticommutation()
    algebra.boundary_split()
    reduced = copy.copy(algebra)
    reduced.field = fp
    return reduced, i_res


@dataclass(frozen=True)
class GenericDimsReport:
    dims: tuple
    trials: int
    prime: int
    flagged: tuple  # trial indices whose dims exceeded the minimum somewhere


def generic_dims_sample(algebra, subspace=None, trials=40,
                        prime=DEFAULT_PRIME, seed=0):
    """Coordinatewise-minimum cohomology dims over random F_p points of a
    subspace of A^1 (default: all of A^1), with the exceeding trials flagged.

    The points are drawn on `reduce_algebra_mod(algebra, prime)`.  By
    semicontinuity the minimum is the generic value off a proper closed
    subset, which a random F_p point misses with probability 1 - O(1/p).
    The subspace rows are cleared once each (`scalars._integral`), and
    entry (re + i im) / den is read as (re + i_res im) / den mod p.  Raises
    BadPrimeError when p divides the denominator of an entry, or when the
    rows lose rank mod p, as they would then span a smaller subspace; both
    ranks are taken on the integer rows by `scalars._rref_parts`.
    """
    if trials < 1:
        raise PreconditionError("at least one trial required")
    n1 = algebra.dim(1)
    for k, row in enumerate(subspace or ()):
        if len(row) != n1:
            raise PreconditionError(
                f"subspace row {k} has {len(row)} entries; A^1 has "
                f"dimension {n1}")
    reduced, i_res = reduce_algebra_mod(algebra, prime)
    if subspace is None:
        rows = [[1 if i == j else 0 for i in range(n1)] for j in range(n1)]
    else:
        cleared = [_integral(algebra.field, row) for row in subspace]
        rows = [_residues(parts, den, prime, i_res) for parts, den in cleared]
        want = len(_rref_parts([_sparse(parts) for parts, _ in cleared], n1,
                               algebra.field, read=False)[0])
        got = len(_rref_parts([_sparse([r]) for r in rows], n1, GF(prime),
                              read=False)[0])
        if got < want:
            raise BadPrimeError(
                f"subspace rows have rank {want} over {algebra.field} but "
                f"their images mod {prime} have rank {got}: samples would "
                "miss part of the subspace")
        rows = [r for r in rows if any(r)]
    if not rows:
        raise PreconditionError("cannot sample a zero subspace")
    rng = random.Random(seed)
    best = None
    samples = []
    for t in range(trials):
        while True:
            coeffs = [rng.randrange(prime) for _ in rows]
            vec = [0] * n1
            for c, row in zip(coeffs, rows):
                if c:
                    for i, x in enumerate(row):
                        if x:
                            vec[i] = (vec[i] + c * x) % prime
            if any(vec):
                break
        dims = AomotoComplex(reduced, vec).cohomology_dims()
        samples.append(dims)
        if best is None:
            best = list(dims)
        else:
            best = [min(a, b) for a, b in zip(best, dims)]
    flagged = tuple(t for t, dims in enumerate(samples)
                    if any(x > b for x, b in zip(dims, best)))
    return GenericDimsReport(tuple(best), trials, prime, flagged)


def _residues(parts, den, prime, i_res):
    """The residues mod p of the row whose integer parts over den are
    `parts` ([a] over QQ, [re, im] over QQ(i), i sent to i_res).  Raises
    the BadPrimeError of the first entry, real part before imaginary, whose
    denominator p divides."""
    if not den % prime:
        for entry in zip(*parts):
            for x in (Fraction(a, den) for a in entry):
                if not x.denominator % prime:
                    raise BadPrimeError(
                        f"denominator of {x} vanishes mod {prime}")
    inv = pow(den, -1, prime)
    if len(parts) == 1:
        return [a * inv % prime for a in parts[0]]
    return [(a + i_res * b) * inv % prime for a, b in zip(*parts)]


@dataclass(frozen=True)
class IsotropyReport:
    isotropic: bool
    witness: tuple | None  # (i, j, nonzero product coords) on failure


def isotropic_check(algebra, vectors):
    """Do all pairwise products of the given degree-one classes vanish in
    degree two?  On failure the witness names the first offending pair,
    i < j (u wedge u = 0), with the coordinates of their product.  Each
    class is cleared once (`scalars._integral`); u wedge v is the rows of
    (u wedge .) out of degree 1 (`class_mult_parts`, per part of u) times
    the parts of v, in integers, read over the two scales and den only when
    it is nonzero."""
    if algebra.top < 2:
        raise PreconditionError(
            f"isotropy needs the algebra built through degree 2; top is "
            f"{algebra.top}")
    n1 = algebra.dim(1)
    for k, v in enumerate(vectors):
        if len(v) != n1:
            raise PreconditionError(
                f"vector {k} has {len(v)} entries; A^1 has dimension {n1}")
    field = algebra.field
    cleared = [_integral(field, v) for v in vectors]
    den = algebra.structure_constants(1)[0]
    for i, (u, su) in enumerate(cleared):
        rows = [algebra.class_mult_parts([part], 1) for part in u]
        for j in range(i + 1, len(cleared)):
            v, sv = cleared[j]
            # [u v] over QQ and F_p; [ur vr, ur vi, ui vr, ui vi] over QQ(i)
            t = [[sum(a * y[k] for k, a in row.items()) for row in r]
                 for r in rows for y in v]
            nums = t if len(t) == 1 else [[a - b for a, b in zip(t[0], t[3])],
                                          [a + b for a, b in zip(t[1], t[2])]]
            if any(map(any, nums)):  # over F_p the read reduces mod p
                prod = _read(field, su * sv * den, nums)
                if any(prod):
                    return IsotropyReport(False, (i, j, tuple(prod)))
    return IsotropyReport(True, None)


@dataclass(frozen=True)
class LogResonanceReport:
    member: bool
    h1: int | None
    zero_class: bool
    filtration_dim: int


def log_resonance_membership(algebra, alpha):
    """Membership of alpha in the degree-1 logarithmic resonance locus: is
    H^1 of the filtered subcomplex (F^p A^p, alpha wedge .) nonzero?

    Preconditions: the algebra carries Hodge types and alpha lies in F^1.
    By convention the zero class is reported as a non-member with the
    zero_class flag set (the locus is defined by a nonvanishing quotient,
    which is empty at 0); no error is raised.

    Both tests run on the integer parts the complex cleared alpha to.  An
    algebra built below degree 2 is refused unless it is `complete`.
    """
    if algebra.hodge_types is None:
        raise PreconditionError("logarithmic resonance needs Hodge types")
    if algebra.top < 2 and not algebra.complete:
        raise PreconditionError(
            "degree 1 logarithmic resonance needs A^2, which an algebra "
            f"truncated at {algebra.top} did not build")
    cx = AomotoComplex(algebra, alpha)
    parts = cx._integral
    # F^1 A^1 is the coordinate subspace on these positions
    f1 = algebra.hodge_positions(1, 1)
    if not any(map(any, parts)):
        return LogResonanceReport(False, None, True, len(f1))
    inside = set(f1)
    outside = [j for j in range(algebra.dim(1)) if j not in inside]
    if any(part[j] for part in parts for j in outside):
        raise PreconditionError(
            "class lies outside filtration level F^1 in degree 1; "
            "logarithmic membership undefined")
    h1 = len(f1) - cx.restricted_rank(1, cols=f1) - 1
    return LogResonanceReport(h1 >= 1, h1, False, len(f1))
