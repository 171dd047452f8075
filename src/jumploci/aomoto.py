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
from functools import cached_property

from .errors import PreconditionError
# build_quotient_algebra, rank_and_kernel and solve_linear are imported for
# the benchmark's tracer, which wraps them on this module
from .exterior import build_quotient_algebra  # noqa: F401
from .scalars import (DEFAULT_PRIME, GF, QI, QQ, BadPrimeError,  # noqa: F401
                      GaussianRational, _clear, _kernel_basis, _rref_parts,
                      rank_and_kernel, solve_linear)


def _integral(field, alpha):
    """The integer parts of a nonzero multiple of alpha, cleared with one
    lcm as `_clear` returns them: [ints] over QQ, [re, im] over QQ(i), and
    [residues] over F_p.  A nonzero multiple of a differential has the same
    rank, kernel and RREF."""
    if field is QQ or field is QI:
        return [part[0] for part in _clear([alpha], field is QI)]
    return [alpha]


class AomotoComplex:
    """The complex A^0 -> A^1 -> ... -> A^top with differential alpha wedge.

    Each differential is assembled from the algebra's integer structure
    constants as the cleared parts of a nonzero multiple of itself
    (`parts[d]` maps degree-d coordinates to degree-(d+1) coordinates; the
    top one is the zero map out of A^top), and ranked by the certified
    elimination core.  That every such complex squares to zero is checked
    once per algebra (`GradedAlgebra.check_anticommutation`).
    """

    def __init__(self, algebra, alpha):
        alpha = [algebra.field.coerce(a) for a in alpha]
        if len(alpha) != algebra.dim(1):
            raise PreconditionError(
                f"alpha needs {algebra.dim(1)} coordinates, got {len(alpha)}")
        algebra.check_anticommutation()
        self.algebra = algebra
        self.alpha = tuple(alpha)
        integral = _integral(algebra.field, alpha)
        self.parts = [algebra.class_mult_parts(integral, d)
                      for d in range(algebra.top + 1)]
        self._echelons = None
        self._kernels = None

    @cached_property
    def matrices(self):
        """The differentials as Matrix objects over the algebra's field."""
        return [self.algebra.class_mult_matrix(self.alpha, d)
                for d in range(self.algebra.top + 1)]

    def ranks(self):
        if self._echelons is None:
            field = self.algebra.field
            self._echelons = [
                _rref_parts(parts, self.algebra.dim(d), field)
                for d, parts in enumerate(self.parts)]
        return tuple(len(pivots) for pivots, _, _ in self._echelons)

    def kernels(self):
        """Canonical kernel bases of the differentials (the cocycles), read
        off the reductions that computed `ranks`."""
        if self._kernels is None:
            self.ranks()
            field = self.algebra.field
            self._kernels = tuple(
                _kernel_basis(field, self.algebra.dim(d), *echelon)
                for d, echelon in enumerate(self._echelons))
        return self._kernels

    def restricted_rank(self, d, rows=None, cols=None):
        """Rank of the differential out of degree d restricted to the target
        coordinates `rows` and the source coordinates `cols` (all of them
        when None)."""
        parts = self.parts[d]
        if rows is not None:
            parts = [[part[k] for k in rows] for part in parts]
        ncols = self.algebra.dim(d)
        if cols is not None:
            parts = [[[row[j] for j in cols] for row in part]
                     for part in parts]
            ncols = len(cols)
        return len(_rref_parts(parts, ncols, self.algebra.field)[0])

    def cocycle_rank(self, d, coords):
        """Rank of the cocycles of degree d restricted to the coordinates
        `coords`: of the rows `coords` of the `kernels()[d]` basis, read off
        the integer RREF.  A free coordinate is a unit row there and a pivot
        coordinate minus its RREF row on the free columns; the sign and the
        row's denominator change no rank."""
        self.ranks()
        pivots, free, echelon = self._echelons[d]
        position = {f: t for t, f in enumerate(free)}
        pivot_rows = dict(zip(pivots, echelon))
        parts = [[] for _ in self.parts[d]]
        for k in coords:
            if k in position:
                unit = [0] * len(free)
                unit[position[k]] = 1
                parts[0].append(unit)
                for part in parts[1:]:
                    part.append([0] * len(free))
            else:
                for part, nums in zip(parts, pivot_rows[k][1]):
                    part.append(nums)
        return len(_rref_parts(parts, len(free), self.algebra.field)[0])

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
    if depth < 1:
        raise PreconditionError("depth must be at least 1")
    cx = AomotoComplex(algebra, alpha)
    dims = cx.cohomology_dims()
    return ResonanceReport(degree, depth, dims,
                           dims[degree] >= depth, cx.euler_matches())


def _scalar_mod(x, fp, i_res):
    if isinstance(x, GaussianRational):
        return fp.coerce(fp.coerce(x.re) + i_res * fp.coerce(x.im))
    return fp.coerce(x)


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
    algebra.check_anticommutation()  # in integers, so once for every p
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
    fp = GF(prime)
    if subspace is None:
        rows = [[fp.one() if i == j else fp.zero() for i in range(n1)]
                for j in range(n1)]
    else:
        rows = [[_scalar_mod(algebra.field.coerce(x), fp, i_res) for x in row]
                for row in subspace]
        rows = [r for r in rows if any(r)]
    if not rows:
        raise PreconditionError("cannot sample a zero subspace")
    rng = random.Random(seed)
    best = None
    samples = []
    for t in range(trials):
        while True:
            coeffs = [rng.randrange(prime) for _ in rows]
            vec = [fp.zero()] * n1
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


@dataclass(frozen=True)
class IsotropyReport:
    isotropic: bool
    witness: tuple | None  # (i, j, nonzero product coords) on failure


def isotropic_check(algebra, vectors):
    """Do all pairwise products of the given degree-one classes vanish in
    degree two?  On failure the witness names the offending pair."""
    if algebra.top < 2:
        raise PreconditionError(
            f"isotropy needs the algebra built through degree 2; top is "
            f"{algebra.top}")
    n1 = algebra.dim(1)
    for k, v in enumerate(vectors):
        if len(v) != n1:
            raise PreconditionError(
                f"vector {k} has {len(v)} entries; A^1 has dimension {n1}")
    lifts = [algebra.lift([algebra.field.coerce(x) for x in v], 1)
             for v in vectors]
    for i in range(len(lifts)):
        for j in range(i, len(lifts)):
            prod = algebra.multiply(lifts[i], lifts[j])
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
    """
    if algebra.hodge_types is None:
        raise PreconditionError("logarithmic resonance needs Hodge types")
    alpha = [algebra.field.coerce(a) for a in alpha]
    if len(alpha) != algebra.dim(1):
        raise PreconditionError(
            f"alpha needs {algebra.dim(1)} coordinates, got {len(alpha)}")
    # F^1 A^1 is the coordinate subspace on these positions
    f1 = algebra.hodge_positions(1, 1)
    if not any(alpha):
        return LogResonanceReport(False, None, True, len(f1))
    inside = set(f1)
    if any(a for j, a in enumerate(alpha) if j not in inside):
        raise PreconditionError(
            "class lies outside filtration level F^1 in degree 1; "
            "logarithmic membership undefined")
    r = AomotoComplex(algebra, alpha).restricted_rank(1, cols=f1)
    h1 = len(f1) - r - 1
    return LogResonanceReport(h1 >= 1, h1, False, len(f1))
