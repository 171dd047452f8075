"""Aomoto complexes (A*, alpha wedge .) and resonance membership.

Given a graded quotient algebra A and a degree-one class alpha, the Aomoto
complex has differential d(u) = alpha wedge u.  Its cohomology dimensions
are the resonance data: alpha lies in the degree-j, depth-k resonance locus
iff h^j >= k.  Everything is exact; randomized sampling runs over a prime
field by reducing the algebra's structure mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .exterior import Multivector, build_quotient_algebra
# solve_linear is imported for the benchmark's tracer, which wraps
# aomoto.solve_linear
from .scalars import (DEFAULT_PRIME, GF, QI, QQ, BadPrimeError,  # noqa: F401
                      GaussianRational, Matrix, rank_and_kernel, solve_linear)


class AomotoComplex:
    """The complex A^0 -> A^1 -> ... -> A^top with differential alpha wedge.

    `matrices[d]` maps degree-d coordinates to degree-(d+1) coordinates; the
    top matrix is the zero map out of A^top.  Composition of consecutive
    differentials is checked to vanish at construction.
    """

    def __init__(self, algebra, alpha):
        alpha = [algebra.field.coerce(a) for a in alpha]
        if len(alpha) != algebra.dim(1):
            raise PreconditionError(
                f"alpha needs {algebra.dim(1)} coordinates, got {len(alpha)}")
        self.algebra = algebra
        self.alpha = tuple(alpha)
        self.matrices = [algebra.class_mult_matrix(alpha, d)
                         for d in range(algebra.top + 1)]
        for d in range(algebra.top - 1):
            if not self.matrices[d + 1].mul(self.matrices[d]).is_zero():
                raise AssertionError(
                    f"differential squares to a nonzero map in degree {d}")
        self._ranks = None
        self._kernels = None

    def ranks(self):
        if self._ranks is None:
            reduced = [rank_and_kernel(m) for m in self.matrices]
            self._ranks = tuple(r for r, _ in reduced)
            self._kernels = tuple(k for _, k in reduced)
        return self._ranks

    def kernels(self):
        """Canonical kernel bases of the differentials (the cocycles), kept
        from the reduction that computed `ranks`."""
        self.ranks()
        return self._kernels

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
        if i_res is None:
            raise BadPrimeError(
                f"Gaussian coefficients need a prime p = 1 mod 4; "
                f"got {fp.p}")
        return fp.coerce(fp.coerce(x.re) + i_res * fp.coerce(x.im))
    return fp.coerce(x)


def reduce_algebra_mod(algebra, prime):
    """Rebuild a rational or Gaussian-rational quotient algebra over F_p.

    For Gaussian coefficients, i is sent to a square root of -1 mod p
    (requires p = 1 mod 4).  Raises BadPrimeError when a denominator dies
    mod p or the quotient dimensions collapse (unlucky prime).
    """
    fp = GF(prime)
    if algebra.field is QQ:
        i_res = None
    elif algebra.field is QI:
        i_res = fp.sqrt_minus_one()
    else:
        raise PreconditionError("algebra is already over a prime field")
    gens = [
        Multivector(g.ngens,
                    [(m, _scalar_mod(Fraction(c) if isinstance(c, int) else c,
                                     fp, i_res))
                     for m, c in g.terms.items()])
        for g in algebra.ideal_gens
    ]
    reduced = build_quotient_algebra(
        algebra.ngens, gens, algebra.top, field=fp,
        hodge_types=algebra.hodge_types)
    if reduced.dims() != algebra.dims():
        raise BadPrimeError(
            f"quotient dimensions collapse mod {prime}: "
            f"{reduced.dims()} vs {algebra.dims()}")
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

    By semicontinuity the minimum is the generic value off a proper closed
    subset, and a random prime-field point misses that subset with
    probability 1 - O(1/p).
    """
    if trials < 1:
        raise PreconditionError("at least one trial required")
    reduced, i_res = reduce_algebra_mod(algebra, prime)
    fp = GF(prime)
    n1 = algebra.dim(1)
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
    # F^1 A^1 is the coordinate subspace on these positions
    f1 = algebra.hodge_positions(1, 1)
    if not any(alpha):
        return LogResonanceReport(False, None, True, len(f1))
    inside = set(f1)
    if any(a for j, a in enumerate(alpha) if j not in inside):
        raise PreconditionError(
            "class lies outside filtration level F^1 in degree 1; "
            "logarithmic membership undefined")
    full = algebra.class_mult_matrix(alpha, 1)
    restricted = Matrix([[row[j] for j in f1] for row in full.entries],
                        field=algebra.field, ncols=len(f1))
    r, _ = rank_and_kernel(restricted)
    h1 = len(f1) - r - 1
    return LogResonanceReport(h1 >= 1, h1, False, len(f1))
