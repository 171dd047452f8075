"""Configuration spaces of n points on an elliptic curve: the truncated
cohomology model (straightened, with no elimination), the scroll
(determinantal) resonance variety, Hodge decomposition of degree-one
classes, and the filtered E2 page of the twisted complex.

The curve's period is fixed at the Gaussian unit i, so classes have exact
coordinates over Q(i) (the relations are rational).  Degree-one classes
are written either in (x, y) coordinates (x_k dual to a_k, y_k dual to
b_k) or in the pure-basis coordinates used internally: u_k = a_k + i b_k
of type (1,0) and v_k = a_k - i b_k of type (0,1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .aomoto import AomotoComplex
from .errors import PreconditionError
# build_quotient_algebra, rank_and_kernel, rref and solve_linear are imported
# for the benchmark's tracer, which wraps them on this module
from .exterior import (GradedAlgebra, Multivector,  # noqa: F401
                       _straighten, build_quotient_algebra)
from .scalars import QI, GaussianRational, rank_and_kernel, rref, solve_linear  # noqa: F401

_I = GaussianRational(0, 1)
_MODELS = {}


def _diagonal_relation(n, k, l):
    """The rational relation of the (k, l) diagonal, k < l, on the u, v
    generators 2k, 2k+1, 2l, 2l+1:

        u_k v_k + v_k u_l - u_k v_l + u_l v_l.

    The Kunneth class of the diagonal is i/2 times it (see EllipticModel)."""
    uk, vk, ul, vl = 1 << 2 * k, 1 << 2 * k + 1, 1 << 2 * l, 1 << 2 * l + 1
    return Multivector(2 * n, [(uk | vk, 1), (vk | ul, 1), (uk | vl, -1),
                               (ul | vl, 1)])


class EllipticModel:
    """Truncated cohomology algebra of the configuration space of n points
    on an elliptic curve: exterior algebra on a_1, b_1, ..., a_n, b_n modulo
    the span of the diagonal classes, with its Hodge bigrading.

    The class of the (k, l) diagonal is the Kunneth sum
    sum_m (-1)^{deg m} m_k (dual m)_l over the basis 1, a, b, ab of the
    curve's cohomology, with dual basis 1 <-> ab, a <-> b, b <-> -a:

        (ab)_l - a_k b_l + b_k a_l + (ab)_k.

    With a = (u + v)/2 and b = i(v - u)/2 this is i/2 times the integer
    relation u_k v_k + v_k u_l - u_k v_l + u_l v_l (`_diagonal_relation`),
    of type (1, 1); the tests rederive the classes from the Kunneth formula.
    The algebra, over QQ(i), is straightened (`exterior._straighten`) by
    the (k, n - 1) relations, solved for u_k v_k, and for l < n - 1 the
    (k, l) relation minus the (k, n - 1) one, solved for u_k v_l."""

    def __init__(self, n, top=2):
        if not 2 <= n <= 32:
            raise PreconditionError(
                f"n = {n} out of range: need 2 <= n <= 32 "
                "(n = 1 has no diagonals and degenerates to the curve)")
        if top < 0:
            raise PreconditionError("top degree must be nonnegative")
        self.n = n
        pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
        self.diagonal_pairs = pairs
        relations = [_diagonal_relation(n, *p) for p in pairs]
        last = {k: g for (k, l), g in zip(pairs, relations) if l == n - 1}
        rels = [g if l == n - 1 else g - last[k]
                for (k, l), g in zip(pairs, relations)]
        top = min(top, 2 * n)
        self.algebra = GradedAlgebra(2 * n, QI, top, relations,
                                     ((1, 0), (0, 1)) * n,
                                     *_straighten(2 * n, top, relations, rels))

    @property
    def top(self):
        return self.algebra.top

    def class_coords(self, x, y):
        """A1 coordinates (u, v basis) of sum x_k a_k + y_k b_k: u_k =
        (x_k - i y_k)/2 and v_k = (x_k + i y_k)/2, written out on the real
        and imaginary parts."""
        x, y = self._pair(x, y)
        coords = []
        for a, b in zip(x, y):
            coords.append(GaussianRational((a.re + b.im) / 2,
                                           (a.im - b.re) / 2))
            coords.append(GaussianRational((a.re - b.im) / 2,
                                           (a.im + b.re) / 2))
        return tuple(coords)

    def xy_of_coords(self, coords):
        """Inverse of class_coords."""
        if len(coords) != 2 * self.n:
            raise PreconditionError(
                f"expected {2 * self.n} coordinates, got {len(coords)}")
        coords = [QI.coerce(c) for c in coords]
        x, y = [], []
        for k in range(self.n):
            cu, cv = coords[2 * k], coords[2 * k + 1]
            x.append(cu + cv)
            y.append(_I * (cu - cv))
        return tuple(x), tuple(y)

    def _pair(self, x, y):
        if len(x) != self.n or len(y) != self.n:
            raise PreconditionError(
                f"coordinate vectors must have length {self.n}")
        return ([QI.coerce(c) for c in x], [QI.coerce(c) for c in y])


def elliptic_model(n, top=2):
    key = (n, top)
    if key not in _MODELS:
        _MODELS[key] = EllipticModel(n, top)
    return _MODELS[key]


@dataclass(frozen=True)
class ScrollVerdict:
    member: bool
    reason: str | None  # failing equation on rejection


def scroll_membership(n, x, y):
    """Is (x, y) on the scroll: sum x = sum y = 0 and rank [x; y] <= 1?

    The failing equation is reported on rejection (1-based indices)."""
    if len(x) != n or len(y) != n:
        raise PreconditionError(f"vectors must have length {n}")
    x = [QI.coerce(c) for c in x]
    y = [QI.coerce(c) for c in y]
    sx = sum(x, QI.zero())
    if sx:
        return ScrollVerdict(False, f"sum of x coordinates is {sx}, not 0")
    sy = sum(y, QI.zero())
    if sy:
        return ScrollVerdict(False, f"sum of y coordinates is {sy}, not 0")
    for i in range(n):
        for j in range(i + 1, n):
            m = x[i] * y[j] - x[j] * y[i]
            if m:
                return ScrollVerdict(
                    False,
                    f"minor x_{i+1} y_{j+1} - x_{j+1} y_{i+1} = {m}")
    return ScrollVerdict(True, None)


@dataclass(frozen=True)
class HodgeSplit:
    pure10: tuple  # (x, y) with y = i x
    pure01: tuple  # (x, y) with y = -i x
    pure11: tuple  # zero here: weight-1 part is everything in this model


def hodge_decompose(model, x, y):
    """Split a degree-one class (x, y) into pure pieces: alpha^{1,0} =
    (u, iu), alpha^{0,1} = (v, -iv), from x = u + v, y = iu - iv."""
    x, y = model._pair(x, y)
    coords = model.class_coords(x, y)
    u, v = coords[0::2], coords[1::2]
    split = HodgeSplit(
        (u, tuple(_I * c for c in u)),
        (v, tuple(-_I * c for c in v)),
        (tuple(QI.zero() for _ in u), tuple(QI.zero() for _ in u)))
    for k in range(model.n):
        assert split.pure10[0][k] + split.pure01[0][k] == x[k]
        assert split.pure10[1][k] + split.pure01[1][k] == y[k]
    return split


def tangent_pair_basis(n, i, j):
    """(x, y) coordinate pairs spanning E_ij = span{a_i - a_j, b_i - b_j},
    the tangent space attached to the (i, j) pairing map."""
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise PreconditionError("need distinct indices below n")
    e = [Fraction(0)] * n
    e[i], e[j] = Fraction(1), Fraction(-1)
    zero = [Fraction(0)] * n
    return ((tuple(e), tuple(zero)), (tuple(zero), tuple(e)))


@dataclass(frozen=True)
class E2Report:
    n: int
    entries: dict  # (p, q) -> dim of the E2 term, p + q <= 2
    h: tuple       # dims of H^0, H^1, H^2 of the full complex
    consistent: bool  # the bigraded blocks of d_m have rank d_m, m <= 2


def e2_page(model, x, y):
    """Dims of the E2 terms Gr_F^p H_{p+q} for p + q <= 2 of the complex
    (A*, alpha wedge) at a nonzero alpha = (x, ix) in F^1.

    Such an alpha is pure of type (1, 0), and every monomial projects onto
    basis monomials of its own type, since the relations have type (1, 1).
    So alpha wedge maps the type-(p, q) basis positions of A^m into the
    type-(p + 1, q) positions of A^{m+1}, and the complex is the direct sum
    of its rows of fixed q:

        E2^{p,q} = dim A^{p,q} - r(p, q) - r(p - 1, q),

    with r(p, q) the rank of the block from A^{p,q} to A^{p+1,q}.  h comes
    from the full complex.  `consistent` checks that the block ranks of d_m
    add up to rank d_m for m = 0, 1, 2, which fails exactly when alpha
    wedge leaves the bigrading.
    """
    x, y = model._pair(x, y)
    if not any(x) and not any(y):
        raise PreconditionError("alpha = 0 has no E2 page here")
    for k in range(model.n):
        if y[k].re != -x[k].im or y[k].im != x[k].re:
            raise PreconditionError(
                "alpha lies outside filtration level F^1 (need y = i x)")
    deep = elliptic_model(model.n, top=3)
    return _e2_from_blocks(AomotoComplex(deep.algebra,
                                         deep.class_coords(x, y)))


def _e2_from_blocks(cx):
    """The E2Report of `e2_page` for a complex cx on an elliptic model's
    algebra built through degree 3, read off the bigraded blocks of its
    differentials whether or not alpha is pure."""
    algebra = cx.algebra
    # types[m][p]: the positions of the type-(p, m - p) basis monomials
    types = []
    for m in range(4):
        types.append([[] for _ in range(m + 1)])
        for j, mono in enumerate(algebra.basis[m]):
            types[m][algebra.monomial_hodge_type(mono)[0]].append(j)
    block = {(p, m - p): cx.restricted_rank(m, rows=types[m + 1][p + 1],
                                            cols=types[m][p])
             for m in range(3) for p in range(m + 1)}
    entries = {(p, q): len(types[p + q][p]) - r - block.get((p - 1, q), 0)
               for (p, q), r in block.items()}
    ranks = cx.ranks()
    consistent = all(sum(block[(p, m - p)] for p in range(m + 1)) == ranks[m]
                     for m in range(3))
    return E2Report(algebra.ngens // 2, entries, cx.cohomology_dims()[:3],
                    consistent)
