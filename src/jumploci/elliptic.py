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
from math import gcd

from .aomoto import AomotoComplex
from .errors import PreconditionError
# build_quotient_algebra, rank_and_kernel, rref and solve_linear are imported
# for the benchmark's tracer, which wraps them on this module
from .exterior import _straighten, build_quotient_algebra  # noqa: F401
from .scalars import (QI, ClearedVector, GaussianRational,  # noqa: F401
                      _integral, _read, rank_and_kernel, rref, solve_linear)

_MODELS = {}


def _diagonal_relation(k, l):
    """The relation {mask: coefficient} of the (k, l) diagonal, k < l, on
    the u, v generators 2k, 2k+1, 2l, 2l+1:

        u_k v_k + v_k u_l - u_k v_l + u_l v_l.

    The Kunneth class of the diagonal is i/2 times it (see EllipticModel)."""
    uk, vk, ul, vl = 1 << 2 * k, 1 << 2 * k + 1, 1 << 2 * l, 1 << 2 * l + 1
    return {uk | vk: 1, vk | ul: 1, uk | vl: -1, ul | vl: 1}


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
        relations = [_diagonal_relation(*p) for p in pairs]
        last = {k: g for (k, l), g in zip(pairs, relations) if l == n - 1}
        # g and last[k] share one term, u_k v_k, of coefficient 1 in both
        rels = [g if l == n - 1 else {m: g.get(m, 0) - last[k].get(m, 0)
                                      for m in g.keys() ^ last[k].keys()}
                for (k, l), g in zip(pairs, relations)]
        top = min(top, 2 * n)
        self.algebra = _straighten(2 * n, QI, top, relations, rels,
                                   ((1, 0), (0, 1)) * n, top == 2 * n)

    @property
    def top(self):
        return self.algebra.top

    def class_coords(self, x, y):
        """A1 coordinates (u, v basis) of sum x_k a_k + y_k b_k: u_k =
        (x_k - i y_k)/2 and v_k = (x_k + i y_k)/2, as a
        `scalars.ClearedVector`: one positive den and the integer parts
        [re, im] in lowest terms, computed from x and y cleared together
        (`scalars._integral`) with no Fraction built.  Its items are the
        GaussianRationals u_1, v_1, ..., u_n, v_n, built when read, and it
        compares equal to their tuple; `AomotoComplex` takes its parts as
        they are.

        Rational and Gaussian inputs take one path (`_class_vector`).
        Raises PreconditionError on a length mismatch and the
        FieldMismatchError of `QI.coerce` on a value outside Q(i)."""
        self._check_lengths(x, y)
        return _class_vector(*_integral(QI, [*x, *y]))

    def _check_lengths(self, x, y):
        if len(x) != self.n or len(y) != self.n:
            raise PreconditionError(
                f"coordinate vectors must have length {self.n}")

    def _pair(self, x, y):
        self._check_lengths(x, y)
        return ([QI.coerce(c) for c in x], [QI.coerce(c) for c in y])


def _class_vector(parts, den):
    """The ClearedVector of u_k = (x_k - i y_k)/2, v_k = (x_k + i y_k)/2
    from `_integral(QI, [*x, *y])`: the integer parts [re, im] of den
    times x followed by y.  With X = den x and Y = den y Gaussian integers,
    2 den u_k = X_k - i Y_k and 2 den v_k = X_k + i Y_k; dividing 2 den and
    these by their gcd puts them in lowest terms."""
    re_xy, im_xy = parts
    n = len(re_xy) // 2
    re, im = [], []
    for xr, xi, yr, yi in zip(re_xy, im_xy, re_xy[n:], im_xy[n:]):
        re += (xr + yi, xr - yi)
        im += (xi - yr, xi + yr)
    den *= 2
    g = gcd(den, *re, *im)
    if g != 1:
        den //= g
        re = [a // g for a in re]
        im = [a // g for a in im]
    return ClearedVector(den, re, im)


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

    The failing equation is reported on rejection (1-based indices).  The
    sums and minors are computed on the Gaussian integers D x and D y, D
    the common denominator of x and y cleared together
    (`scalars._integral`), on their real and imaginary parts; a
    GaussianRational is built (by `scalars._read`) only for the rejection
    message."""
    if len(x) != n or len(y) != n:
        raise PreconditionError(f"vectors must have length {n}")
    (re, im), den = _integral(QI, [*x, *y])
    for name, k in (("x", 0), ("y", n)):
        sr, si = sum(re[k:k + n]), sum(im[k:k + n])
        if sr or si:
            return ScrollVerdict(False, f"sum of {name} coordinates is "
                                        f"{_read(QI, den, [[sr], [si]])[0]}, "
                                        "not 0")
    xr, xi, yr, yi = re[:n], im[:n], re[n:], im[n:]
    for i, (ar, ai, br, bi) in enumerate(zip(xr, xi, yr, yi)):
        for j in range(i + 1, n):
            cr, ci, dr, di = xr[j], xi[j], yr[j], yi[j]
            # x_i y_j - x_j y_i
            mr = ar * dr - ai * di - cr * br + ci * bi
            mi = ar * di + ai * dr - cr * bi - ci * br
            if mr or mi:
                return ScrollVerdict(
                    False, f"minor x_{i+1} y_{j+1} - x_{j+1} y_{i+1} = "
                           f"{_read(QI, den * den, [[mr], [mi]])[0]}")
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
    # i(a + bi) = -b + ai and -i(a + bi) = b - ai
    split = HodgeSplit(
        (u, tuple(GaussianRational(-c.im, c.re) for c in u)),
        (v, tuple(GaussianRational(c.im, -c.re) for c in v)),
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
    model._check_lengths(x, y)
    parts, den = _integral(QI, [*x, *y])
    re, im = parts
    if not any(re) and not any(im):
        raise PreconditionError("alpha = 0 has no E2 page here")
    # y = i x over the common denominator: Re y = -Im x and Im y = Re x
    n = model.n
    if re[n:] != [-a for a in im[:n]] or im[n:] != re[:n]:
        raise PreconditionError(
            "alpha lies outside filtration level F^1 (need y = i x)")
    deep = elliptic_model(n, top=3)
    return _e2_from_blocks(AomotoComplex(deep.algebra,
                                         _class_vector(parts, den)))


def _e2_from_blocks(cx):
    """The E2Report of `e2_page` for a complex cx on an elliptic model's
    algebra built through degree 3, read off the bigraded blocks of its
    differentials whether or not alpha is pure."""
    algebra = cx.algebra
    # types[m][p]: the positions of the type-(p, m - p) basis monomials
    types = []
    for m in range(4):
        types.append([[] for _ in range(m + 1)])
        for j, p in enumerate(algebra.hodge_index[m]):
            types[m][p].append(j)
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
