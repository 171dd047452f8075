"""Aomoto kernels and cohomology, pinned bit for bit.

The digest is the SHA-256 of `AomotoComplex(A, alpha).kernels()` and
`cohomology_dims()` at seeded points of two algebras, as the package
produced them when ranks over QQ and QQ(i) were lifted from images mod
primes and certified.  The kernels are read off full reduced echelon forms,
so the digest pins the echelon bits of the exact elimination core over
both fields:

- the OS algebra of braid A4 (x_i - x_j in C^5), at 5 points with
  sum alpha = 0 and 5 with sum alpha != 0;
- `elliptic_model(4, 3)`, at 5 classes `class_coords(x, y)` with Gaussian
  coordinates.

The other digests were taken before `class_coords` computed on integer
parts and before real Q(i) matrices were eliminated on their real part
alone, so they pin both changes.  Only `AomotoComplex` takes that route
now, for the blocks of a real class; `_rref_parts` eliminates a real Q(i)
matrix on both parts, with the same bits:

- `e2_page` on the models n = 4, 5, 6, at seeded real x and at multiples
  of a_i - a_j (y = i x in both);
- `log_resonance_membership` at seeded real x, at the same kinds of class;
- `class_coords` of seeded rational and Gaussian (x, y), each part as its
  `Fraction`;
- `_rref_parts` of seeded Q(i) matrices whose imaginary part is zero, with
  dependent rows.

The route and cohomology of braid A4 at classes with sum alpha = 0 were
pinned before `restricted_rank` assembled only the blocks it ranks: one
class on each triple-point component, seeded classes off every component,
and the degree-2 jump alpha = (1, 2, -3, 0, ...).

The F_p sample of braid A5 pins ranks mod p at the size of the paper's
objects: its blocks reach 120 x 154, where the benchmark's are below 30.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from jumploci.aomoto import (AomotoComplex, generic_dims_sample,
                             log_resonance_membership)
from jumploci.arrangement import Arrangement, os_algebra
from jumploci.elliptic import e2_page, elliptic_model
from jumploci.scalars import DEFAULT_PRIME, QI, GaussianRational, _rref_parts

I = GaussianRational(0, 1)


def braid(n):
    """The OS algebra of x_i - x_j in C^n, hyperplanes in the order of
    `combinations(range(n), 2)`."""
    return os_algebra(Arrangement(n, [
        [1 if k == i else (-1 if k == j else 0) for k in range(n)]
        for i, j in combinations(range(n), 2)]))


def rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def gaussian(rng):
    return GaussianRational(rational(rng), rational(rng))


def digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def points():
    rng = random.Random("jumploci-test:kernel-identity")
    A = braid(5)
    for zero_sum in (True,) * 5 + (False,) * 5:
        alpha = [rational(rng) for _ in range(A.dim(1))]
        if zero_sum:
            alpha[-1] -= sum(alpha)
        yield A, alpha
    model = elliptic_model(4, 3)
    for _ in range(5):
        x = [gaussian(rng) for _ in range(4)]
        y = [gaussian(rng) for _ in range(4)]
        yield model.algebra, model.class_coords(x, y)


def test_aomoto_kernels_are_pinned_bit_for_bit():
    values = []
    for A, alpha in points():
        complex_ = AomotoComplex(A, alpha)
        values.append((complex_.kernels(), complex_.cohomology_dims()))
    assert digest(values) == (
        "461a9c9a59a5b01bdb835761c9989f78678eba1912194c3c780fd65766106813")


def real_classes(rng, n, count):
    """x for pure classes (x, ix): seeded real x, alternating with
    multiples of a_i - a_j, which lie on the scroll."""
    for k in range(count):
        if k % 2:
            i, j = rng.sample(range(n), 2)
            c = rational(rng) or Fraction(1)
            x = [c if t == i else -c if t == j else Fraction(0)
                 for t in range(n)]
        else:
            x = [rational(rng) for _ in range(n)]
        if not any(x):
            x[0] = Fraction(1)
        yield x


def test_e2_pages_are_pinned_bit_for_bit():
    rng = random.Random("jumploci-test:e2-identity")
    values = [e2_page(elliptic_model(n), x, [I * c for c in x])
              for n in (4, 5, 6) for x in real_classes(rng, n, 4)]
    assert digest(values) == (
        "33927ed1cadae7aa72a5677024fa0282833739f84bf723dbae47d4a4a22ae9a5")


def test_log_resonance_is_pinned_bit_for_bit():
    rng = random.Random("jumploci-test:log-resonance-identity")
    values = []
    for n in (4, 5, 6):
        m = elliptic_model(n)
        for x in real_classes(rng, n, 6):
            alpha = m.class_coords(x, [I * c for c in x])
            values.append(log_resonance_membership(m.algebra, alpha))
    assert digest(values) == (
        "afec45db09dfab34a29583af8635c4e83628aa0fd7ba69a8574bb7632901c26c")


def test_class_coords_are_pinned_bit_for_bit():
    rng = random.Random("jumploci-test:class-coords-identity")
    m = elliptic_model(5)
    values = []
    for draw in (rational, gaussian):
        for _ in range(10):
            x = [draw(rng) for _ in range(5)]
            y = [draw(rng) for _ in range(5)]
            values.append([(c.re, c.im) for c in m.class_coords(x, y)])
    assert digest(values) == (
        "572ba645b21f2d0eb2dbc5f27245df00eb8ff8969458d3bb92946893d7ff5a60")


def test_real_gaussian_echelons_are_pinned_bit_for_bit():
    rng = random.Random("jumploci-test:real-gaussian-rref-identity")
    values = []
    for _ in range(40):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9),
                             rng.randint(-10**6, 10**6)))
                 for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(rng.randint(0, 3)):
            coeffs = [rng.randint(-3, 3) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                         for j in range(ncols)])
        rng.shuffle(rows)
        # sparse rows of Gaussian integers with zero imaginary parts,
        # eliminated on both parts
        values.append(_rref_parts([{j: (v, 0) for j, v in enumerate(row) if v}
                                   for row in rows], ncols, QI))
    assert digest(values) == (
        "12f19349372a81fe52feaef0f392c9ca8b123eea637720813f2307a01cf36011")


def braid_a4_zero_sum_classes(rng):
    """Classes with sum alpha = 0 on braid A4: one on each triple-point
    component, seeded classes off every component, and the degree-2 jump
    alpha = (1, 2, -3, 0, ...)."""
    position = {pair: k for k, pair in enumerate(combinations(range(5), 2))}
    for i, j, k in combinations(range(5), 3):
        a, b = rational(rng) or Fraction(1), rational(rng) or Fraction(1)
        alpha = [Fraction(0)] * 10
        alpha[position[i, j]], alpha[position[i, k]] = a, b
        alpha[position[j, k]] = -a - b
        yield alpha
    for _ in range(5):
        alpha = [rational(rng) for _ in range(10)]
        alpha[-1] -= sum(alpha)
        yield alpha
    yield [Fraction(c) for c in (1, 2, -3, 0, 0, 0, 0, 0, 0, 0)]


def test_braid_a4_quotient_route_is_pinned_bit_for_bit():
    # the shape of the benchmark's median Aomoto query: the quotient route
    # ranks blocks of the differentials on A/e_4 A
    rng = random.Random("jumploci-test:braid-a4-quotient-identity")
    A = braid(5)
    values = []
    for alpha in braid_a4_zero_sum_classes(rng):
        cx = AomotoComplex(A, alpha)
        values.append((cx.route, cx.cohomology_dims()))
    assert {route for route, _ in values} == {"quotient"}
    assert digest(values) == (
        "ca6fbd2c9313a874063c63e60111011e13d005b26acb94ccf6d64320acc7e5dd")


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 5])
def test_braid_a5_triple_point_sample_is_pinned(prime):
    # the local component of the triple point {01, 02, 12}, spanned by
    # e01 - e12 and e02 - e12, sampled mod p; at p = 5 the blocks hand the
    # core negative entries, entries above p and multiples of p, which it
    # reduces as it copies them
    e01_e12 = [1, 0, 0, 0, 0, -1] + [0] * 9
    e02_e12 = [0, 1, 0, 0, 0, -1] + [0] * 9
    report = generic_dims_sample(braid(6), [e01_e12, e02_e12], trials=3,
                                 prime=prime, seed=0)
    assert report.dims == (0, 1, 13, 59, 107, 60)
    assert report.flagged == ()
