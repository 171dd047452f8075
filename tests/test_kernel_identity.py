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
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

from jumploci.aomoto import AomotoComplex
from jumploci.arrangement import Arrangement, os_algebra
from jumploci.elliptic import elliptic_model
from jumploci.scalars import GaussianRational


def braid_a4():
    return os_algebra(Arrangement(5, [
        [1 if k == i else (-1 if k == j else 0) for k in range(5)]
        for i, j in combinations(range(5), 2)]))


def rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def gaussian(rng):
    return GaussianRational(rational(rng), rational(rng))


def points():
    rng = random.Random("jumploci-test:kernel-identity")
    A = braid_a4()
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
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "461a9c9a59a5b01bdb835761c9989f78678eba1912194c3c780fd65766106813")
