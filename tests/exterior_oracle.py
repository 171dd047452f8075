"""Reference product of classes for the tests of `exterior` and `aomoto`.

This is how the package multiplied classes before it read every product off
its integer structure constants: a class is lifted to the term dict
{mask: coefficient} of its quotient-basis monomials, two term dicts are
wedged term by term, and the product is projected back through the stored
projections `proj`, keyed by mask, in field arithmetic.  The sign of
e_S wedge e_T is counted here as the pairs i in S, j in T with i > j, so it
shares no code with `exterior._merge_sign`,
`GradedAlgebra.structure_constants` or `class_mult_parts`.  A term dict is
the relation format that `build_quotient_algebra` takes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def sign(s, t):
    """The sign of e_S wedge e_T for disjoint bitmasks s and t."""
    inversions = sum(1 for i in range(s.bit_length()) if s >> i & 1
                     for j in range(i) if t >> j & 1)
    return -1 if inversions & 1 else 1


def add(*terms):
    """The sum of term dicts, with the terms that cancel dropped."""
    out = {}
    for u in terms:
        for m, c in u.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def scale(u, c):
    """c times a term dict."""
    return {m: c * a for m, a in u.items() if c * a}


def wedge(u, v):
    """The exterior product of two term dicts, with the terms that cancel
    dropped."""
    out = {}
    for s, a in u.items():
        for t, b in v.items():
            if not s & t:
                out[s | t] = out.get(s | t, 0) + a * b * sign(s, t)
    return {m: c for m, c in out.items() if c}


def degree(u):
    """The degree of a homogeneous term dict (0 for the zero one)."""
    degrees = {m.bit_count() for m in u}
    assert len(degrees) <= 1, "not homogeneous"
    return degrees.pop() if degrees else 0


def lift(algebra, coords, d):
    """The canonical representative: sum of quotient-basis monomials."""
    return {m: c for m, c in zip(algebra.basis[d], coords) if c}


def project(algebra, u, d=None):
    """Coordinates of a term dict's class in the degree-d basis, as field
    values."""
    if d is None:
        d = degree(u)
    assert not u or degree(u) == d, "degree mismatch"
    field = algebra.field
    out = [field.zero()] * algebra.dim(d)
    den, cols = algebra.proj[d]
    for mask, c in u.items():
        c = field.coerce(c)
        for j, pc in cols[mask]:
            out[j] = out[j] + c * pc
    if den != 1:
        inv = field.coerce(Fraction(1, den))
        out = [x * inv for x in out]
    return [field.coerce(x) for x in out]


def multiply(algebra, u, v):
    """Product of two term dict representatives, projected."""
    return project(algebra, wedge(u, v), degree(u) + degree(v))


def positional(algebra):
    """(monomials, proj) with proj per degree as (den, [column of each
    monomial]), in the lex order of `monomials`: the layout in which the
    algebra was once stored, which the identity pins hash."""
    monomials = [[sum(1 << i for i in c)
                  for c in combinations(range(algebra.ngens), d)]
                 for d in range(algebra.top + 1)]
    proj = [(den, [cols[m] for m in ms])
            for (den, cols), ms in zip(algebra.proj, monomials)]
    return monomials, proj
