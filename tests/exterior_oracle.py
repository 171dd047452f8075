"""Reference product of classes for the tests of `exterior` and `aomoto`.

This is how the package multiplied classes before it read every product off
its integer structure constants: a class is lifted to the multivector of
its quotient-basis monomials, two multivectors are wedged term by term, and
the product is projected back through the stored projections `proj`, in
field arithmetic.  The sign of e_S wedge e_T is counted here as the pairs
i in S, j in T with i > j, so it shares no code with
`exterior._merge_sign`, `GradedAlgebra.structure_constants` or
`class_mult_parts`.  `Multivector` is the package's, the input type of
`build_quotient_algebra`.
"""

from __future__ import annotations

from fractions import Fraction

from jumploci.exterior import Multivector


def sign(s, t):
    """The sign of e_S wedge e_T for disjoint bitmasks s and t."""
    inversions = sum(1 for i in range(s.bit_length()) if s >> i & 1
                     for j in range(i) if t >> j & 1)
    return -1 if inversions & 1 else 1


def wedge(u, v):
    """The exterior product of two multivectors on the same generators."""
    assert u.ngens == v.ngens, "generator count mismatch"
    out = {}
    for s, a in u.terms.items():
        for t, b in v.terms.items():
            if not s & t:
                out[s | t] = out.get(s | t, 0) + a * b * sign(s, t)
    return Multivector(u.ngens, out)


def lift(algebra, coords, d):
    """The canonical representative: sum of quotient-basis monomials."""
    return Multivector(algebra.ngens, list(zip(algebra.basis[d], coords)))


def project(algebra, mv, d=None):
    """Coordinates of a multivector's class in the degree-d basis, as
    field values."""
    if d is None:
        d = mv.degree() if mv.terms else 0
    assert not mv.terms or mv.degree() == d, "degree mismatch"
    field = algebra.field
    out = [field.zero()] * algebra.dim(d)
    index = algebra.mono_index[d]
    den, cols = algebra.proj[d]
    for mask, c in mv.terms.items():
        c = field.coerce(c)
        for j, pc in cols[index[mask]]:
            out[j] = out[j] + c * pc
    if den != 1:
        inv = field.coerce(Fraction(1, den))
        out = [x * inv for x in out]
    return [field.coerce(x) for x in out]


def multiply(algebra, u, v):
    """Product of two multivector representatives, projected."""
    deg = (u.degree() if u.terms else 0) + (v.degree() if v.terms else 0)
    return project(algebra, wedge(u, v), deg)
