"""Twisted cohomology of group presentations through free differential
calculus: an oracle for characteristic-variety membership at explicit
characters, independent of any cohomology-algebra model.

Words are sequences of signed 1-based generator indices; -j is the inverse
of generator j.  For a character chi the Fox gradient of a word w satisfies
the fundamental identity sum_j (dw/dx_j)(chi(x_j) - 1) = chi(w) - 1, which
is asserted on every Jacobian build.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .scalars import Matrix, infer_field, rank


class Presentation:
    """A finite group presentation with freely reduced relator words."""

    def __init__(self, generators, relators=()):
        if generators < 0:
            raise PreconditionError("generator count must be nonnegative")
        self.generators = generators
        clean = []
        for idx, word in enumerate(relators):
            word = tuple(int(s) for s in word)
            for s in word:
                if s == 0 or abs(s) > generators:
                    raise PreconditionError(
                        f"relator {idx} uses letter {s}, outside the "
                        f"{generators} generators")
            for a, b in zip(word, word[1:]):
                if a == -b:
                    raise PreconditionError(
                        f"relator {idx} is not freely reduced "
                        f"({a} followed by {b})")
            clean.append(word)
        self.relators = tuple(clean)

    def __repr__(self):
        return (f"Presentation({self.generators} generators, "
                f"{len(self.relators)} relators)")


class Character:
    """A character of the presented group: one invertible scalar per
    generator, consistent on every relator (checked at construction)."""

    def __init__(self, presentation, values):
        if len(values) != presentation.generators:
            raise PreconditionError(
                f"need {presentation.generators} values, got {len(values)}")
        field = infer_field(values)
        values = tuple(field.coerce(v) for v in values)
        for j, v in enumerate(values):
            if not v:
                raise PreconditionError(
                    f"character value for generator {j + 1} is zero, "
                    "not a unit")
        self.presentation = presentation
        self.field = field
        self.values = values
        for idx, word in enumerate(presentation.relators):
            ev = self.evaluate(word)
            if ev != field.one():
                raise PreconditionError(
                    f"character is inconsistent on relator {idx}: "
                    f"chi(r) = {ev} != 1")

    def evaluate(self, word):
        v = self.field.one()
        for s in word:
            if s > 0:
                v = v * self.values[s - 1]
            else:
                v = v / self.values[-s - 1]
        return v

    def is_trivial(self):
        one = self.field.one()
        return all(v == one for v in self.values)


def _fox_gradient(word, chi):
    """Fox derivatives of a word evaluated at the character, plus chi(word).

    d(uv) = du + chi(u) dv;  d(x_j) = e_j;  d(x_j^{-1}) = -chi(x_j)^{-1} e_j.
    """
    field = chi.field
    grad = [field.zero()] * chi.presentation.generators
    v = field.one()
    for s in word:
        j = abs(s) - 1
        if s > 0:
            grad[j] = grad[j] + v
            v = v * chi.values[j]
        else:
            v = v / chi.values[j]
            grad[j] = grad[j] - v
    return grad, v


def fox_jacobian(presentation, chi):
    """The relators-by-generators matrix of Fox derivatives at chi."""
    if chi.presentation is not presentation:
        chi = Character(presentation, chi.values)
    rows = []
    for idx, word in enumerate(presentation.relators):
        grad, ev = _fox_gradient(word, chi)
        check = sum((g * (c - chi.field.one()) for g, c
                     in zip(grad, chi.values)), chi.field.zero())
        if check != ev - chi.field.one():
            raise AssertionError(
                f"fundamental identity fails on relator {idx}")
        rows.append(grad)
    return Matrix(rows, field=chi.field, ncols=presentation.generators)


@dataclass(frozen=True)
class FoxReport:
    h0: int
    h1: int
    h2_presentation: int  # top cohomology of the 2-complex, not H^2 of M
    jacobian_rank: int


def twisted_cohomology(presentation, chi):
    """Cohomology of the presentation 2-complex with coefficients twisted by
    chi.  h0 and h1 are invariants of the group; the top dimension is only
    the presentation complex's and is labeled as such."""
    jac = fox_jacobian(presentation, chi)
    r1 = rank(jac)
    r0 = 0 if chi.is_trivial() else 1
    g = presentation.generators
    h0 = 1 - r0
    h1 = (g - r1) - r0
    h2 = len(presentation.relators) - r1
    assert h0 - h1 + h2 == 1 - g + len(presentation.relators)
    return FoxReport(h0, h1, h2, r1)


def twisted_h1(presentation, chi):
    """dim H^1 of the group at the character chi."""
    return twisted_cohomology(presentation, chi).h1
