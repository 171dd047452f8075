"""Fox calculus on group presentations, the independent h^1 oracle."""

from fractions import Fraction

import pytest

from jumploci.aomoto import AomotoComplex
from jumploci.arrangement import os_algebra, points_arrangement
from jumploci.errors import PreconditionError
from jumploci.foxcalc import (
    Character, Presentation, fox_jacobian, twisted_cohomology, twisted_h1)
from jumploci.scalars import GaussianRational

TORUS = Presentation(2, [[1, 2, -1, -2]])


def test_free_group_has_empty_jacobian():
    free2 = Presentation(2)
    chi = Character(free2, [2, 3])
    jac = fox_jacobian(free2, chi)
    assert jac.nrows == 0 and jac.ncols == 2


def test_free_group_twisted_h1():
    free2 = Presentation(2)
    assert twisted_h1(free2, Character(free2, [2, 3])) == 1
    rep = twisted_cohomology(free2, Character(free2, [2, 3]))
    assert (rep.h0, rep.h1, rep.h2_presentation) == (0, 1, 0)
    assert rep.jacobian_rank == 0


def test_free_group_trivial_character():
    free3 = Presentation(3)
    assert twisted_h1(free3, Character(free3, [1, 1, 1])) == 3


def test_torus_jacobian_row():
    # d[a,b]/da = 1 - chi(b), d[a,b]/db = chi(a) - 1
    chi = Character(TORUS, [2, 1])
    jac = fox_jacobian(TORUS, chi)
    assert jac.row(0) == (Fraction(0), Fraction(1))
    trivial = Character(TORUS, [1, 1])
    assert fox_jacobian(TORUS, trivial).is_zero()


def test_torus_cohomology():
    assert twisted_h1(TORUS, Character(TORUS, [2, 1])) == 0
    rep = twisted_cohomology(TORUS, Character(TORUS, [1, 1]))
    assert (rep.h0, rep.h1, rep.h2_presentation) == (1, 2, 1)


def test_torsion_relator():
    squared = Presentation(1, [[1, 1]])
    chi = Character(squared, [-1])
    rep = twisted_cohomology(squared, chi)
    # d(a^2)/da = 1 + chi(a) = 0, so the Jacobian vanishes
    assert rep.jacobian_rank == 0
    assert (rep.h0, rep.h1, rep.h2_presentation) == (0, 0, 1)


def test_inconsistent_character_names_relator():
    squared = Presentation(1, [[1, 1]])
    with pytest.raises(PreconditionError, match="relator 0"):
        Character(squared, [2])


def test_character_validation():
    free2 = Presentation(2)
    with pytest.raises(PreconditionError, match="zero"):
        Character(free2, [0, 1])
    with pytest.raises(PreconditionError, match="values"):
        Character(free2, [2])


def test_presentation_validation():
    with pytest.raises(PreconditionError, match="freely reduced"):
        Presentation(2, [[1, -1]])
    with pytest.raises(PreconditionError, match="letter"):
        Presentation(2, [[1, 3]])
    with pytest.raises(PreconditionError, match="letter"):
        Presentation(2, [[1, 0]])


def test_gaussian_and_prime_field_characters():
    free2 = Presentation(2)
    i = GaussianRational(0, 1)
    assert twisted_h1(free2, Character(free2, [i, GaussianRational(2)])) == 1


def test_fundamental_identity():
    # sum_j (dr/dx_j)(chi(x_j) - 1) = chi(r) - 1 = 0 on every relator
    pres = Presentation(3, [[1, 2, -1, -2], [2, 3, -2, -3]])
    chi = Character(pres, [2, 3, 5])
    jac = fox_jacobian(pres, chi)
    one = chi.field.one()
    for r in range(jac.nrows):
        acc = chi.field.zero()
        for j in range(jac.ncols):
            acc = acc + jac.entries[r][j] * (chi.values[j] - one)
        assert not acc


def test_euler_identity():
    cases = [
        (TORUS, [2, 1]),
        (TORUS, [1, 1]),
        (Presentation(3, [[1, 2, -1, -2]]), [5, 1, 2]),
        (Presentation(1, [[1, 1]]), [-1]),
    ]
    for pres, values in cases:
        rep = twisted_cohomology(pres, Character(pres, values))
        assert rep.h0 - rep.h1 + rep.h2_presentation == \
            1 - pres.generators + len(pres.relators)


def test_h0_detects_trivial_character():
    pres = Presentation(2, [[1, 2, -1, -2]])
    assert twisted_cohomology(pres, Character(pres, [1, 1])).h0 == 1
    assert twisted_cohomology(pres, Character(pres, [3, 1])).h0 == 0


def test_agreement_with_aomoto_on_punctured_line():
    # complement of d points: free group F_d on meridians; h^1 at any
    # character away from 1 equals d - 1, the Aomoto value at nonzero alpha
    d = 4
    free = Presentation(d)
    chi = Character(free, [2, 1, 1, 1])
    algebra = os_algebra(points_arrangement(list(range(d))))
    h = AomotoComplex(algebra, [1, -1, 0, 0]).cohomology_dims()
    assert twisted_h1(free, chi) == h[1] == d - 1
