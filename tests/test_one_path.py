"""One way to multiply and one way to rank: the package's own paths build
no `Matrix` of field objects.

Classes are multiplied through the integer structure constants, and ranks
are taken on integer rows.  `Matrix` is constructed only in `scalars.py`
and in the two readers that the benchmark's tracer wraps,
`GradedAlgebra.class_mult_matrix` and `Arrangement.common_point`."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from jumploci import scalars
from jumploci.aomoto import generic_dims_sample, isotropic_check
from jumploci.arrangement import Arrangement, os_algebra
from jumploci.elliptic import elliptic_model, tangent_pair_basis
from jumploci.errors import PreconditionError
from jumploci.foxcalc import (Character, Presentation, fox_jacobian,
                              twisted_cohomology)
from jumploci.scalars import GaussianRational, rank
from jumploci.verify import SIXPLANES_FORMS, check_structural_invariants

SRC = Path(__file__).resolve().parent.parent / "src" / "jumploci"
MATRIX_READERS = {("exterior.py", "GradedAlgebra.class_mult_matrix"),
                  ("arrangement.py", "Arrangement.common_point")}


def matrix_calls(tree):
    """The qualified names of the functions that call `Matrix(...)`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name == "Matrix":
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)
    visit(tree, ())
    return found


def test_matrix_is_built_only_by_scalars_and_the_pinned_readers():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "scalars.py")
    assert modules
    calls = {(p.name, q) for p in modules
             for q in matrix_calls(ast.parse(p.read_text(), str(p)))}
    assert calls <= MATRIX_READERS, sorted(calls - MATRIX_READERS)


def test_the_call_finder_sees_a_matrix_call():
    tree = ast.parse("class A:\n    def f(self):\n        return Matrix([])\n"
                     "def g():\n    return scalars.Matrix([[1]])\n")
    assert matrix_calls(tree) == ["A.f", "g"]


@pytest.fixture
def no_detour(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built")
    monkeypatch.setattr(scalars.Matrix, "__init__", refuse)


def test_products_and_ranks_build_no_matrix_and_no_multivector(no_detour):
    # criterion 8, isotropy, the Fox ranks and the arrangement rank
    assert check_structural_invariants(0).passed
    m = elliptic_model(3)
    pair = [m.class_coords(x, y) for x, y in tangent_pair_basis(3, 0, 1)]
    assert isotropic_check(m.algebra, pair).isotropic
    assert not isotropic_check(m.algebra, [pair[0], m.class_coords(
        [1, 0, -1], [0, 0, 0])]).isotropic
    assert Arrangement(2, [[1, 0], [0, 1], [1, 1]]).rank() == 2
    assert Arrangement(3, [[1, 2, 3], [1, 2, 0], [0, 0, 1]]).rank() == 2
    assert Arrangement(2, []).rank() == 0
    torus = Presentation(2, [[1, 2, -1, -2]])
    assert twisted_cohomology(torus, Character(torus, [2, 1])).h1 == 0


def test_samples_rank_their_subspace_with_no_matrix(no_detour):
    # the subspace rows are cleared once and ranked as integer rows, over
    # the field and mod p; six planes over QQ, an elliptic model over QQ(i)
    sixplanes = os_algebra(Arrangement(4, SIXPLANES_FORMS, central=True))
    rows = [[1, -1, 0, 0, 0, 0], [0, Fraction(1, 2), Fraction(-1, 2), 0, 0, 0]]
    assert generic_dims_sample(sixplanes, rows, trials=3).dims == (
        0, 0, 1, 4, 3)
    m = elliptic_model(3)
    pair = [m.class_coords(x, y) for x, y in tangent_pair_basis(3, 0, 1)]
    assert generic_dims_sample(m.algebra, pair, trials=3).dims == (0, 1, 8)


units = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    st.builds(GaussianRational, st.integers(-2, 2),
              st.integers(-2, 2)).filter(bool))


@given(st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_fox_ranks_equal_the_matrix_rank(g, data):
    # commutator relators hold at every character of an abelian image
    pairs = st.tuples(st.integers(1, g), st.integers(1, g)).filter(
        lambda p: p[0] != p[1])
    relators = [[a, b, -a, -b] for a, b in data.draw(
        st.lists(pairs, max_size=3))] if g > 1 else []
    pres = Presentation(g, relators)
    chi = Character(pres, data.draw(st.lists(units, min_size=g,
                                             max_size=g)))
    rows = fox_jacobian(pres, chi)
    want = rank(rows, chi.field) if rows else 0
    assert twisted_cohomology(pres, chi).jacobian_rank == want


@given(st.integers(1, 3), st.lists(st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=4, max_size=4), max_size=6))
@settings(max_examples=80, deadline=None)
def test_arrangement_rank_equals_the_matrix_rank(ambient, rows):
    forms = [r[:ambient + 1] for r in rows if any(r[1:ambient + 1])]
    try:
        arr = Arrangement(ambient, forms)
    except PreconditionError:  # two forms define one hyperplane
        assume(False)
    want = rank(arr.linear_parts()) if arr.forms else 0
    assert arr.rank() == want
