"""Hand-value tests of the benchmark's oracles and input generators.

    python3 -m pytest bench/test_bench_oracles.py
"""

import json
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import oracles  # noqa: E402


@pytest.mark.parametrize("got, want", [
    (oracles.poincare_braid(4), [1, 6, 11, 6]),            # A3
    (oracles.poincare_braid(5), [1, 10, 35, 50, 24]),      # A4
    (oracles.poincare_b(3), [1, 9, 23, 15]),               # B3
    (oracles.poincare_d(4), [1, 12, 50, 84, 45]),          # D4
    (oracles.poincare_generic_central(6, 3), [1, 6, 15, 10]),
    (oracles.poincare_generic_central(10, 4), [1, 10, 45, 120, 84]),
    (oracles.poincare_generic_affine(4, 2), [1, 4, 6]),
    (oracles.poincare_generic_affine(16, 2), [1, 16, 120]),
])
def test_poincare_hand_values(got, want):
    assert got == want


def test_euler_numbers():
    assert oracles.euler(oracles.poincare_braid(5)) == 0
    assert oracles.euler(oracles.poincare_d(4)) == 0
    for d in range(3, 8):
        chi = oracles.euler(oracles.poincare_generic_affine(d, 2))
        assert chi == oracles.critical_count_generic_lines(d)
    assert oracles.critical_count_generic_lines(6) == 10


def test_braid_circuits_are_cycles_of_kn():
    assert oracles.braid_circuits(4) == 7    # 4 triangles, 3 squares
    assert oracles.braid_circuits(5) == 37   # 10 + 15 + 12


def test_braid_r1_components():
    assert len(oracles.braid_r1_components(4)) == 5
    comps = oracles.braid_r1_components(5)
    assert sum(c[0].startswith("local") for c in comps) == 10
    assert sum(c[0].startswith("nonlocal") for c in comps) == 5
    for comp in comps:
        for v in comp[3]:
            assert sum(v) == 0
            assert oracles.components_containing(v, comps) == [comp[0]]
    # edges 01 02 03 04 12 13 14 23 24 34; on K_4 = {0,1,2,3}:
    # alpha_01 = alpha_23 = 1, alpha_02 = alpha_13 = -1, alpha_03 = alpha_12
    v = [Fraction(x) for x in (1, -1, 0, 0, 0, -1, 0, 1, 0, 0)]
    assert oracles.components_containing(v, comps) == ["nonlocal0123"]
    assert oracles.components_containing([Fraction(1)] * 10, comps) == []


def test_scroll_minors():
    assert oracles.on_scroll([1, 1, -2], [2, 2, -4])
    assert not oracles.on_scroll([1, -1, 0], [0, 1, -1])
    assert not oracles.on_scroll([1, 1, -1], [1, 1, -1])


def test_lines_general_position():
    assert oracles.lines_in_general_position([[0, 1, 0], [0, 0, 1],
                                              [-1, 1, 1]])
    assert not oracles.lines_in_general_position([[0, 1, 0], [0, 0, 1],
                                                  [0, 1, 1]])
    assert not oracles.lines_in_general_position([[0, 1, 0], [1, 1, 0]])
    assert oracles.det([[1, 2], [3, 4]]) == -2


@pytest.mark.parametrize("workload", sorted(inputs.PLANS))
def test_plans_are_seeded(workload, tmp_path):
    a, b, c = (tmp_path / "a", tmp_path / "b", tmp_path / "c")
    for d in (a, b, c):
        d.mkdir()
    inputs.write_plan(workload, 7, a)
    inputs.write_plan(workload, 7, b)
    inputs.write_plan(workload, 8, c)
    files = sorted(os.listdir(a))
    assert files == sorted(os.listdir(b))
    for f in files:
        assert (a / f).read_text() == (b / f).read_text()
    assert (a / "plan.json").read_text() != (c / "plan.json").read_text()


def test_generated_inputs_satisfy_their_oracles(tmp_path):
    with open(inputs.write_plan("aomoto-query", 3, tmp_path)) as fh:
        plan = json.load(fh)
    comps = oracles.braid_r1_components(5)
    for q in plan["queries"]:
        alpha = [Fraction(x) for x in q["alpha"]]
        on = oracles.components_containing(alpha, comps)
        if q["kind"] == "generic":
            assert sum(alpha) != 0
        elif q["kind"] == "component":
            assert on == [q["component"]]
        else:
            assert sum(alpha) == 0 and on == []
    for rung in inputs.os_build_plan(3)["rungs"]:
        if rung["name"].startswith("generic-lines"):
            forms = [[Fraction(x) for x in f]
                     for f in rung["arrangement"]["forms"]]
            assert oracles.lines_in_general_position(forms)
