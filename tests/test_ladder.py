"""The rungs of tools/ladder.py: each answer is checked against the
constant the ladder file holds, so a fast wrong answer fails its rung."""

import importlib.util
import os
import sys
import types

import pytest

from jumploci import aomoto

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "ladder.py")
_SPEC = importlib.util.spec_from_file_location("ladder", _PATH)
ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder)


@pytest.mark.parametrize("rung", ["a5-query", "e7-query"])
def test_rung_gives_its_constant(rung):
    got = ladder.run(rung)
    assert got["correct"] and got["answer"] == ladder.RUNGS[rung][1]
    assert got["run_s"] > 0 and got["setup_s"] > 0 and got["peak_rss_mb"] > 0


def test_wrong_dims_returned_fast_fail_the_rung(monkeypatch, capsys):
    # a mutant that skips the elimination and returns the generic dims of
    # a class off the quotient route
    monkeypatch.setattr(aomoto.AomotoComplex, "cohomology_dims",
                        lambda self: (0,) * (self.algebra.top + 1))
    got = ladder.run("a5-query")
    assert not got["correct"] and got["answer"][1] == (0,) * 6
    assert ladder.main(["a5-query"]) == 1
    capsys.readouterr()


def test_wrong_ranks_fail_the_elliptic_rung(monkeypatch):
    # one rank short in degree 2: h^2 and h^3 would read 1
    ranks = aomoto.AomotoComplex.ranks
    monkeypatch.setattr(aomoto.AomotoComplex, "ranks", lambda self: tuple(
        r - (d == 2) for d, r in enumerate(ranks(self))))
    assert not ladder.run("e7-query")["correct"]


def test_missing_name_and_unknown_rung_are_refused(monkeypatch, capsys):
    # a package with none of the names a rung imports
    monkeypatch.setitem(sys.modules, "jumploci", types.ModuleType("jumploci"))
    with pytest.raises(ladder.Refused, match="calls a name this package"):
        ladder.run("e7-query")
    assert ladder.main(["e7-query"]) == 2
    assert ladder.main(["a9-query"]) == 2
    assert "unknown rung 'a9-query'" in capsys.readouterr().err
