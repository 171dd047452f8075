"""The CLI reports on the bundled fixtures, pinned bit for bit.

Each digest is the SHA-256 of one run's `result` together with its
`inputs`, where an input file is kept by its SHA-256 and not by its path,
as the package produced them before the sample counts of the acceptance
checks became constants of `jumploci.verify`.  The `elliptic` runs pin the
mapping from `--trials t` to the counts of `check_elliptic_suite`.
"""

import contextlib
import hashlib
import io
import json

import pytest

from jumploci import cli

SIXPLANES_E1 = "1,0,0,0,-1,0;0,1,0,0,-1,0;0,0,1,0,-1,0"

PINNED_RUNS = [
    (["os-algebra", "--arrangement", "boolean2"],
     "8c6efa789a7fbbc068bdb24d0b2bbcf6dae5962c0ed1629f8d12f4659cbe8c0c"),
    (["os-algebra", "--arrangement", "concurrent3"],
     "0c34ea14b0ecdae957385f921f3d86502003d3c1a116ebaa5e3e75f52146ef0c"),
    (["os-algebra", "--arrangement", "generic3"],
     "583a035d29ec9dac83c8c2ffbfe6157a9d254954ad081079be0411db682221ce"),
    (["os-algebra", "--arrangement", "sixplanes4"],
     "bec532ffdffe53b8a9cd80d93748af3b48126b981825ee392be0bbb3c1ecbe49"),
    (["aomoto", "--arrangement", "sixplanes4", "--alpha", "1,0,0,0,-1,0",
      "--degree", "2"],
     "b7226f0a15092aff578d572e6ce49f642c303774caa5a9ed9801107568fdf036"),
    (["log-resonance", "--arrangement", "concurrent3", "--alpha", "1,1,-2"],
     "3e27abdaa801a4778ed73968aa51cd5c5ae5118316381d144734973e3194208a"),
    (["resonance-sample", "--arrangement", "sixplanes4",
      "--subspace", SIXPLANES_E1, "--trials", "3"],
     "836955bd41317946cc9bbae7e7d53e3aba863f9a9572c9fe89ab8bb38c5e641b"),
    (["etc-membership", "--system", "subtorus", "--alpha", "1,-1"],
     "1bc8b2c0acf3c1b75308c12f6657239b14d0d2a6bc812887c5a0b2a04cf366a1"),
    (["etc-membership", "--system", "translated", "--alpha", "1,-1"],
     "b91c372930bac3f12f3fd1878131f6ed25c59e33bc3c34ea16e34e189453c409"),
    (["fox-h1", "--presentation", "free2", "--character", "2,3"],
     "2c0d34b03b72704841564b760b63c07ad860cdbf46af037cfdad8b8c6f8bfdd9"),
    (["fox-h1", "--presentation", "torusrel", "--character", "2,3"],
     "b22608438e53fb6b21a123a84e9c059d8e30135f4d40c6dc4342e6593502e2ca"),
    (["elliptic", "--n", "3"],
     "e385a89919538056543d643cf6d5687fbc8d8ed05d94d35ee3eb1097fe551f68"),
    (["elliptic", "--n", "3", "--trials", "3"],
     "dcd389d9e032fea25ab2519ea41c6c3ff6c4dd21559d418041f831a46a3f15f2"),
    (["elliptic", "--n", "4", "--trials", "8"],
     "9bf3898d8670ff757711d517f9fb7e8b25ee93381610c6623e1fae268b519d47"),
]


def _without_paths(inputs):
    return {key: ({k: v for k, v in value.items() if k != "path"}
                  if isinstance(value, dict) else value)
            for key, value in inputs.items()}


def run_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    rep = json.loads(out.getvalue())
    pinned = {"result": rep["result"], "inputs": _without_paths(rep["inputs"])}
    return hashlib.sha256(
        json.dumps(pinned, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("argv,expected", PINNED_RUNS,
                         ids=[" ".join(argv) for argv, _ in PINNED_RUNS])
def test_cli_report_is_pinned(argv, expected):
    assert run_digest(argv) == expected
