"""The master reports, pinned bit for bit.

Each digest is the SHA-256 of the reports that the package produced, on
the inputs below, when every polynomial was factored by sympy's
`Poly.factor_list`.  Factoring through a certificate must change none of
them: a certified factorization is the one sympy would return.

The inputs are the configurations of the benchmark's master plans for
seeds 0-4, regenerated here by the same draws, so that the test needs no
benchmark file; the line library of `jumploci.verify`, with three weight
vectors each; and the `verify-paper` report at seeds 0 and 1.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from jumploci import cli
from jumploci.arrangement import Arrangement
from jumploci.errors import DegeneracyError, PreconditionError
from jumploci.master import (
    critical_points_bivariate, critical_points_univariate,
    local_koszul_univariate, log_zero_divisor_p1, residues_line_arrangement)
from jumploci.verify import LINE_LIBRARY


def digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def outcome(fn, *args, **kwargs):
    """The report, or the type name and message of the input error."""
    try:
        return fn(*args, **kwargs)
    except (DegeneracyError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


def _general_position(forms):
    points = set()
    for (a0, a1, a2), (b0, b1, b2) in combinations(forms, 2):
        det = Fraction(a1) * b2 - Fraction(a2) * b1
        if det == 0:
            return False
        pt = ((Fraction(-a0) * b2 + Fraction(a2) * b0) / det,
              (Fraction(-a1) * b0 + Fraction(a0) * b1) / det)
        if pt in points:
            return False
        points.add(pt)
    return True


def master_plan(seed):
    """The benchmark's master plan: generic lines y = s x + b with d = 3..6,
    s in -3..3 and b in -4..4, weighted by a permutation of 1..d; then 64
    sets of 5 distinct punctures in -6..6 with weights in 1..5."""
    rng = random.Random(f"jumploci-bench:master:{seed}")
    lines = []
    for d in (3, 4, 5, 6):
        while True:
            forms = [[b, s, -1] for s, b in zip(rng.sample(range(-3, 4), d),
                                                rng.sample(range(-4, 5), d))]
            if _general_position(forms):
                break
        lines.append((forms, rng.sample(range(1, d + 1), d)))
    punctured = [(rng.sample(range(-6, 7), 5),
                  [rng.randint(1, 5) for _ in range(5)]) for _ in range(64)]
    return lines, punctured


PLAN_DIGESTS = {
    0: "31bfa37b849b856d771c51d741caa4c29bcef3374c92a44892e61c9160517be8",
    1: "22226826bebc04e319b4fab3eee807c2d36ce8e2eddef2becc14301b55f22bcd",
    2: "c167c6e92fe8d7b3bf05356cdbc8ea6115799868f9942c3f51aeebf25c7775de",
    3: "2a3e89564e9dac6ec0d20cb4bedbcfda1e31c9e1c93ddcfb6af473d7e35fe7c7",
    4: "aced955c1368f3ae0807d184b71bc54a75344c3851d785c165c005dd9f6127d5",
}


@pytest.mark.parametrize("seed", sorted(PLAN_DIGESTS))
def test_master_plan_reports_are_pinned(seed):
    lines, punctured = master_plan(seed)
    reports = [critical_points_bivariate(Arrangement(2, forms), lam)
               for forms, lam in lines]
    for points, lam in punctured:
        reports.append((critical_points_univariate(points, lam),
                        log_zero_divisor_p1(points, lam),
                        local_koszul_univariate(points, lam)))
    assert digest(reports) == PLAN_DIGESTS[seed]


def library_weights(d):
    return [list(range(1, d + 1)), [(-1) ** k * (k + 2) for k in range(d)],
            [1] * (d - 1) + [1 - d]]


def cone(forms):
    """The projective closure in C^3: c1 x + c2 y + c0 z for every affine
    line c0 + c1 x + c2 y, a central form a x + b y read as c0 = 0, and the
    line at infinity z."""
    rows = [[0, *f] if len(f) == 2 else f for f in forms]
    return Arrangement(3, [[c1, c2, c0] for c0, c1, c2 in rows] + [[0, 0, 1]],
                       central=True)


def test_line_library_reports_are_pinned():
    bivariate, residues = [], []
    for _name, forms in LINE_LIBRARY:
        arr, projective = Arrangement(2, forms), cone(forms)
        for lam in library_weights(arr.size):
            bivariate.append(outcome(critical_points_bivariate, arr, lam))
            residues.append(outcome(residues_line_arrangement, projective,
                                    lam + [-sum(lam)]))
    assert digest(bivariate) == (
        "e01b0a4f03067390c6677869ee665bbc20a72918f236e75b4f23ee95a9426faa")
    assert digest(residues) == (
        "f3470eef57528c2878772bed3c3ae87adeb71dca23b053ca05b4f9bf80f67c13")


VERIFY_DIGESTS = {
    0: "539a8b954fe683106c5201927d67cc20da7143cb8ab63cb7c324ad7b9eb908e3",
    1: "7dc0abd0abc099e6d7e112365a8f643250b3c88d28024c9ce21f14c1b36323af",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_DIGESTS))
def test_verify_paper_report_is_pinned(seed):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify-paper", "--seed", str(seed)])
    assert code == 0
    result = json.loads(buf.getvalue())["result"]
    assert digest(json.dumps(result, sort_keys=True)) == VERIFY_DIGESTS[seed]
