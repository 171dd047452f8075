"""Acceptance gate: the eight verification criteria, all at zero tolerance.

Runs the full suite once (module scope) and reports one pass/fail line per
criterion.  Any failure here means a mathematical claim of the package is
broken, not a style issue; see jumploci.verify for what each check covers.
"""

import pytest

from jumploci.errors import PreconditionError
from jumploci.verify import check_elliptic_suite, run_all

CRITERIA = [
    ("1", "OS deletion-restriction + NBC/point-count oracles"),
    ("2", "C^4 six-plane degree-2 jump components"),
    ("3", "elliptic configuration suite, n in {3, 4, 5}"),
    ("4", "Hopf index: P^1 divisor degrees and bivariate counts"),
    ("5", "local Koszul: H^0 = 0, dim H^1 = multiplicity at every zero"),
    ("6", "exponential tangent cone: subtori, translated case, ETC in TC"),
    ("7", "Fox h^1 = Aomoto h^1 = d - 1 on punctured lines"),
    ("8", "composition-zero, Euler, scaling, LR1 in R1 cap F1"),
]


@pytest.fixture(scope="module")
def results():
    return run_all(seed=0)


@pytest.mark.parametrize(
    "idx", range(len(CRITERIA)), ids=[f"criterion-{c}" for c, _ in CRITERIA])
def test_criterion(results, idx, capsys):
    res = results[idx]
    want_id, want_label = CRITERIA[idx]
    assert res.criterion == want_id
    assert res.label == want_label
    with capsys.disabled():
        print(f"\n[{res.criterion}] {res.label}: "
              f"{'PASS' if res.passed else 'FAIL'}")
    assert res.passed, f"criterion {res.criterion} failed: {res.details}"


def test_all_passed(results):
    assert all(r.passed for r in results)


@pytest.mark.parametrize("trials", [0, -1, 2])
def test_checks_refuse_to_run_without_samples(trials):
    # a check that ran nothing would otherwise pass vacuously, and the
    # scroll check needs one sample in each of its three strata
    with pytest.raises(PreconditionError, match="trials must be at least 3"):
        check_elliptic_suite(3, trials=trials)
