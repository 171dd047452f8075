"""Acceptance gate: the eight verification criteria, all at zero tolerance.

Runs the full suite once (module scope) and reports one pass/fail line per
criterion.  Any failure here means a mathematical claim of the package is
broken, not a style issue; see jumploci.verify for what each check covers.
"""

import pytest

from jumploci.errors import PreconditionError
from jumploci.verify import (
    check_cross_oracle, check_elliptic_all, check_elliptic_suite,
    check_etc_suite, check_hopf_counts, check_jump_components,
    check_local_koszul, check_structural_invariants, run_all)

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


@pytest.mark.parametrize("check, kwargs", [
    (check_jump_components, {"outside_samples": 0}),
    (check_jump_components, {"outside_samples": -3}),
    (check_elliptic_suite, {"n": 3, "lr_samples": 0}),
    (check_elliptic_all, {"ns": ()}),
    (check_hopf_counts, {"univariate_runs": 0}),
    (check_local_koszul, {"random_runs": 0}),
    (check_etc_suite, {"samples": 0}),
    (check_cross_oracle, {"characters": 0}),
    (check_cross_oracle, {"alphas": 0}),
    (check_cross_oracle, {"ds": ()}),
    (check_structural_invariants, {"trials": 0}),
    (check_structural_invariants, {"trials": -1}),
], ids=lambda v: getattr(v, "__name__", None) or repr(v))
def test_checks_refuse_to_run_without_samples(check, kwargs):
    # a check that ran nothing would otherwise pass vacuously
    with pytest.raises(PreconditionError, match="must be at least 1"):
        check(**kwargs)
