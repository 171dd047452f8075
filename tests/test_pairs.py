"""The verdicts of tools/pairs.py: the 10-pair rule, one metric at a time."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "pairs.py")
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

BASE = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, IQR 0.0575


def judge(base, head, better="lower", bound=0.25):
    return pairs.verdict(base, head, bound, better)["verdict"]


def test_a_gain_wins_nine_pairs_in_ten_by_more_than_the_base_spread():
    faster = [b - 0.2 for b in BASE]
    got = pairs.verdict(BASE, faster, 0.25, "lower")
    assert got["verdict"] == "gain" and got["wins"] == 10
    # nine wins in ten still count, eight do not
    assert judge(BASE, faster[:9] + [BASE[9] + 0.01]) == "gain"
    assert judge(BASE, faster[:8] + [b + 0.01 for b in BASE[8:]]) == "same"
    # nor do nine pairs, all won
    assert judge(BASE[:9], faster[:9]) == "same"
    # every pair won, by less than the base's interquartile range
    assert judge(BASE, [b - 0.05 for b in BASE]) == "same"


def test_worse_is_a_median_past_the_bound():
    assert judge(BASE, [b + 0.3 for b in BASE]) == "worse"
    assert judge(BASE, [b + 0.2 for b in BASE]) == "same"
    assert judge(BASE, [b + 0.3 for b in BASE], better="higher") == "gain"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    base = [1.0, 2.0] * 5
    assert judge(base, list(base)) == "unresolved"


def test_no_gain_when_the_head_fails_a_larger_share_of_operations():
    faster = [b - 0.2 for b in BASE]
    got = pairs.verdict(BASE, faster, 0.25, "lower", failed=(0.0, 0.01))
    assert got["verdict"] == "same" and got["failed"]["head"] == 0.01
    assert pairs.verdict(BASE, faster, 0.25, "lower",
                         failed=(0.02, 0.01))["verdict"] == "gain"
    assert pairs.verdict(BASE, faster, 0.25, "lower",
                         failed=(0.01, 0.01))["verdict"] == "gain"
