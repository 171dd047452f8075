"""The scale ladder: queries at the paper's sizes, each checked against a
constant written in this file.

    PYTHONPATH=src python3 tools/ladder.py RUNG [RUNG ...]

runs each rung once, in this process, on the `jumploci` that the import
path finds, and prints one JSON line per rung:

    {"rung": ..., "setup_s": ..., "run_s": ..., "peak_rss_mb": ...,
     "correct": ..., "answer": ...}

`setup_s` is the wall time of the rung's set-up (the algebra build and the
class), `run_s` that of its call, and `peak_rss_mb` the peak resident size
of the process so far.  The answer of the call is compared with the rung's
constant, so a fast wrong answer is not correct and cannot read as a gain.
Exit code 1 when an answer differs from its constant, 2 for an unknown rung
or for a rung that calls a name the package lacks (refused with a message,
not skipped).  `tools/pairs.py --ladder RUNG` times one rung on two revs.

Rungs:

- `a6-query`: braid A6 (x_i - x_j in C^7) at the class alpha drawn by
  `seeded_class` with `random.Random(0)`: sum alpha = 0, so the quotient
  route, and dims (0, 0, 0, 0, 0, 120, 120);
- `a5-query`: braid A5 at the class drawn the same way, dims
  (0, 0, 0, 0, 24, 24);
- `e7-query`: the elliptic model of 7 points built through degree 4, at the
  class (x, y) drawn the same way, x first; sum x = sum y = 0, so the
  quotient route.  The algebra is truncated at 4, so the answer is the
  ranks of d_0 .. d_3, which give h^0 .. h^3 = 0, and not h^4, which would
  read the zero map out of the truncation.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from itertools import combinations


def seeded_class(rng, n):
    """n integers: n - 1 drawn from -6..6, then minus their sum."""
    v = [rng.randint(-6, 6) for _ in range(n - 1)]
    return v + [-sum(v)]


def _braid_query(points):
    """Set-up of a braid query: the OS algebra of x_i - x_j in C^points and
    its seeded class; the call returns (route, dims)."""
    from jumploci import Arrangement, AomotoComplex, os_algebra
    edges = list(combinations(range(points), 2))
    arr = Arrangement(points, [[1 if k == i else -1 if k == j else 0
                                for k in range(points)] for i, j in edges],
                      central=True)
    algebra = os_algebra(arr)
    alpha = seeded_class(random.Random(0), len(edges))

    def call():
        cx = AomotoComplex(algebra, alpha)
        return cx.route, cx.cohomology_dims()
    return call


def _elliptic_query(n, top):
    """Set-up of an elliptic query: the model and its seeded class (x, y);
    the call returns (route, ranks of d_0 .. d_{top-1})."""
    from jumploci import AomotoComplex, elliptic_model
    model = elliptic_model(n, top)
    rng = random.Random(0)
    x, y = seeded_class(rng, n), seeded_class(rng, n)

    def call():
        cx = AomotoComplex(model.algebra, model.class_coords(x, y))
        return cx.route, cx.ranks()[:top]
    return call


# name: (set-up returning the call, the answer the call must give)
RUNGS = {
    "a6-query": (lambda: _braid_query(7),
                 ("quotient", (0, 0, 0, 0, 0, 120, 120))),
    "a5-query": (lambda: _braid_query(6),
                 ("quotient", (0, 0, 0, 0, 24, 24))),
    "e7-query": (lambda: _elliptic_query(7, 4),
                 ("quotient", (1, 13, 57, 125))),
}


class Refused(Exception):
    """A rung that cannot run on this package: unknown, or calling a name
    the package lacks."""


def run(name):
    """One run of rung `name`: its timings, peak RSS, answer and whether
    the answer is the rung's constant."""
    if name not in RUNGS:
        raise Refused(f"unknown rung {name!r}; rungs: {', '.join(RUNGS)}")
    setup, want = RUNGS[name]
    try:
        start = time.perf_counter()
        call = setup()
        setup_s = time.perf_counter() - start
        start = time.perf_counter()
        got = call()
        run_s = time.perf_counter() - start
    except (ImportError, AttributeError) as exc:
        raise Refused(f"rung {name} calls a name this package lacks: "
                      f"{exc}") from exc
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"rung": name, "setup_s": setup_s, "run_s": run_s,
            "peak_rss_mb": peak, "correct": got == want, "answer": got}


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    if not names:
        print(f"usage: ladder.py RUNG [RUNG ...]; rungs: {', '.join(RUNGS)}",
              file=sys.stderr)
        return 2
    ok = True
    for name in names:
        try:
            result = run(name)
        except Refused as exc:
            print(exc, file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
