"""Steadiness check: two sets of runs of the same code, compared.

    python3 bench/steady.py [--workloads a,b]

For every workload it runs `bench/run.py --trace 0` ten times per set in
two sets, each run with its own seed, alternating between the sets.  For
every end-to-end metric of BENCHMARK.json it prints each set's median and
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
The sets agree when every spread, setup_s's too, is within the metric's
bound, the second set's median is not worse than the first's by more than
the bound, every run was correct, and the share of failed operations is
the same in both sets.  A spread under a third of its bound is marked
steady.  Exit code 0 when every workload agrees.  Bounds in BENCHMARK.json
were set from this output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS, SETS = 10, 2
FIRST_SEED = 1000  # run k of set s uses seed FIRST_SEED + s * RUNS + k


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    delta = (later - first) / first
    return delta if better == "lower" else -delta


def check_workload(config, workload, seconds):
    results = [[] for _ in range(SETS)]
    for i in range(RUNS):
        for s in range(SETS):
            seed = FIRST_SEED + s * RUNS + i
            results[s].append(one_run(workload, seed, seconds))
    ok = True
    print(f"## {workload}: {SETS} sets x {RUNS} runs, {seconds} s each")
    for m in config["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = [[r["metrics"][name]["value"] for r in rs] for rs in results]
        summaries = [summarize(v) for v in values]
        for k, sm in enumerate(summaries):
            spread_ok = sm["spread"] <= bound
            shift = worse_by(summaries[0]["median"], sm["median"],
                             m["better"])
            shift_ok = shift <= bound
            ok &= spread_ok and shift_ok
            steady = "steady" if sm["spread"] < bound / 3 else "wide"
            print(f"{name:14s} set {k}  median {sm['median']:12.5f}  "
                  f"q1 {sm['q1']:12.5f}  q3 {sm['q3']:12.5f}  "
                  f"spread {sm['spread']:7.4f}  shift {shift:+7.4f}  "
                  f"bound {bound}  {steady}"
                  f"{'' if spread_ok and shift_ok else '  FAIL'}")
            print(f"{'':14s}        runs  "
                  + " ".join(f"{v:.5g}" for v in values[k]))
    shares = {str(Fraction(r["failed"], r["attempted"]))
              for rs in results for r in rs}
    correct = all(r["correct"] for rs in results for r in rs)
    ok &= len(shares) == 1 and correct
    print(f"failed share {sorted(shares)}  all correct {correct}  "
          f"{'AGREE' if ok else 'DISAGREE'}")
    sys.stdout.flush()
    return ok


def main(argv=None):
    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    ok = True
    for w in args.workloads.split(","):
        ok &= check_workload(config, w, config["run_seconds"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
