"""Alternating base/head pairs of the benchmark, judged by the 10-pair rule.

    python3 tools/pairs.py --label NAME [--base REV] [--head REV]
                           [--workload W ...] [--seed S ...] [--pairs N]

Each rev (default: HEAD^ against HEAD) is exported with `git archive` into
a temporary directory, so only committed files are measured and the
repository is left as it was.  Both revs must hold the same `bench/` and
`BENCHMARK.json`, and that file, read from the exported trees, sets the
metrics, their bounds and the run length T (its `run_seconds`).  For every
workload and seed, N pairs run

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, the base first in even pairs and the head first in odd
ones.  Every `__pycache__` in a tree is removed before each run in it, so
both sides start from source alike (PYTHONDONTWRITEBYTECODE, if set,
applies to both the same way).

Each end-to-end metric of BENCHMARK.json gets a verdict per workload and
seed, where "better" is the metric's direction and the bound is its
fraction of the base median:

- gain: at least nine in ten pairs are won by the head (ties count for
  neither), the medians differ, in the head's favour, by more than the
  base's interquartile range, and the head fails no larger share of its
  operations than the base; this needs at least ten pairs;
- worse: the head's median is worse than the base's by more than the bound;
- unresolved: neither, and the base's interquartile range is wider than
  the bound;
- same: otherwise.

BENCH_<NAME>.json, at the root of the checkout that holds this script,
records both revs, the Python version, the CPU count, every run's metrics
and `speed`, and the verdicts.  Exit code 1 when any run was not correct.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev, dest):
    """The files of `rev` under dest; returns the full commit id."""
    data = git("archive", "--format=tar", rev)
    kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **kwargs)
    return git("rev-parse", f"{rev}^{{commit}}").decode().strip()


def clear_bytecode(tree):
    for path, dirs, _files in os.walk(tree):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(path, "__pycache__"))
            dirs.remove("__pycache__")


def run_bench(tree, workload, seed, seconds):
    """One run of the tree's bench/run.py: its summary line, plus `speed`
    from the detail lines."""
    clear_bytecode(tree)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"bench/run.py in {tree} exited {proc.returncode}:"
                         f"\n{proc.stderr}")
    summary = json.loads(lines[-1])
    speed = next((float(m.group(1)) for m in
                  map(re.compile(r"speed\s+(\S+)\s").match, lines) if m),
                 None)
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "speed": speed,
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}


def verdict(base, head, bound, better, failed=(0.0, 0.0)):
    """The 10-pair rule on paired values of one metric; `failed` is the
    share of operations that failed on the base and on the head."""
    sign = 1 if better == "lower" else -1
    n = len(base)
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    mb, mh = statistics.median(base), statistics.median(head)
    qb, qh = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
    iqr = qb[2] - qb[0]
    if n >= 10 and wins >= 0.9 * n and sign * (mb - mh) > iqr \
            and failed[1] <= failed[0]:
        v = "gain"
    elif sign * (mh - mb) > bound * abs(mb):
        v = "worse"
    elif iqr > bound * abs(mb):
        v = "unresolved"
    else:
        v = "same"
    return {"verdict": v, "wins": wins, "pairs": n,
            "change": (mh - mb) / mb if mb else None,
            "failed": {"base": failed[0], "head": failed[1]},
            "base": {"median": mb, "q1": qb[0], "q3": qb[2]},
            "head": {"median": mh, "q1": qh[0], "q3": qh[2]}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--base", default="HEAD^")
    ap.add_argument("--head", default="HEAD")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    if subprocess.run(["git", "diff", "--quiet", args.base, args.head, "--",
                       "bench", "BENCHMARK.json"], cwd=ROOT).returncode:
        ap.error(f"{args.base} and {args.head} differ under bench/ or in "
                 "BENCHMARK.json: the pairs need one benchmark")
    seeds = args.seed or [0]

    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("base", "head")}
        revs = {side: export(getattr(args, side), trees[side])
                for side in trees}
        with open(os.path.join(trees["base"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"]
        runs, verdicts = [], []
        for workload in workloads:
            for seed in seeds:
                got = {"base": [], "head": []}
                for pair in range(args.pairs):
                    order = ("base", "head") if pair % 2 == 0 \
                        else ("head", "base")
                    for side in order:
                        r = run_bench(trees[side], workload, seed, seconds)
                        r.update(workload=workload, seed=seed, pair=pair,
                                 side=side, first=order[0])
                        runs.append(r)
                        got[side].append(r)
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"{r['metrics']}", file=sys.stderr)
                failed = tuple(
                    sum(r["failed"] for r in got[side])
                    / max(1, sum(r["attempted"] for r in got[side]))
                    for side in ("base", "head"))
                for m in bench["end_to_end"]:
                    verdicts.append({
                        "workload": workload, "seed": seed,
                        "metric": m["name"], "unit": m["unit"],
                        "bound": m["bound"], **verdict(
                            [r["metrics"][m["name"]] for r in got["base"]],
                            [r["metrics"][m["name"]] for r in got["head"]],
                            m["bound"], m["better"], failed)})

    out = {
        "label": args.label,
        "base": {"rev": args.base, "commit": revs["base"]},
        "head": {"rev": args.head, "commit": revs["head"]},
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seconds": seconds, "pairs": args.pairs,
        "bytecode": "cleared before every run; PYTHONDONTWRITEBYTECODE="
                    f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')}",
        "verdicts": verdicts,
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for v in verdicts:
        print(f"{v['workload']:13s} seed {v['seed']} {v['metric']:12s} "
              f"{v['base']['median']:.4g} -> {v['head']['median']:.4g} "
              f"({v['wins']}/{v['pairs']} won) {v['verdict']}")
    print(path)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
