"""Benchmark of jumploci: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload os-build|aomoto-query|elliptic|master|all
                         [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
./src.  Each workload's inputs are generated from the seed into
.bench_build/, then every measurement runs in a fresh interpreter
(bench/worker.py).  With --trace 0, set-up-only processes and one
measuring process run, and set-up time is the median of their set-ups
(seven for os-build and master, three for the others).  With
--trace 1, one measuring process runs with the layer boundaries wrapped and
the per-layer metrics are printed instead.

The report lines name every metric with its unit; the last line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 1 when an operation failed, an output was wrong or nothing was checked,
2 when the program or a worker could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from math import ceil
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from worker import REFERENCE_PROBE_S  # noqa: E402

WORKLOADS = ["os-build", "aomoto-query", "elliptic", "master"]
# set-ups per --trace 0 run, setup_s being their median: a set-up that is
# the import alone lasts about 0.4 s and spreads most, so more are taken
SETUP_REPEATS = {"os-build": 7, "aomoto-query": 3, "elliptic": 3,
                 "master": 7}
TIME_LIMIT_S = 170

# (metric, unit, source, key): source "self" is a span's self time, "calls"
# its call count, "count" a counter, "max" a running maximum
PER_LAYER = (
    [(f"scalars.rref_s.{f}", "s", "self", f"scalars.rref.{f}")
     for f in ("QQ", "QI", "GF")]
    + [(f"scalars.rref_calls.{f}", "count", "calls", f"scalars.rref.{f}")
       for f in ("QQ", "QI", "GF")]
    + [(f"scalars.rref_cells.{f}", "count", "count", f"scalars.rref_cells.{f}")
       for f in ("QQ", "QI", "GF")]
    + [(f"scalars.rref_bits.{f}", "bits", "max", f"scalars.rref_bits.{f}")
       for f in ("QQ", "QI")]
    + [
        ("scalars.matmul_s", "s", "self", "scalars.matmul"),
        ("scalars.solve_s", "s", "self", "scalars.solve"),
        ("scalars.kernel_s", "s", "self", "scalars.kernel"),
        ("exterior.build_s", "s", "self", "exterior.build"),
        ("exterior.build_calls", "count", "calls", "exterior.build"),
        ("exterior.ideal_rows", "count", "count", "exterior.ideal_rows"),
        ("exterior.class_mult_s", "s", "self", "exterior.class_mult"),
        ("exterior.hodge_s", "s", "self", "exterior.hodge"),
        ("exterior.hodge_calls", "count", "calls", "exterior.hodge"),
        ("arrangement.os_algebra_s", "s", "self", "arrangement.os_algebra"),
        ("arrangement.circuits_s", "s", "self", "arrangement.circuits"),
        ("arrangement.circuits_calls", "count", "calls",
         "arrangement.circuits"),
        ("arrangement.common_point_calls", "count", "calls",
         "arrangement.common_point"),
        ("aomoto.complex_s", "s", "self", "aomoto.complex"),
        ("aomoto.ranks_s", "s", "self", "aomoto.ranks"),
        ("aomoto.reduce_s", "s", "self", "aomoto.reduce"),
        ("aomoto.reduce_calls", "count", "calls", "aomoto.reduce"),
        ("aomoto.sample_s", "s", "self", "aomoto.sample"),
        ("aomoto.log_resonance_s", "s", "self", "aomoto.log_resonance"),
        ("elliptic.model_s", "s", "self", "elliptic.model"),
        ("elliptic.e2_page_s", "s", "self", "elliptic.e2_page"),
        ("elliptic.e2_page_calls", "count", "calls", "elliptic.e2_page"),
        ("master.bivariate_s", "s", "self", "master.bivariate"),
        ("master.univariate_s", "s", "self", "master.univariate"),
        ("master.resultant_s", "s", "self", "master.resultant"),
        ("master.resultant_calls", "count", "calls", "master.resultant"),
        ("master.factor_s", "s", "self", "master.factor"),
        ("cli.main_s", "s", "self", "cli.main"),
        ("io.parse_s", "s", "self", "io.parse"),
    ])

# the workload-specific latencies printed in the report: (metric, unit,
# operation kind, statistic)
DETAIL = {
    "os-build": [("small_p50_ms", "ms", "small", "p50"),
                 ("ladder_s", "s", "ladder", "sum")],
    "aomoto-query": [("query_p50_ms", "ms", "query", "p50"),
                     ("query_p90_ms", "ms", "query", "p90"),
                     ("sample_s", "s", "sample", "p50"),
                     ("six_query_p50_ms", "ms", "six-query", "p50")],
    "elliptic": [("h1_p50_ms", "ms", "h1", "p50"),
                 ("h1_p90_ms", "ms", "h1", "p90"),
                 ("lr_p50_ms", "ms", "lr", "p50"),
                 ("e2_p50_ms", "ms", "e2.n6", "p50"),
                 ("e2_n5_p50_ms", "ms", "e2.n5", "p50")],
    "master": [("bivariate_s", "s", "bivariate", "sum"),
               ("univariate_p50_ms", "ms", "univariate", "p50")],
}


class WorkerError(Exception):
    pass


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def run_worker(workload, plan, seconds, deadline, trace=False,
               setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--plan", plan, "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker exceeded the time limit") \
            from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"{workload} worker printed nothing")
    return json.loads(lines[-1])


def layer_metrics(layers, rounds, speed):
    """Per-layer values for one set-up plus one round: the set-up totals
    plus the run totals divided by the number of rounds.  Self times are
    scaled by the process's speed, like the calibrated times."""
    setup, total = layers["setup"], layers["total"]
    table = {"self": "self_ns", "calls": "calls", "count": "counts",
             "max": "maxima"}
    out = {}
    for name, unit, source, key in PER_LAYER:
        field = table[source]
        s = setup[field].get(key, 0)
        t = total[field].get(key, 0)
        if source == "max":
            value = t
        else:
            value = s + (t - s) / rounds
            if source == "self":
                value *= speed / 1e9
        out[name] = (value, unit)
    return out


def run_workload(workload, seed, seconds, trace):
    deadline = monotonic() + TIME_LIMIT_S
    os.makedirs(".bench_build", exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=".bench_build")
    try:
        plan = inputs.write_plan(workload, seed, work)
        setups = []
        if not trace:
            for _ in range(SETUP_REPEATS[workload] - 1):
                setups.append(run_worker(workload, plan, seconds, deadline,
                                         setup_only=True))
        res = run_worker(workload, plan, seconds, deadline, trace=trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res)

    speed = REFERENCE_PROBE_S / statistics.median(res["probe_s"])
    metrics = {}
    detail = {}
    if trace:
        metrics.update(layer_metrics(res["layers"], len(res["round_s"]),
                                     speed))
        metrics["bench.traced_run_s"] = (statistics.median(res["round_s"]),
                                         "s")
        metrics["bench.tracer_s"] = (
            res["layers"]["total"]["tracer_ns"] * speed / 1e9, "s")
    else:
        lat = res["latencies"]
        metrics["setup_s"] = (statistics.median(
            x["setup_s"] for x in setups), "s")
        metrics["run_s"] = (statistics.median(res["round_s"]), "s")
        metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
        metrics["op_p50_ms"] = (
            statistics.median(lat[res["primary"]]) * 1e3, "ms")
        detail = {
            "setup_wall_s": (statistics.median(
                x["setup_wall_s"] for x in setups), "s", len(setups)),
            "run_wall_s": (statistics.median(res["round_wall_s"]), "s",
                           len(res["round_wall_s"])),
            "speed": (speed, "x", len(res["probe_s"])),
        }
        for name, unit, kind, stat in DETAIL[workload]:
            xs = lat.get(kind)
            if not xs or (stat == "p90" and len(xs) < 100):
                continue
            if stat == "sum":
                v = sum(xs) / len(res["round_s"])
            else:
                v = percentile(xs, 0.9) if stat == "p90" \
                    else statistics.median(xs)
            detail[name] = (v * 1e3 if unit == "ms" else v, unit, len(xs))
    correct = (res["failed"] == 0 and res["mismatches"] == 0
               and res["checked"] >= 1)
    return {"workload": workload, "seed": seed, "correct": correct,
            "attempted": res["attempted"], "failed": res["failed"],
            "checked": res["checked"], "rounds": len(res["round_s"]),
            "metrics": metrics, "detail": detail}


def report(r):
    print(f"# {r['workload']}  seed {r['seed']}  rounds {r['rounds']}  "
          f"attempted {r['attempted']}  failed {r['failed']}  "
          f"checked {r['checked']}  correct {str(r['correct']).lower()}")
    for name, (value, unit) in r["metrics"].items():
        print(f"{name:34s} {value:14.6f} {unit}")
    for name, (value, unit, n) in r["detail"].items():
        print(f"{name:34s} {value:14.6f} {unit}  (n={n})")
    print(json.dumps({
        "correct": r["correct"], "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in r["metrics"].items()}}))
    sys.stdout.flush()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker (see run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "jumploci", "__init__.py")):
        print("bench/run.py: run it from the root of a jumploci checkout "
              "(no src/jumploci here)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"bench/run.py: {exc}", file=sys.stderr)
            return 2
        report(r)
        if not r["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
