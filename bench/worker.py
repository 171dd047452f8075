"""One measuring process of the benchmark; run.py starts it.

    python3 bench/worker.py --workload W --plan DIR/plan.json --seconds T
                            [--trace] [--setup-only]

The set-up runs from before `import jumploci.cli` to the end of the
workload's builds.  With --setup-only the process stops there.  Otherwise
it repeats whole rounds of the workload's operations until T seconds have
passed, checks every output, and prints one JSON object with the timings.
With --trace the layer boundaries are wrapped (see spans.py) before the
set-up, and the layer totals are printed instead of latencies.

Every timed call is calibrated.  A probe, a fixed piece of work that does
not touch the program, runs after every call and, from a SIGALRM timer,
every SAMPLE_S seconds during long calls.  The call's calibrated time is its
wall time (less the probes inside it) scaled by the probe's reference time
over the mean of its probes: the time it would have taken at the speed
where the probe takes its reference time.  On a shared machine the speed of
the same code drifts by half within minutes; the probe slows down with it,
and the calibrated times stay put.  Wall times are reported alongside.

Two probes are used, each like the work it calibrates: Fraction arithmetic
for the program's calls, and unmarshalling and running a module's code for
`import jumploci.cli`, which slows down less than big-integer arithmetic
when the machine is busy.  In the traced run the timer is off, so that no
probe lands inside a span; there each call is calibrated by the probe taken
right after it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import marshal
import os
import resource
import signal
import sys
import traceback
from fractions import Fraction
from time import perf_counter

# the probes' times on an unloaded CPU of the 2-core machine the bounds in
# BENCHMARK.json were set on; any fixed values work, they only set the scale
REFERENCE_PROBE_S = 1.2e-3
REFERENCE_IMPORT_PROBE_S = 1.8e-3
SAMPLE_S = 0.1


def _best_of_two(work):
    """Best of two timings of work(), with the garbage collector off so the
    heap's size cannot matter and SIGALRM held so a sample cannot land
    inside another."""
    enabled = gc.isenabled()
    gc.disable()
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        best = float("inf")
        for _ in range(2):
            t = perf_counter()
            work()
            best = min(best, perf_counter() - t)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        if enabled:
            gc.enable()
    return best


def _harmonic_sum():
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(1, i)


def probe():
    """A harmonic sum in Fractions: big-integer arithmetic and allocation,
    like the program's exact linear algebra."""
    return _best_of_two(_harmonic_sum)


_IMPORT_PROBE_CODE = None


def import_probe():
    """Unmarshal and run the code of the standard library's `inspect`
    module in a scratch namespace: what an import does once the file is
    read."""
    global _IMPORT_PROBE_CODE
    if _IMPORT_PROBE_CODE is None:
        path = importlib.util.find_spec("inspect").origin
        with open(path) as fh:
            _IMPORT_PROBE_CODE = marshal.dumps(compile(fh.read(), path,
                                                       "exec"))
    return _best_of_two(lambda: exec(marshal.loads(_IMPORT_PROBE_CODE),
                                     {"__name__": "import_probe"}))


class Clock:
    """Times calls, calibrated against the probes taken during (when
    `sample`) and right after each one."""

    def __init__(self, probe=probe, reference_s=REFERENCE_PROBE_S,
                 sample=True):
        self._probe = probe
        self._reference_s = reference_s
        self.probes = [probe()]
        self._inside = []
        self._inside_s = 0.0
        if sample:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def _sample(self, _signum, _frame):
        t = perf_counter()
        self._inside.append(self._probe())
        self._inside_s += perf_counter() - t

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def time(self, call):
        """(result, wall seconds, calibrated seconds) of call(); an
        exception from the call propagates."""
        self._inside, self._inside_s = [], 0.0
        t = perf_counter()
        try:
            result = call()
        finally:
            wall = perf_counter() - t - self._inside_s
            samples = self._inside + [self._probe()]
            self.probes.extend(samples)
        scale = self._reference_s * len(samples) / sum(samples)
        return result, wall, wall * scale


def _import_program():
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "jumploci", "__init__.py")):
        raise SystemExit(f"no jumploci sources under {src}")
    sys.path.insert(0, src)
    import jumploci.cli  # noqa: F401  (the import is part of set-up)
    import jumploci
    if not os.path.abspath(jumploci.__file__).startswith(src + os.sep):
        raise SystemExit(f"jumploci imported from {jumploci.__file__}, "
                         f"not from {src}")


def interleave(ops):
    """Spread each kind of operation evenly over the round, so that every
    kind's latencies sample the whole round and not one stretch of it."""
    seen = {}
    keyed = []
    for k, op in enumerate(ops):
        i = seen.get(op.kind, 0)
        seen[op.kind] = i + 1
        keyed.append((i, k, op))
    keyed.sort(key=lambda t: ((t[0] + 0.5) / seen[t[2].kind], t[1]))
    return [op for _i, _k, op in keyed]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # one fixed CPU for every measuring process: the CPUs of a shared
    # machine can differ in speed by a third, and a process that lands on
    # either one at random gives two-peaked timings
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import_clock = Clock(import_probe, REFERENCE_IMPORT_PROBE_S)
    _, setup_wall, setup_s = import_clock.time(_import_program)
    import_clock.stop()
    clock = Clock(sample=not args.trace)
    rec = None
    if args.trace:
        import spans
        rec = spans.SpanRecorder()
        spans.install(rec)
    import workloads
    with open(args.plan) as fh:
        plan = json.load(fh)
    wl = workloads.WORKLOADS[args.workload](plan, os.path.dirname(args.plan))
    for step in wl.setup_steps():
        _, wall, cal = clock.time(step)
        setup_wall += wall
        setup_s += cal
    if args.setup_only:
        clock.stop()
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
        return 0

    after_setup = rec.snapshot() if rec else None
    ops = interleave(wl.ops())
    latencies = {}
    rounds = []
    walls = []
    attempted = failed = checked = 0
    mismatches = []
    deadline = perf_counter() + args.seconds
    while True:
        busy = wall_busy = 0.0
        for op in ops:
            attempted += 1
            try:
                result, wall, cal = clock.time(op.call)
            except Exception:
                failed += 1
                print(f"{op.kind} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
                continue
            busy += cal
            wall_busy += wall
            latencies.setdefault(op.kind, []).append(cal)
            checked += 1
            problem = op.check(result)
            if problem:
                mismatches.append(problem)
        rounds.append(busy)
        walls.append(wall_busy)
        if perf_counter() >= deadline:
            break
    clock.stop()

    for m in mismatches[:5]:
        print(f"mismatch: {m}", file=sys.stderr)
    out = {
        "setup_s": setup_s, "setup_wall_s": setup_wall, "round_s": rounds,
        "round_wall_s": walls, "probe_s": clock.probes,
        "attempted": attempted, "failed": failed, "checked": checked,
        "mismatches": len(mismatches), "primary": wl.primary,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if rec:
        rec.restore()
        out["layers"] = {"setup": after_setup, "total": rec.snapshot()}
    else:
        out["latencies"] = latencies
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
