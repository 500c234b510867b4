"""The pimsner benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 24 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
op list of one pass is made from the seed (see ``ops.py``).  Passes run
back to back, one op at a time, while another whole pass still fits in
``--seconds``; there are always at least two.  Every op's output is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced,
a traced and another untraced pass, prints the per-layer metrics of the
traced one, the tracing overhead and the raw times of the untraced passes,
checks that all three passes gave identical per-op outcomes, and writes
the spans to ``.perfbench-out/``.  The last line of standard output is the
JSON result: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 21

# Times are reported in reference seconds.  The host is shared, and its
# speed swings by a third within a minute, for the program and for any
# other Python code alike, so each op is also bracketed by a fixed
# pure-Python reference loop and its time is scaled by
# REFERENCE_NOMINAL_S / (reference loop time around it).  Raw seconds are
# printed beside the scaled ones.
REFERENCE_ITERATIONS = 12000
REFERENCE_NOMINAL_S = 0.004


def reference_loop():
    """Wall and CPU seconds of a fixed dict/tuple/int workload."""
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    acc = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0) + i * 7 // 3
    sorted(acc.items())
    return time.perf_counter() - wall0, time.process_time() - cpu0


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from run import reference_loop\n"
    "ref = min(reference_loop()[0] for _ in range(3))\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import pimsner.cli\n"
    "print(time.perf_counter() - t, ref)\n")


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM when an op runs past its deadline.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


def measure_setup():
    """Median time to import pimsner, each in a fresh interpreter.

    Returns (reference seconds, raw seconds).
    """
    scaled, raw = [], []
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_PROBE, here, SRC],
            capture_output=True, text=True, timeout=60, check=True)
        seconds, ref = (float(x) for x in done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(raw)


class OpResult:
    __slots__ = ("op", "wall", "cpu", "status", "fingerprint", "raw",
                 "detail", "wall_ref", "cpu_ref")

    def __init__(self, op, wall, cpu, status, fingerprint, raw, detail):
        self.op = op
        self.wall = wall
        self.cpu = cpu
        self.wall_ref = self.cpu_ref = None   # set by run_pass
        self.status = status          # ok, wrong, error or deadline
        self.fingerprint = fingerprint
        self.raw = raw
        self.detail = detail


def run_op(op, keep_raw=False):
    """Run one op under its deadline, then check its output."""
    raw = None
    status = None
    detail = ""
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline)
            raw = op.execute()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        status = "deadline"
        detail = f"over the {op.deadline:g} s deadline"
    except Exception as exc:  # a traceback from the program is a failure
        status = "error"
        detail = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    fingerprint = (status,)
    if status is None:
        try:
            ok, fingerprint = op.check(raw)
            status = "ok" if ok else "wrong"
            if not ok:
                detail = f"output check failed: {fingerprint!r}"[:300]
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            status = "wrong"
            detail = f"unreadable output: {type(exc).__name__}: {exc}"
            fingerprint = (status,)
    return OpResult(op, wall, cpu, status, fingerprint,
                    raw if keep_raw else None, detail)


def run_pass(ops, keep_raw=False):
    """Run every op once, bracketing each by the reference loop, and record
    the mean of the two bracketing times on the result."""
    results = []
    before = reference_loop()
    for op in ops:
        result = run_op(op, keep_raw)
        after = reference_loop()
        result.wall_ref = (before[0] + after[0]) / 2
        result.cpu_ref = (before[1] + after[1]) / 2
        before = after
        results.append(result)
    return results


def scaled_wall(r):
    # a missed deadline lasts the deadline, whatever the machine's speed
    if r.status == "deadline":
        return r.wall
    return r.wall * REFERENCE_NOMINAL_S / r.wall_ref


def scaled_cpu(r):
    if r.status == "deadline":
        return r.cpu
    return r.cpu * REFERENCE_NOMINAL_S / r.cpu_ref


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile: the mean of all order
    statistics, each weighted by the Beta((n+1)p, (n+1)(1-p)) mass over its
    share of [0, 1], p = q/100.  A single order statistic jumps when the op
    mix moves by one op across a gap in the cost distribution (the verify
    family has one at its median); this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_mode = (a - 1) * math.log(p) + (b - 1) * math.log1p(-p)
    steps = 16          # midpoint rule within each order statistic's share
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
                             - log_mode)
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes, setup_s, wall=scaled_wall, cpu=scaled_cpu):
    latencies = [wall(r) for p in passes for r in p]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(map(wall, p)) for p in passes), "s"),
        "cpu_s": (statistics.median(sum(map(cpu, p)) for p in passes), "s"),
        "op_p50_s": (percentile(latencies, 50), "s"),
        "op_p90_s": (percentile(latencies, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def summarize_failures(results):
    bad = [r for r in results if r.status != "ok"]
    for r in bad[:10]:
        print(f"  failed op {r.op.kind}/{r.op.label}: {r.status} {r.detail}")
    if len(bad) > 10:
        print(f"  ... and {len(bad) - 10} more")


def timed_run(ops, seconds):
    """Passes while another fits in ``seconds``; at least two, so that
    ``wall_s`` and ``cpu_s`` are medians over more than one pass."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(ops))
        now = time.perf_counter()
        if len(passes) >= 2 and now - start + (now - pass_start) > seconds:
            return passes


def traced_run(workload, seed, ops, tracing):
    """Untraced, traced, untraced: the untraced passes on both sides cancel
    the warm-up that a later pass gets for free."""
    before = run_pass(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(ops, keep_raw=True)
    finally:
        tracer.uninstall()
    after = run_pass(ops)
    fingerprints = [[r.fingerprint for r in p] for p in (before, traced, after)]
    same = fingerprints[0] == fingerprints[1] == fingerprints[2]
    untraced_s = (sum(map(scaled_wall, before))
                  + sum(map(scaled_wall, after))) / 2
    traced_s = sum(map(scaled_wall, traced))
    reports = []
    for r in traced:
        if r.op.kind == "verify" and r.raw is not None:
            reports.append(json.loads(r.raw[1]))
    metrics = tracing.layer_metrics(tracer, reports)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    # Raw figures of the untraced passes, beside the reference loop that
    # scales them: a change that moves the whole process (gc settings, heap
    # size) moves the loop as well, and shows here.
    metrics["raw.wall_s"] = ((sum(r.wall for r in before)
                              + sum(r.wall for r in after)) / 2, "s")
    metrics["raw.cpu_s"] = ((sum(r.cpu for r in before)
                             + sum(r.cpu for r in after)) / 2, "s")
    metrics["raw.reference_loop_s"] = (
        statistics.median(r.wall_ref for r in before + after), "s")
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl")
    tracer.write_spans(spans_path)
    print(f"untraced pass {untraced_s:.3f} s (mean of the passes before and "
          f"after), traced pass {traced_s:.3f} s, in reference seconds; "
          f"{len(tracer.records)} spans written to "
          f"{os.path.relpath(spans_path, ROOT)}")
    print("traced and untraced per-op outcomes "
          + ("identical" if same else "DIFFER"))
    abgroup_idle = tracing.abgroup_calls(tracer) == 0
    fock_idle = tracing.fock_calls(tracer) == 0
    if workload == "verify":
        print(f"control: abgroup idle on verify: "
              f"{'confirmed' if abgroup_idle else 'NOT confirmed'}")
    else:
        print(f"control: fock idle on {workload}: "
              f"{'confirmed' if fock_idle else 'NOT confirmed'}")
    return traced, same, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pimsner", "cli.py")):
        print(f"error: no pimsner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ops as ops_module   # imports pimsner
    import tracing

    if args.workload not in ops_module.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(ops_module.WORKLOADS)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(ROOT, ".perfbench-work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = ops_module.build_ops(args.workload, args.seed, workdir)
        if args.trace:
            results, same, metrics = traced_run(args.workload, args.seed, ops,
                                                tracing)
            passes = [results]
        else:
            setup_s, setup_raw = measure_setup()
            passes = timed_run(ops, args.seconds)
            metrics = end_to_end(passes, setup_s)
            raw = end_to_end(passes, setup_raw, wall=lambda r: r.wall,
                             cpu=lambda r: r.cpu)
            same = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for p in passes for r in p]
    failed = sum(r.status != "ok" for r in results)
    incorrect = sum(r.status in ("wrong", "error") for r in results)
    missed = sum(r.status == "deadline" for r in results)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} "
          f"pass(es) of {len(ops)} ops, {len(results)} ops in all")
    for name, (value, unit) in metrics.items():
        note = ""
        if not args.trace and unit == "s":
            note = f"  (raw {raw[name][0]:.6f} s)"
        if name in ("op_p50_s", "op_p90_s"):
            note += f"  (over {len(results)} ops)"
        print(f"  {name:32s} {value:14.6f} {unit}{note}")
    print(f"  {'fail_ratio':32s} {failed / len(results):14.6f} "
          f"({failed} of {len(results)} ops; {missed} missed a deadline, "
          f"{incorrect} wrong or raised)")
    summarize_failures(results)
    print(json.dumps({
        "correct": incorrect == 0 and same,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
