#!/usr/bin/env python3
"""Benchmark of the conicval package and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Workloads (closed loop: one process, one client, each op starts
after the previous one ends, and every op starts from descriptor strings):

  tower_fuzz  valuation-axiom pairs on Gauss extensions and w*, where
              Poly/RatFunc gcd and tower arithmetic take the time;
  decide_mix  CLI argument lists run in-process through cli.main, where
              decisions, F_q tables, point searches and factorisation do.

The op list is run in several passes, each in its own seeded order, and an
op's latency is the least of its timings: load from other processes on the
machine comes and goes over seconds, and the least timing is the one it
disturbed least.  An op's latency is the CPU time the benchmark's thread
spends on it, which leaves out the time the machine gives to other
processes and virtual machines; the ops are single-threaded and do no I/O,
so that is the time they compute.  Each op has a wall-clock budget; an op
over it is cut off, counts as failed and enters the latency figures at its
wall time, the budget plus the few milliseconds the cut-off takes to land,
which is more than the latency of any op that ends within it.  Only an
op's run is timed, not the check of its output.

setup_s is the least CPU time (user and system) of several fresh processes
that import conicval and build the fixtures, one started before each pass
and one after the last, so that it samples the machine over the same
minutes as the op timings.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the passes are followed by one traced
pass, and the object holds the per-layer metrics.  The lines before it give
the named ops (tail cases and known defects), failures by reason and the
tail percentile.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
# A run stops starting ops after this many seconds, so that it ends within
# the 180 s a run may take; ops never started count as cut off.
RUN_DEADLINE_S = 150.0
# In the traced pass an op that finished untraced gets this many budgets,
# so tracing overhead alone cannot turn a pass into a cut-off.
TRACE_BUDGET_FACTOR = 20
# The modules of src/conicval whose size is tracked one by one; src.lines
# counts every module, including ones added later.
MODULES = ("__init__", "cli", "conic", "errors", "fields", "gauss", "oracle",
           "parser", "quaternion", "valuation", "value")

perf = time.perf_counter
op_clock = time.thread_time


class BudgetExceeded(BaseException):
    """Raised into an op that ran past its budget.  A BaseException, so the
    program's ``except Exception`` handlers cannot swallow it."""


class Budget:
    """Cuts off in-process ops with SIGALRM.  The timer repeats every 50 ms
    after the budget, in case the first raise lands where Python ignores it
    (such as a finalizer)."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise BudgetExceeded()

    def call(self, fn, budget):
        """(result, cut_off) of fn() run under the budget."""
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, budget, 0.05)
            try:
                return fn(), False
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExceeded:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            return None, True


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """An op list, how to run one op (execute(op), timed and under the
    budget) and how to check its output (check(op, output) -> (passed,
    reason), untimed)."""

    def __init__(self, name, ops, execute, check):
        self.name = name
        self.ops = ops
        self.execute = execute
        self.check = check
        self.budget = wl.BUDGET_S.get(name)
        self.passes = wl.PASSES.get(name, 1)


def build_workload(name, seed, seconds):
    """Import conicval and build the op list and fixtures: the set-up that
    setup_s times."""
    import conicval  # noqa: F401  (set-up includes the import)
    if name == "tower_fuzz":
        ops = wl.tower_ops(seed, seconds)
        states = wl.stream_states(ops)
        return Workload(name, ops, lambda op: wl.run_tower_op(op, states),
                        lambda op, result: result)
    return Workload(name, wl.cli_ops(seed, seconds), wl.run_cli,
                    lambda op, out: wl.check_cli_output(op, out,
                                                        wl.cli_validator()))


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


class Row:
    __slots__ = ("op", "latency", "passed", "reason", "cut_off")

    def __init__(self, op, latency, passed, reason, cut_off):
        self.op, self.latency, self.passed = op, latency, passed
        self.reason, self.cut_off = reason, cut_off


def run_one(w, op, budget, guard, tracer=None):
    wl.fresh_library_state()
    if tracer is not None:
        tracer.begin_op(op["id"])
    error = None
    t0, wall0 = op_clock(), perf()
    try:
        output, cut = guard.call(lambda: w.execute(op), budget)
    except (Exception, SystemExit) as exc:
        output, cut = None, False
        error = f"{type(exc).__name__}: {exc}"[:200]
    latency = op_clock() - t0
    if tracer is not None:
        tracer.end_op()
    if cut:
        return Row(op, perf() - wall0, False, "budget exceeded", True)
    if error is not None:
        return Row(op, latency, False, error, False)
    try:
        passed, reason = w.check(op, output)
    except Exception as exc:
        passed, reason = False, f"check: {type(exc).__name__}: {exc}"[:200]
    return Row(op, latency, bool(passed), reason, False)


def run_passes(w, guard, passes, started=None, between=None):
    """Run the op list ``passes`` times, the first in list order and each
    later one in a seeded shuffle, calling ``between()`` before each pass
    and after the last.  An op cut off once is not run again.  Returns one
    row per op: its fastest attempt, failed if any attempt that was not cut
    off failed."""
    best = {}
    failed = {}
    for p in range(passes):
        if between is not None:
            between()
        order = list(w.ops)
        if p:
            random.Random(p).shuffle(order)
        for op in order:
            key = op["id"]
            if key in best and best[key].cut_off:
                continue
            if started is not None and perf() - started > RUN_DEADLINE_S:
                break
            row = run_one(w, op, w.budget, guard)
            if not row.passed and not row.cut_off:
                failed.setdefault(key, row)
            if key not in best or row.latency < best[key].latency:
                best[key] = row
    rows = []
    for op in w.ops:
        row = best.get(op["id"]) or Row(op, w.budget, False,
                                        "not started before the run deadline",
                                        True)
        bad = failed.get(op["id"])
        if bad is not None and row.passed:
            row = Row(op, row.latency, False, bad.reason, False)
        rows.append(row)
    if between is not None:
        between()
    return rows


def tail_percentile(latencies):
    """(percentile, value, ops beyond): the highest whole percentile with at
    least ten ops beyond it, by nearest rank; the median below 20 ops."""
    n = len(latencies)
    lat = sorted(latencies)
    pct = math.floor(100 * (n - 10) / n) if n >= 20 else 50
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, lat[rank - 1], n - rank


def setup_sampler(workload, seed, seconds, times):
    """A function that runs one fresh process which imports conicval and
    builds the workload's fixtures, and appends its CPU time to ``times``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]

    def cpu():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def sample():
        t0 = cpu()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(cpu() - t0)
    return sample


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_rows(rows, sizes=None):
    """Per-op rows of the named ops (the tail cases and the known defects),
    then failures by reason."""
    for r in rows:
        name = r.op.get("name")
        if name:
            size = (sizes or {}).get(r.op["id"])
            print(f"named op {name}: {r.latency:.4f} s, "
                  f"{'passed' if r.passed else 'failed'}"
                  f"{', hit budget' if r.cut_off else ''}"
                  f"{'' if r.passed or r.cut_off else ' (' + r.reason + ')'}"
                  + (f", max degree {size[0]}, max coefficient bits {size[1]}"
                     if size else ""))
    reasons = {}
    for r in rows:
        if not r.passed:
            key = r.reason.split(":")[0].split("(")[0].strip()
            reasons[key] = reasons.get(key, 0) + 1
    for key, n in sorted(reasons.items(), key=lambda kv: -kv[1]):
        print(f"failed {n}: {key}")


def module_lines():
    pkg = os.path.join(SRC, "conicval")
    counts = {}
    for fname in os.listdir(pkg):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                counts[fname[:-3]] = sum(1 for _ in fh)
    out = {f"{m.strip('_')}.lines": (counts.get(m, 0), "count") for m in MODULES}
    out["src.lines"] = (sum(counts.values()), "count")
    return out


def import_times():
    """Median cumulative import time of conicval.cli and of sympy, from
    ``python -X importtime``."""
    cli_s, sympy_s = [], []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import conicval.cli"], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=SRC),
                              cwd=ROOT, check=True)
        cum = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cum[parts[2].strip()] = int(parts[1]) / 1e6
        cli_s.append(cum["conicval.cli"])
        sympy_s.append(cum.get("sympy", 0.0))
    return statistics.median(cli_s), statistics.median(sympy_s)


def unexpected_failures(rows):
    """Failures that are not cut-offs, of ops that passed at the seed
    commit; any of them makes the run incorrect."""
    return [r for r in rows
            if not r.passed and not r.cut_off and r.op["seed_pass"]]


def end_to_end(w, rows, setup_s):
    lat = [r.latency for r in rows]
    passed = sum(1 for r in rows if r.passed)
    pct, tail, beyond = tail_percentile(lat)
    print(f"op_tail_s is p{pct} of {len(rows)} ops ({beyond} beyond it)")
    print(f"fail_share {1 - passed / len(rows):.4f} "
          f"({len(rows) - passed} of {len(rows)} ops failed)")
    return {
        "setup_s": (setup_s, "s"),
        # ops passed per second of op time, each op at its fastest attempt
        "ops_per_s": (passed / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
        "op_max_s": (max(lat), "s"),
        "pass_share": (passed / len(rows), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced(w, guard, started):
    """Untraced passes, then one traced pass; returns its rows and the
    per-layer metrics."""
    from tracer import Tracer
    plain = run_passes(w, guard, w.passes, started)
    tracer = Tracer()
    tracer.install()
    rows = []
    try:
        for r in plain:
            budget = w.budget * (1 if r.cut_off else TRACE_BUDGET_FACTOR)
            rows.append(run_one(w, r.op, budget, guard, tracer))
    finally:
        tracer.uninstall()
    mismatches = sum(1 for a, b in zip(plain, rows) if a.passed != b.passed)
    print(f"traced pass: {mismatches} ops whose pass/fail differs from the "
          f"untraced passes")
    report_rows(rows, tracer.sizes)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{w.name}.jsonl"))
    metrics = tracer.metrics()
    cli_s, sympy_s = import_times()
    metrics["cli.import_s"] = (cli_s, "s")
    metrics["cli.sympy_import_s"] = (sympy_s, "s")
    metrics["bench.trace_overhead"] = (sum(r.latency for r in rows)
                                       / sum(r.latency for r in plain), "ratio")
    metrics["bench.trace_mismatches"] = (mismatches, "count")
    metrics.update(module_lines())
    return rows, metrics, mismatches == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    started = perf()
    if not os.path.isfile(os.path.join(SRC, "conicval", "__init__.py")):
        print(f"error: no conicval package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        build_workload(args.workload, args.seed, args.seconds)
        return 0
    w = build_workload(args.workload, args.seed, args.seconds)
    # the set-up's objects live for the whole run; keep them out of the
    # collections made between ops
    gc.freeze()
    guard = Budget()
    if args.trace:
        rows, metrics, same = traced(w, guard, started)
    else:
        setup_times = []
        rows = run_passes(w, guard, w.passes, started, setup_sampler(
            args.workload, args.seed, args.seconds, setup_times))
        report_rows(rows)
        print("setup_s samples: "
              + " ".join(f"{t:.3f}" for t in setup_times))
        metrics = end_to_end(w, rows, min(setup_times))
        same = True
    unexpected = unexpected_failures(rows)
    for r in unexpected:
        print(f"unexpected failure: op {r.op['id']} "
              f"{r.op.get('args') or r.op.get('source')}: {r.reason}")
    print(json.dumps({
        "correct": same and not unexpected, "attempted": len(rows),
        "failed": sum(1 for r in rows if not r.passed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
