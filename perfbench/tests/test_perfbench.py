"""Tests of the benchmark itself: op lists, checks, budgets and the metric
names it prints."""

import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.mark.parametrize("make", [
    lambda seed: wl.tower_ops(seed, 25),
    lambda seed: wl.cli_ops(seed, 25),
])
def test_op_list_follows_the_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_op_lists_hold_the_named_cases():
    tower = {op.get("name") for op in wl.tower_ops(0, 25)}
    assert {"wstar_mm_seed0_pair20", "wstar_t1_seed0_pair31",
            "wstar_t1_seed0_pair36"} <= tower
    mix = {op.get("name") for op in wl.cli_ops(0, 25)}
    assert {"analyze_qp100003", "quat_split_semiprime30",
            "gauss_pivot_tx_eval_t", "eval_qp5_x_plus_s"} <= mix


def _workload(ops, execute, check=lambda op, result: result):
    w = bench.Workload("test", ops, execute, check)
    w.budget = 0.2
    return w


def test_only_ops_that_passed_at_the_seed_commit_may_fail():
    ops = [{"id": 0, "seed_pass": True}, {"id": 1, "seed_pass": False}]
    w = _workload(ops, lambda op: (False, "wrong"))
    rows = bench.run_passes(w, bench.Budget(), 1)
    assert [r.op["id"] for r in bench.unexpected_failures(rows)] == [0]


def test_wrong_verdict_counts_as_failed(monkeypatch):
    from conicval import cli
    entry = next(e for e in wl.load_corpus() if e["stratum"] == "qp_quat-decide")
    op = {"kind": "cli", "id": 0, "args": entry["args"],
          "expect": entry["expect"], "seed_pass": True}
    real = cli.decide_unramified_extension

    def wrong(*args, **kwargs):
        verdict = real(*args, **kwargs)
        other = ("ramified_only" if verdict.kind != "ramified_only"
                 else "unramified_extension")
        return dataclasses.replace(verdict, kind=other)

    w = _workload([op], wl.run_cli, lambda op, out: wl.check_cli_output(
        op, out, wl.cli_validator()))
    w.budget = 5.0
    rows = bench.run_passes(w, bench.Budget(), 1)
    assert rows[0].passed
    monkeypatch.setattr(cli, "decide_unramified_extension", wrong)
    rows = bench.run_passes(w, bench.Budget(), 1)
    assert not rows[0].passed and rows[0].reason.startswith("kind")


def test_op_past_its_budget_is_cut_off_at_the_budget():
    ops = [{"id": 0, "seed_pass": True}, {"id": 1, "seed_pass": True}]

    def execute(op):
        if op["id"] == 0:
            time.sleep(5)
        return True, ""

    w = _workload(ops, execute)
    rows = bench.run_passes(w, bench.Budget(), 2)
    slow, fast = rows
    assert slow.cut_off and not slow.passed
    assert w.budget <= slow.latency < w.budget + 0.05
    assert fast.passed and not fast.cut_off
    metrics = bench.end_to_end(w, rows, 0.5)
    assert metrics["op_max_s"][0] == slow.latency
    assert metrics["pass_share"][0] == 0.5


def _printed(trace):
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                          "--workload", "decide_mix", "--seed", "1",
                          "--seconds", "1", "--trace", str(trace)],
                         capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_printed_metric_names_match_the_declaration():
    untraced = _printed(0)
    assert list(untraced["metrics"]) == _declared("end_to_end")
    assert untraced["correct"] and untraced["failed"] > 0
    traced = _printed(1)
    assert sorted(traced["metrics"]) == sorted(_declared("per_layer"))
