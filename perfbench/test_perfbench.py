"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The smoke tests run every workload end to end at ``--tiny`` size through
the same command line as a full run, in subprocesses.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import job  # noqa: E402
import run  # noqa: E402
from repro.telemetry.tracing import load_trace, summarize_trace  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*argv, cwd=ROOT):
    """Run the command; (exit code, result, run record, stderr)."""
    done = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = [line for line in done.stdout.strip().splitlines() if line.startswith("{")]
    result = json.loads(lines[-1]) if lines else None
    record = json.loads(lines[-2]) if len(lines) > 1 else None
    return done.returncode, result, record, done.stderr


def test_metric_names_and_units_match_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {"end_to_end": run.END_TO_END, "per_layer": run.PER_LAYER}
    for section, table in declared.items():
        assert {m["name"]: m["unit"] for m in spec[section]} == table
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert "setup_s" in run.END_TO_END


def test_serve_schedule_is_a_function_of_the_seed():
    first, again = job.serve_schedule(7, 40), job.serve_schedule(7, 40)
    assert [p[:2] for p in first] == [p[:2] for p in again] == [p[:2] for p in job.PHASES]
    for (_, _, arrivals), (_, _, repeat) in zip(first, again):
        assert np.array_equal(arrivals, repeat)
    assert not np.array_equal(first[0][2], job.serve_schedule(8, 40)[0][2])
    # At the benchmark's 40 s, enough requests for p99 to have ten beyond it.
    for rate in ("low", "mid"):
        assert sum(len(arrivals) for name, _, arrivals in first if name == rate) >= 1000


def test_check_rejects_a_run_that_never_switched():
    result = {"params_final": 10, "params_full": 10, "switch_epoch": None,
              "switch_bounds": [2, 5], "failed_steps": 0, "train_losses": [2.0, 1.0],
              "val_losses": [1.5], "val_acc": 0.9, "num_classes": 4}
    problems = run.check("train-resnet", result)
    assert any("switch" in p for p in problems)
    assert any("params_final" in p for p in problems)


def _assert_result(result, record, names):
    assert record["problems"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_smoke(workload):
    code, result, record, stderr = bench("--workload", workload, "--seed", "3",
                                         "--seconds", "2", "--trace", "0", "--tiny")
    assert code == 0, stderr
    _assert_result(result, record, run.END_TO_END)
    assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", ["train-deit", "serve-lowrank"])
def test_tiny_traced_run_writes_a_readable_trace(workload):
    code, result, record, stderr = bench("--workload", workload, "--seed", "4",
                                         "--seconds", "2", "--trace", "1", "--tiny")
    assert code == 0, stderr
    _assert_result(result, record, run.PER_LAYER)
    events, _ = load_trace(os.path.join(HERE, ".out", f"trace-{workload}-4.json"))
    summary = summarize_trace(events)
    layer = "compile.forward" if workload == "train-deit" else "serve.phase"
    assert summary["phases"][layer]["count"] >= 1


@pytest.mark.parametrize("workload,fault,problem", [
    ("serve-lowrank", "corrupt-serve", "timed responses differ from the direct Predictor call"),
    ("train-deit", "no-switch", "Cuttlefish switch epoch None outside"),
], ids=["serve-lowrank-corrupt-serve", "train-deit-no-switch"])
def test_a_failed_check_fails_the_command(workload, fault, problem):
    code, result, record, stderr = bench("--workload", workload, "--seed", "5",
                                         "--seconds", "2", "--trace", "0", "--tiny",
                                         "--inject", fault)
    assert code == 0, stderr
    assert result["correct"] is False
    assert any(problem in p for p in record["problems"]), record["problems"]


def test_a_fault_the_workload_cannot_plant_is_refused():
    code, result, _, stderr = bench("--workload", "train-resnet", "--seed", "5",
                                    "--seconds", "2", "--trace", "0", "--tiny",
                                    "--inject", "no-switch")
    assert code == 2 and result is None
    assert "not implemented for train-resnet" in stderr


@pytest.fixture(scope="module")
def tiny_serve():
    # Through the command: a two-worker thread pool in this process would
    # leave the process-global grad mode off for the tests that follow.
    code, result, record, stderr = bench("--workload", "serve-lowrank", "--seed", "6",
                                         "--seconds", "2", "--trace", "0", "--tiny")
    assert code == 0, stderr
    return result, record


def test_a_two_worker_process_pool_keeps_the_batch_invariance_contract(tiny_serve):
    result, record = tiny_serve
    assert result["correct"] is True
    gating = [r for r in record["pool_checks"].values() if r["gating"]]
    assert [(r["mode"], r["workers"], r["wrong"]) for r in gating] == [("process", 2, 0)]


@pytest.mark.xfail(strict=True, reason="program defect: a two-worker thread pool returns "
                   "outputs that differ from the direct Predictor call, and factorizing "
                   "layer4 makes the artifact batch-variant")
def test_the_probed_pools_keep_the_batch_invariance_contract(tiny_serve):
    assert tiny_serve[1]["known_defects"] == []


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, result, _, _ = bench("--workload", "train-deit", "--seed", "1", "--seconds", "2",
                               "--trace", "0", cwd=str(tmp_path))
    assert code != 0
    assert result is None
