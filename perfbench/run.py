"""The repository benchmark: Cuttlefish training and low-rank serving.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every job runs in a fresh interpreter
(``perfbench/job.py``), cold, the way ``repro train`` starts: nothing the
program memoises in-process, such as the Algorithm-2 reference-profile
cache, survives from one job to the next.  BLAS threading is left at the
host default; the thread count the library reports is recorded.

``--trace 0`` prints the end-to-end metrics of an untraced job, with
``setup_s`` the median of three cold starts.  ``--trace 1`` runs the job
untraced and then traced, and prints the per-layer metrics of the traced
run; the trace itself is written to ``perfbench/.out/``, readable with
``repro trace summary``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (host, seed, what Cuttlefish selected, the problems the
correctness checks found).  The exit code is 0 when a result was printed,
``"correct": false`` included, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
#: Budget for a whole invocation; the contract allows 180 s.
DEADLINE_S = 170.0
#: Cold starts that make up ``setup_s`` (the main job plus probes).
SETUP_SAMPLES = 3

#: Which learning check each training workload gets, and the faults
#: ``--inject`` can plant in it.  deit_micro does not beat chance on
#: validation at this budget (see README.md), so its check is that the
#: training loss kept falling after the first epoch, which mostly calibrates
#: the output layer towards a uniform guess.
WORKLOADS = {
    "train-resnet": {"kind": "train", "learning": "val_acc", "faults": ()},
    "train-deit": {"kind": "train", "learning": "train_loss", "faults": ("no-switch",)},
    "serve-lowrank": {"kind": "serve", "faults": ("corrupt-serve",)},
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "full_rank_samples_per_s": "samples/s",
    "low_rank_samples_per_s": "samples/s",
    "p50_ms": "ms",
}

LAYERS = ("data", "nn", "tensor", "optim", "compile", "core", "train", "serve")

PER_LAYER = {
    "data.wait_ms.p50": "ms",
    "data.wait_ms.p90": "ms",
    "nn.forward_ms.full.p50": "ms",
    "nn.forward_ms.full.p90": "ms",
    "nn.forward_ms.low.p50": "ms",
    "nn.forward_ms.low.p90": "ms",
    "tensor.backward_ms.full.p50": "ms",
    "tensor.backward_ms.full.p90": "ms",
    "tensor.backward_ms.low.p50": "ms",
    "tensor.backward_ms.low.p90": "ms",
    "tensor.flops_per_step": "flop",
    "tensor.ops_per_step": "count",
    "tensor.gflops_per_s": "GFLOP/s",
    "optim.step_ms.p50": "ms",
    "compile.captures": "count",
    "compile.capture_ms": "ms",
    "compile.replay_share": "fraction",
    "core.profiler.ms": "ms",
    "core.rank_tracker.ms": "ms",
    "core.factorize.ms": "ms",
    "train.eval_ms": "ms",
    "train.report_ms": "ms",
    "train.unattributed_ms": "ms",
    "train.val_acc": "fraction",
    "train.params_final": "count",
    "tail_ms": "ms",
    "serve.p50_ms.low": "ms",
    "serve.p99_ms.low": "ms",
    "serve.p50_ms.mid": "ms",
    "serve.p99_ms.mid": "ms",
    "serve.max_rate_rps": "req/s",
    "serve.loadgen.late_ms.p99": "ms",
    "serve.batcher.queue_wait_ms.low.p50": "ms",
    "serve.batcher.queue_wait_ms.low.p99": "ms",
    "serve.batcher.queue_wait_ms.mid.p50": "ms",
    "serve.batcher.queue_wait_ms.mid.p99": "ms",
    "serve.batcher.batch_size.low.mean": "count",
    "serve.batcher.batch_size.mid.mean": "count",
    "serve.pool.compute_ms.low.p50": "ms",
    "serve.pool.compute_ms.low.p99": "ms",
    "serve.pool.compute_ms.mid.p50": "ms",
    "serve.pool.compute_ms.mid.p99": "ms",
    "serve.artifact.row_yield": "fraction",
    "serve.admission.rejected": "count",
    "serve.admission.shed": "count",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.unattributed_share": "fraction",
    "telemetry.overhead_s": "s",
    "fail_share": "fraction",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


# --------------------------------------------------------------------------- #
# Jobs
# --------------------------------------------------------------------------- #
def spawn(args, role: str, deadline: float, trace_path=None) -> dict:
    """Run one job in a fresh interpreter and return its JSON result."""
    command = [sys.executable, os.path.join(HERE, "job.py"),
               "--workload", args.workload, "--seed", str(args.seed), "--role", role,
               "--seconds", str(args.seconds)]
    if trace_path:
        command += ["--trace-path", trace_path]
    if args.tiny:
        command.append("--tiny")
    if args.inject:
        command += ["--inject", args.inject]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchmarkError(f"no time left for the {role} job")
    spawned = time.perf_counter()
    try:
        done = subprocess.run(command + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{role} job exceeded {timeout:.0f}s") from None
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise BenchmarkError(f"{role} job exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{role} job printed no result")
    return json.loads(lines[-1])


# --------------------------------------------------------------------------- #
# Correctness
# --------------------------------------------------------------------------- #
def check(workload: str, result: dict) -> list:
    """What each failed correctness check found in ``result`` (empty: all pass)."""
    problems = []
    if result["params_final"] >= result["params_full"]:
        problems.append(f"params_final {result['params_final']} is not below the "
                        f"full-rank {result['params_full']}")
    if WORKLOADS[workload]["kind"] == "serve":
        if result["wrong"]:
            problems.append(f"{result['wrong']} timed responses differ from the direct "
                            f"Predictor call")
        if result["batch_invariant"] is not True:
            problems.append("the timed low-rank artifact is not batch-invariant")
        problems += pool_findings(result, gating=True)
        return problems
    switch, (low, high) = result["switch_epoch"], result["switch_bounds"]
    if switch is None or not low <= switch <= high:
        problems.append(f"Cuttlefish switch epoch {switch} outside [{low}, {high}]")
    losses = result["train_losses"] + result["val_losses"]
    if result["failed_steps"] or not all(math.isfinite(v) for v in losses):
        problems.append("a training or validation loss is not finite")
    if WORKLOADS[workload]["learning"] == "val_acc":
        if not result["val_acc"] > 1.0 / result["num_classes"]:
            problems.append(f"val_acc {result['val_acc']:.4f} is not above chance "
                            f"{1.0 / result['num_classes']:.4f}")
    elif not result["train_losses"][-1] < result["train_losses"][1]:
        problems.append("the training loss did not fall after the first epoch "
                        f"({result['train_losses']})")
    return problems


def pool_findings(result: dict, gating: bool) -> list:
    """What the serve job's untimed two-worker pool runs found: the gating
    run's failures are problems, the probes' are known program defects."""
    findings = []
    for run in result.get("pool_checks", {}).values():
        if run["gating"] != gating:
            continue
        where = (f"{run['workers']}-worker {run['mode']} pool, artifact with "
                 f"{'/'.join(p.rstrip('.') for p in run['factorized'])} factorized")
        if run["wrong"]:
            findings.append(f"{where}: {run['wrong']} of {run['attempted']} responses "
                            f"differ from the direct Predictor call")
        if run["batch_invariant"] is not True:
            findings.append(f"{where}: the artifact is not batch-invariant "
                            f"(check_batch_invariance)")
    return findings


def counts(workload: str, result: dict):
    """(attempted, failed): train steps, or serve requests including refusals."""
    if WORKLOADS[workload]["kind"] == "serve":
        return result["attempted"], result["failed"]
    return result["steps"], result["failed_steps"]


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def serve_layers(phases: dict) -> dict:
    """The serve job's per-layer metrics from its per-rate records."""
    metrics = {
        "serve.loadgen.late_ms.p99": max(p["late_p99_ms"] for p in phases.values()),
        "serve.admission.rejected": sum(p["rejected"] for p in phases.values()),
        "serve.admission.shed": sum(p["shed"] for p in phases.values()),
    }
    for rate in ("low", "mid"):
        phase = phases[rate]
        metrics[f"serve.p50_ms.{rate}"] = phase["p50_ms"]
        metrics[f"serve.p99_ms.{rate}"] = phase["p99_ms"]
        metrics[f"serve.batcher.batch_size.{rate}.mean"] = phase["mean_batch_size"]
        for q in ("p50", "p99"):
            metrics[f"serve.batcher.queue_wait_ms.{rate}.{q}"] = phase["queue_wait_ms"][q]
            metrics[f"serve.pool.compute_ms.{rate}.{q}"] = phase["compute_ms"][q]
    return metrics


def per_layer(workload: str, main: dict, traced: dict) -> dict:
    """Every per-layer metric; a layer the workload does not run reads 0."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(traced["layers"])
    if WORKLOADS[workload]["kind"] == "serve":
        metrics.update(serve_layers(traced["phases"]))
        metrics["serve.max_rate_rps"] = traced["max_rate_rps"]
    else:
        metrics["train.val_acc"] = traced["val_acc"]
        metrics["train.params_final"] = traced["params_final"]
    attempted, failed = counts(workload, traced)
    metrics["tail_ms"] = traced["tail_ms"]
    metrics["telemetry.overhead_s"] = traced["wall_s"] - main["wall_s"]
    metrics["fail_share"] = failed / attempted if attempted else 0.0
    return metrics


# --------------------------------------------------------------------------- #
# Run record
# --------------------------------------------------------------------------- #
def source_record() -> dict:
    """The commit when the checkout is a git repository, and a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def record(args, main: dict) -> dict:
    rec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **source_record(),
           "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           **main["host"]}
    keys = ("tail_ms", "tail_q", "steps", "switch_epoch", "k_hat", "selected_ranks",
            "kept_full_rank", "params_full", "params_final", "val_acc", "compile", "phases",
            "max_rate_rps", "batch_invariant", "pool_checks",
            "roofline_speedup_vs_full_rank")
    rec.update({k: main[k] for k in keys if k in main})
    if WORKLOADS[args.workload]["kind"] == "serve":
        # Program defects the probes measure on every run; left for a fix in
        # the program, so they are reported here and do not set ``correct``.
        rec["known_defects"] = pool_findings(main, gating=False)
    full, low = main["full_rank_samples_per_s"], main["low_rank_samples_per_s"]
    # Information only: a ratio worsens when either side improves.
    rec["low_full_throughput_ratio"] = low / full if full else None
    return rec


# --------------------------------------------------------------------------- #
def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the serve schedule; training jobs are fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few seconds per job, for the benchmark's own tests")
    parser.add_argument("--inject", default=None, choices=["corrupt-serve", "no-switch"],
                        help="fault injection, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.inject and args.inject not in WORKLOADS[args.workload]["faults"]:
        parser.error(f"--inject {args.inject} is not implemented for {args.workload}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the job.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source at {os.path.join(ROOT, 'src')}\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        main_job = spawn(args, "main", deadline)
        results = [main_job]
        if args.trace:
            trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
            traced = spawn(args, "traced", deadline, trace_path)
            results.append(traced)
            metrics = per_layer(args.workload, main_job, traced)
            units = PER_LAYER
        else:
            setups = [main_job["setup_s"]]
            for _ in range(1 if args.tiny else SETUP_SAMPLES - 1):
                setups.append(spawn(args, "setup", deadline)["setup_s"])
            metrics = {name: main_job[name] for name in END_TO_END}
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END
    except BenchmarkError as error:
        sys.stderr.write(f"perfbench: {error}\n")
        return 2
    problems = [p for result in results for p in check(args.workload, result)]
    for problem in problems:
        sys.stderr.write(f"perfbench: check failed: {problem}\n")
    attempted = sum(counts(args.workload, r)[0] for r in results)
    failed = sum(counts(args.workload, r)[1] for r in results)
    print(json.dumps({**record(args, main_job), "problems": problems}, default=float))
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
