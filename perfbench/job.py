"""One benchmark job, run in a fresh interpreter by ``perfbench/run.py``.

    python3 perfbench/job.py --workload NAME --seed N --role ROLE --spawned T

``--spawned`` is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks
agree), which makes set-up time include interpreter start and imports, as
for a user typing ``repro train``.  Roles:

* ``main``   — the whole job, untraced; the end-to-end numbers.
* ``setup``  — a cold-start probe: stop at the first train step or the
  first request and report only the set-up time.
* ``traced`` — the whole job with spans around each layer's public entry
  points (``perfbench/spans.py``), written through
  ``repro.telemetry.tracing.write_trace`` to ``--trace-path``.

The job prints one JSON object as the last line of its standard output.
Correctness is judged by ``run.py`` from that object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

from spans import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The serve workload's open-loop phases: (rate name, requests/s, share of
# ``--seconds``).  Rates were chosen once from the capacity measured on a
# 2-core host: one worker computes a 1-4 row batch in ~12 ms and a 32-row
# batch in ~115 ms, so ``low`` is mostly one- and two-request batches
# (padding and per-batch compute dominate), ``mid`` builds a queue and real
# batches, and ``high`` is past the latency knee without refusals.  ``low``
# and ``mid`` run five and two independent schedules, interleaved, and
# report the median of their p50s and tails, so one host stall does not set
# them; their p99 pools the schedules.  At the default 40 s each pools
# >= 1000 requests, so p99 has >= 10 samples beyond it.
PHASES = (("low", 70.0, 0.078), ("mid", 140.0, 0.105), ("low", 70.0, 0.078),
          ("low", 70.0, 0.078), ("mid", 140.0, 0.105), ("low", 70.0, 0.078),
          ("low", 70.0, 0.078), ("high", 230.0, 0.04))
#: p99 limit (ms) a rate must meet to count towards ``max_rate_rps``.
P99_LIMIT_MS = 100.0
#: Requests per closed burst, for serve throughput: eight full batches, so
#: each counted round gives about seven batch cycles.
BURST = 256
#: Requests per round of the one-client closed loop, for serve ``p50_ms``.
CLOSED_REQUESTS = 96
SERVE_SAMPLES = 32


class SetupReached(Exception):
    """Raised by a ``setup`` probe at its first train step or request."""


def tail(values):
    """(q, value) of the tail: p90, or lower so that ten samples stay beyond
    it.  It is a per-layer metric, like p99: on a shared 2-core host both
    move too much from run to run to carry a bound."""
    q = max(50.0, min(90.0, 100.0 * (1.0 - 10.0 / len(values)))) if len(values) else 50.0
    return q, percentile(values, q)


# --------------------------------------------------------------------------- #
# Host record
# --------------------------------------------------------------------------- #
def blas_record():
    """The BLAS library numpy loaded and the thread count it reports using."""
    import ctypes

    import numpy as np

    np.dot(np.ones((64, 64)), np.ones((64, 64)))
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if ".so" in line and "blas" in line.split()[-1].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None:
                    continue
                threads.restype = ctypes.c_int
                name = os.path.basename(path)
                if config is not None:
                    config.restype = ctypes.c_char_p
                    name = config().decode("utf-8", "replace").strip()
                return {"blas": name, "blas_threads": int(threads())}
    return {"blas": libs[0] if libs else "unknown", "blas_threads": None}


def host_record():
    import platform

    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            **blas_record()}


# --------------------------------------------------------------------------- #
# Training workloads
# --------------------------------------------------------------------------- #
class StepClock:
    """Trainer callback timing each step from batch delivery to step end.

    Installed on every ``Trainer`` the job builds (``run_experiment`` gives no
    other way in).  Two clock reads per step; the traced role also reads the
    backend's op counters around each step.
    """

    def __init__(self, stop_at_first_step: bool, count_ops: bool):
        self.stop = stop_at_first_step
        self.count = count_ops
        self.first_step = None
        self.steps = []       # dicts: epoch, samples, seconds, loss, flops, ops
        self._open = None

    def on_train_begin(self, trainer):
        pass

    def on_batch_begin(self, trainer, batch_index, batch):
        now = time.perf_counter()
        if self.first_step is None:
            self.first_step = now
            if self.stop:
                raise SetupReached()
        counter = None
        if self.count:
            from repro.profiling.counters import count_ops

            counter = count_ops()
            counts = counter.__enter__()
        else:
            counts = None
        self._open = (now, trainer.epochs_completed, len(batch[-1]), counter, counts)

    def on_batch_end(self, trainer, batch_index, logs):
        end = time.perf_counter()
        start, epoch, samples, counter, counts = self._open
        step = {"epoch": epoch, "samples": samples, "start": start, "seconds": end - start,
                "loss": float(logs.get("loss", float("nan")))}
        if counter is not None:
            counter.__exit__(None, None, None)
            step["flops"] = sum(c.flops for c in counts.values())
            step["ops"] = sum(c.calls for c in counts.values())
        self.steps.append(step)

    def on_evaluate_end(self, trainer, logs):
        pass

    def on_epoch_end(self, trainer, epoch, logs):
        pass

    def on_train_end(self, trainer):
        pass


def install_clock(clock):
    from repro.train.trainer import Trainer

    original = Trainer.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.callbacks.append(clock)

    Trainer.__init__ = init


def training_result(trainer, manager, clock, full_params, num_classes):
    """What both training workloads report: phases, quality and selection."""
    report = manager.report
    switch = report.switch_epoch
    history = trainer.history

    def samples_per_s(low):
        """Train-step throughput of one phase, eval excluded: the median over
        steps of samples per cycle, a cycle running from one step's batch
        delivery to the next one's in the same epoch (compute, bookkeeping
        and the next data wait).  The median keeps a host stall or a plan
        capture from moving it; those show in the tail and in ``wall_s``."""
        rates = [a["samples"] / (b["start"] - a["start"])
                 for a, b in zip(clock.steps, clock.steps[1:])
                 if a["epoch"] == b["epoch"]
                 and (switch is not None and (a["epoch"] >= switch) == low
                      or switch is None and not low)]
        return statistics.median(rates) if rates else 0.0

    step_ms = [1e3 * s["seconds"] for s in clock.steps]
    tail_q, tail_ms = tail(step_ms)
    config = manager.config
    max_epochs = config.max_full_rank_epochs
    return {
        "steps": len(clock.steps),
        "failed_steps": sum(1 for s in clock.steps if not math.isfinite(s["loss"])),
        "full_rank_samples_per_s": samples_per_s(low=False),
        "low_rank_samples_per_s": samples_per_s(low=True),
        "p50_ms": percentile(step_ms, 50),
        "tail_ms": tail_ms,
        "tail_q": tail_q,
        "params_full": int(full_params),
        "params_final": int(trainer.model.num_parameters()),
        "val_acc": float(trainer.final_val_accuracy()),
        "num_classes": int(num_classes),
        "train_losses": [float(r.train_loss) for r in history],
        "val_losses": [float(r.val_loss) for r in history if r.val_loss is not None],
        "switch_epoch": switch,
        "switch_bounds": [config.min_full_rank_epochs,
                          max_epochs if max_epochs is not None else len(history)],
        "k_hat": report.k_hat,
        "selected_ranks": {k: int(v) for k, v in report.selected_ranks.items()},
        "kept_full_rank": list(report.skipped_paths),
    }


def train_resnet(args, clock):
    """``repro train --method cuttlefish --backend numpy-fast`` at CLI defaults."""
    from repro.core.cuttlefish import CuttlefishCallback
    from repro.tensor.backend import set_backend
    from repro.train.experiments import (ExperimentSpec, VisionExperimentConfig,
                                         run_experiment)

    set_backend("numpy-fast")
    config = VisionExperimentConfig(
        task="cifar10_small", model="resnet18", width_mult=0.125,
        epochs=4 if args.tiny else 10, batch_size=32, peak_lr=0.3,
        weight_decay=5e-3, seed=args.seed)
    row, context = run_experiment(ExperimentSpec(method="cuttlefish", config=config),
                                  return_context=True)
    manager = next(cb.manager for cb in context.trainer.callbacks
                   if isinstance(cb, CuttlefishCallback))
    result = training_result(context.trainer, manager, clock,
                             context.full_rank_params, context.task_spec.num_classes)
    result["roofline_speedup_vs_full_rank"] = row.speedup_vs_full_rank
    return result


def train_deit(args, clock):
    """Cuttlefish on ``deit_micro``: the transformer recipe of Table 3."""
    from repro.core import CuttlefishConfig, train_cuttlefish
    from repro.data import build_loaders, make_vision_task
    from repro.models import deit_micro
    from repro.optim import AdamW
    from repro.tensor.backend import set_backend
    from repro.utils import seed_everything

    set_backend("numpy-compiled")
    seed_everything(args.seed)
    epochs = 4 if args.tiny else 10
    train_ds, val_ds, spec = make_vision_task("imagenet_small")
    # Batch 16, half the recipe's 32: twice the steps, so the run is mostly
    # plan replays between the two captures.
    train_loader, val_loader = build_loaders(train_ds, val_ds, batch_size=16)
    model = deit_micro(image_size=spec.image_size, num_classes=spec.num_classes,
                       depth=4, embed_dim=64, num_heads=4)
    full_params = model.num_parameters()
    config = CuttlefishConfig(min_full_rank_epochs=2, max_full_rank_epochs=epochs // 2,
                              profile_mode="none", rank_ratio_override=0.5,
                              lr_decay_on_switch=1.0)
    if args.inject == "no-switch":
        config.min_full_rank_epochs = config.max_full_rank_epochs = epochs + 1
    trainer, manager = train_cuttlefish(
        model, AdamW(model.parameters(), lr=1e-3, weight_decay=0.05),
        train_loader, val_loader, epochs=epochs, config=config,
        max_batches_per_epoch=3 if args.tiny else None)
    result = training_result(trainer, manager, clock, full_params, spec.num_classes)
    result["compile"] = dict(trainer._compiler.stats) if trainer._compiler else {}
    return result


def run_training(args, body):
    clock = StepClock(stop_at_first_step=args.role == "setup",
                      count_ops=args.role == "traced")
    install_clock(clock)
    if args.role == "traced":
        import spans

        spans.install_training()
    try:
        result = body(args, clock)
    except SetupReached:
        return {"setup_s": clock.first_step - args.spawned}
    result["setup_s"] = clock.first_step - args.spawned
    if args.role == "traced":
        result["steps_counted"] = [(s["seconds"], s["flops"], s["ops"]) for s in clock.steps]
    return result


# --------------------------------------------------------------------------- #
# Serving workload
# --------------------------------------------------------------------------- #
SERVE_SPEC = {"name": "resnet18", "kwargs": {"num_classes": 10, "width_mult": 0.125}}
SERVE_SHAPE = (3, 32, 32)
#: Stacks the timed low-rank artifact factorizes; layer1 and layer4 stay full rank.
TIMED_FACTORIZED = ("layer2.", "layer3.")
#: Stacks the probed second artifact factorizes: every stack below layer1.
DEEP_FACTORIZED = ("layer2.", "layer3.", "layer4.")
#: Workers of the untimed multi-worker pools.
CHECK_WORKERS = 2
#: The untimed pools' schedule: requests in threes, 4 ms apart, faster than
#: the pool serves them, so both workers stay busy at the same time.  Its
#: queue holds them all: nothing is refused.
CHECK_REQUESTS = 96
CHECK_GAP_S = 0.004
#: The untimed multi-worker runs: (label, artifact, pool mode, gating).  The
#: gating run is ``DynamicBatcher(workers=2, mode="process")``, the scale
#: path, on the timed artifact; its responses must be bit-identical to the
#: direct ``Predictor`` call.  The other two probe known program defects
#: (perfbench/README.md) and are reported in the run record, not in
#: ``correct``: the layer2-4 artifact is batch-variant, and a two-worker
#: thread pool returns wrong outputs.  The thread pool runs last: its
#: workers leave the process-global grad mode off.
POOL_RUNS = (("process", "low", "process", True),
             ("deep-process", "deep", "process", False),
             ("thread", "low", "thread", False))


def serve_model(seed, factorized=()):
    """The ResNet cell from ``seed``, without training; the stacks named in
    ``factorized`` are factorized at rank 1/4 of their full rank."""
    import numpy as np

    from repro.core import factorize_model, full_rank_of
    from repro.models import build_model

    model = build_model(SERVE_SPEC["name"], rng=np.random.default_rng(seed),
                        **SERVE_SPEC["kwargs"])
    if factorized:
        paths = [p for p in model.factorization_candidates() if p.startswith(factorized)]
        factorize_model(model, {p: max(1, full_rank_of(model.get_submodule(p)) // 4)
                                for p in paths})
    model.eval()
    return model


def build_artifact(path, model, samples, label, check_invariance):
    """``export_artifact`` -> ``load_artifact``, and the reference every
    response is checked against: a direct single-sample ``Predictor`` call
    per sample, computed once here."""
    from repro.serve import export_artifact, load_artifact
    from repro.telemetry import tracing

    with tracing.span("serve.artifact.export", cat="perfbench", artifact=label):
        manifest = export_artifact(path, model, model_spec=SERVE_SPEC, input_shape=SERVE_SHAPE,
                                   example_batch=samples[:16] if check_invariance else None)
    with tracing.span("serve.artifact.load", cat="perfbench", artifact=label):
        predictor = load_artifact(path)
    with tracing.span("serve.reference", cat="perfbench", artifact=label):
        references = [predictor(samples[i:i + 1]) for i in range(len(samples))]
    return predictor, manifest, references


def serve_schedule(seed, seconds):
    """(rate name, rate, arrival offsets in s) per phase: constant-rate Poisson
    schedules, a pure function of the seed."""
    from repro.serve.loadgen import TrafficShape, arrival_times

    return [(name, rate, arrival_times(TrafficShape("constant", rate, seconds * share,
                                                    seed=seed * len(PHASES) + index)))
            for index, (name, rate, share) in enumerate(PHASES)]


def summarise(runs):
    """One record per rate: medians over its schedules, sums of the counts."""
    record = {}
    for key, value in runs[0].items():
        if isinstance(value, dict):
            record[key] = summarise([run[key] for run in runs])
        elif key in ("requests", "failed", "rejected", "shed"):
            record[key] = sum(run[key] for run in runs)
        else:
            record[key] = statistics.median(run[key] for run in runs)
    return record


def drive(batcher, samples, arrivals, expected, label, inject=None):
    """Submit on the schedule from this one thread; time each from its due time.

    Completions are stamped by future callbacks.  A refused or failed request
    gets an infinite latency, so it misses every latency limit.  Every
    response is compared bit for bit with ``expected`` for its sample.  In a
    traced run each request's spans carry the id ``<label>.<index>``.
    """
    import numpy as np

    from repro.serve.admission import QueueFullError
    from repro.telemetry import tracing

    n = len(arrivals)
    done = np.full(n, np.inf)
    late = np.zeros(n)
    futures = [None] * n
    start = time.perf_counter()
    for i, offset in enumerate(arrivals):
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late[i] = time.perf_counter() - due
        try:
            future = batcher.submit(samples[i % len(samples)])
        except QueueFullError:
            continue
        future.add_done_callback(lambda _, i=i: done.__setitem__(i, time.perf_counter()))
        futures[i] = future
    wrong = failed = 0
    for i, future in enumerate(futures):
        if future is None or future.exception(timeout=60) is not None:
            failed += 1
            done[i] = np.inf
            continue
        output = future.result()
        if inject == "corrupt-serve" and i == n // 2:
            output = output.copy()
            output.flat[0] = np.nextafter(output.flat[0], np.inf)
        if not np.array_equal(output, expected[i % len(expected)]):
            wrong += 1
    latency_ms = (done - (start + np.asarray(arrivals))) * 1e3
    if tracing.enabled():
        for i, offset in enumerate(arrivals):
            tracing.record_span("serve.loadgen.late", start + offset, start + offset + late[i],
                                cat="perfbench.request", id=f"{label}.{i}")
            if np.isfinite(done[i]):
                tracing.record_span("serve.request", start + offset, done[i],
                                    cat="perfbench.request", id=f"{label}.{i}")
    return {"attempted": n, "failed": failed, "wrong": wrong,
            "latency_ms": latency_ms, "late_ms": late * 1e3, "done_s": done}


def closed_loop(batcher, samples, expected, n, counts):
    """One client: each request is sent when the previous one is answered.

    Returns each request's latency in ms, infinite for a refused or failed
    one; adds to ``counts``' attempted, failed and wrong (not bit-identical
    to ``expected``).
    """
    import numpy as np

    latency = []
    for i in range(n):
        sent = time.perf_counter()
        counts["attempted"] += 1
        try:
            output = batcher.submit(samples[i % len(samples)]).result(timeout=60)
        except Exception:  # noqa: BLE001 — a refused or failed request
            counts["failed"] += 1
            latency.append(float("inf"))
            continue
        latency.append((time.perf_counter() - sent) * 1e3)
        counts["wrong"] += not np.array_equal(output, expected[i % len(expected)])
    return latency


def cycle_rates(done):
    """Samples per completion cycle of a closed burst.

    A batch's responses complete together (within 1 ms); batches follow
    each other > 10 ms apart.  Each batch after the first gives its size
    over the time since the previous batch completed: collection plus
    compute, the serving twin of a training step's cycle.
    """
    import numpy as np

    t = np.sort(done[np.isfinite(done)])
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(t) > 1e-3) + 1, [len(t)]])
    ends = t[bounds[1:] - 1]
    return (np.diff(bounds)[1:] / np.diff(ends)).tolist()


def pool_checks(args, samples, timed, policy, workdir):
    """The batch-composition-invariance contract on two-worker pools.

    The timed phases serve from one worker.  After them, each of
    ``POOL_RUNS`` serves ``CHECK_REQUESTS`` to a ``CHECK_WORKERS``-worker
    pool, and every response is compared bit for bit with the direct
    ``Predictor`` call.  The layer2-4 artifact's export also records its
    measured ``batch_invariant``.  Each run loads its own ``Predictor`` from
    the artifact file: after a process pool closes, in-process calls of the
    predictor it served crash (see perfbench/README.md).  Returns one record
    per run.
    """
    import dataclasses

    import numpy as np

    from repro.serve import load_artifact
    from repro.serve.batcher import DynamicBatcher
    from repro.telemetry import tracing

    policy = dataclasses.replace(policy, max_queue=CHECK_REQUESTS)
    artifacts = {"low": timed,
                 "deep": build_artifact(os.path.join(workdir, "deep.npz"),
                                        serve_model(args.seed, DEEP_FACTORIZED), samples,
                                        "deep", check_invariance=True)}
    arrivals = (np.arange(CHECK_REQUESTS // (2 if args.tiny else 1)) // 3) * CHECK_GAP_S
    records = {}
    for label, artifact, mode, gating in POOL_RUNS:
        _, manifest, references = artifacts[artifact]
        predictor = load_artifact(os.path.join(workdir, f"{artifact}.npz"))
        engine = DynamicBatcher(predictor, policy, workers=CHECK_WORKERS, mode=mode)
        try:
            with tracing.span("serve.pool_check", cat="perfbench", run=label):
                run = drive(engine, samples, arrivals, references, f"check-{label}")
        finally:
            engine.close()
        records[label] = {key: run[key] for key in ("attempted", "failed", "wrong")}
        records[label].update(
            workers=CHECK_WORKERS, mode=mode, gating=gating,
            factorized=list(TIMED_FACTORIZED if artifact == "low" else DEEP_FACTORIZED),
            batch_invariant=manifest.get("batch_invariant"))
    return records


def serve_lowrank(args):
    """The serve job; its artifacts live in a scratch directory of the job."""
    import shutil

    workdir = os.path.join(HERE, ".out", f"serve-{os.getpid()}")
    try:
        return serve_in(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def serve_in(args, workdir):
    import numpy as np

    from repro.serve.batcher import BatchingPolicy, DynamicBatcher
    from repro.telemetry import tracing

    if args.role == "traced":
        import spans

        spans.install_serving()
    seconds = args.seconds
    samples = np.random.default_rng([args.seed, 1]).standard_normal(
        (SERVE_SAMPLES,) + SERVE_SHAPE).astype(np.float32)
    artifacts = {
        "full": build_artifact(os.path.join(workdir, "full.npz"), serve_model(args.seed),
                               samples, "full", check_invariance=False),
        "low": build_artifact(os.path.join(workdir, "low.npz"),
                              serve_model(args.seed, TIMED_FACTORIZED), samples, "low",
                              check_invariance=True),
    }
    # The queue holds one closed burst, so a burst is never refused.
    policy = BatchingPolicy(max_batch_size=32, max_wait_ms=2.0, max_queue=BURST)

    # The timed pool: thread mode, one worker.  A two-worker process pool
    # runs two BLAS threads per worker on two cores and is 3-4x slower and
    # unsteady; a two-worker thread pool returns wrong outputs (see
    # perfbench/README.md).  Both are served, untimed, by ``pool_checks``.
    def batcher(label):
        with tracing.span("serve.pool.start", cat="perfbench"):
            return DynamicBatcher(artifacts[label][0], policy, workers=1, mode="thread")

    def close(engine):
        with tracing.span("serve.pool.close", cat="perfbench"):
            engine.close()

    manifests = {label: artifact[1] for label, artifact in artifacts.items()}
    result = {"attempted": 0, "failed": 0, "wrong": 0,
              "batch_invariant": manifests["low"].get("batch_invariant"),
              "params_full": manifests["full"]["num_parameters"],
              "params_final": manifests["low"]["num_parameters"],
              "selected_ranks": manifests["low"]["ranks"]}

    def count(run):
        for key in ("attempted", "failed", "wrong"):
            result[key] += run[key]

    # Closed bursts: serving throughput of the full-rank and low-rank
    # artifact, the median of their batches' cycle rates.  One uncounted
    # warm-up round (lazy plan and buffer set-up), then counted rounds spread
    # over the run (before each ``mid`` phase), alternating which artifact
    # goes first, so host drift over the run hits both alike.
    # A whole burst's rate moved by up to 30 % between rounds of one run.
    engines = {label: batcher(label) for label in ("full", "low")}
    rates = {label: [] for label in engines}
    closed_ms = []

    rounds = 0

    def burst_round(counted):
        nonlocal rounds
        labels = ("full", "low") if rounds % 2 == 0 else ("low", "full")
        rounds += counted
        for label in labels:
            with tracing.span("serve.burst", cat="perfbench", artifact=label):
                size = BURST // (4 if args.tiny else 1) if counted else 32
                run = drive(engines[label], samples, np.zeros(size), artifacts[label][2],
                            f"burst-{label}")
            if counted:
                rates[label] += cycle_rates(run["done_s"])
            count(run)
        if counted:
            with tracing.span("serve.closed_loop", cat="perfbench"):
                closed_ms.extend(closed_loop(engines["low"], samples, artifacts["low"][2],
                                             CLOSED_REQUESTS // (4 if args.tiny else 1),
                                             result))

    first_request = time.perf_counter()
    runs, latencies = {}, {}
    # The open-loop schedules' own length, from the start of each to its last
    # due arrival: pacing the generator imposes, taken out of ``wall_s``.
    result["paced_s"] = 0.0
    try:
        if args.role == "setup":
            return {"setup_s": first_request - args.spawned}
        burst_round(counted=False)
        # Open loop at three fixed rates against the low-rank artifact.
        for index, (name, rate, arrivals) in enumerate(serve_schedule(args.seed, seconds)):
            if name == "mid":
                burst_round(counted=True)
            engine = batcher("low")
            try:
                with tracing.span("serve.phase", cat="perfbench", rate=name):
                    run = drive(engine, samples, arrivals, artifacts["low"][2],
                                f"{name}-{index}", args.inject)
            finally:
                close(engine)
            count(run)
            result["paced_s"] += float(arrivals[-1]) if len(arrivals) else 0.0
            stats = engine.stats()
            latency = run["latency_ms"]
            latencies.setdefault(name, []).append(latency)
            last_tenth = latency[-max(1, len(latency) // 10):]
            tail_q, tail_ms = tail(latency)
            runs.setdefault(name, []).append({
                "rate_rps": rate,
                "requests": run["attempted"],
                "failed": run["failed"],
                "p50_ms": percentile(latency, 50),
                "p99_ms": percentile(latency, 99),
                "tail_q": tail_q,
                "tail_ms": tail_ms,
                "last_tenth_p50_ms": percentile(last_tenth, 50),
                "late_p99_ms": percentile(run["late_ms"], 99),
                "queue_wait_ms": stats["queue_wait_ms"],
                "compute_ms": stats["compute_ms"],
                "mean_batch_size": stats["mean_batch_size"],
                "rejected": stats["admission"]["rejected_total"],
                "shed": stats["admission"]["shed_total"],
            })
    finally:
        for engine in engines.values():
            close(engine)
    # ``wall_s`` ends here: the pool checks that follow are the benchmark's.
    result["wall_end"] = time.perf_counter()
    result["pool_checks"] = pool_checks(args, samples, artifacts["low"], policy, workdir)
    for record in result["pool_checks"].values():
        if record["gating"]:
            result["attempted"] += record["attempted"]
            result["failed"] += record["failed"]
    result["setup_s"] = first_request - args.spawned
    for label, label_rates in rates.items():
        result[f"{label}_rank_samples_per_s"] = float(np.median(label_rates))
    phases = result["phases"] = {name: summarise(group) for name, group in runs.items()}
    for name, group in latencies.items():
        phases[name]["p99_ms"] = percentile(np.concatenate(group), 99)
    met = [rate for name, rate, _ in PHASES
           if phases[name]["p99_ms"] <= P99_LIMIT_MS
           and phases[name]["last_tenth_p50_ms"] <= P99_LIMIT_MS
           and phases[name]["failed"] <= 0.01 * phases[name]["requests"]]
    result["max_rate_rps"] = max(met) if met else 0.0
    # The gated p50 is the one-client closed loop's.  An open-loop p50 moves
    # with the queue, which magnifies the host's speed: even at ``low`` the
    # worker is ~75 % busy, since each request computes a padded 4-row batch.
    result["p50_ms"] = percentile(closed_ms, 50)
    result["tail_q"], result["tail_ms"] = phases["low"]["tail_q"], phases["low"]["tail_ms"]
    return result


# --------------------------------------------------------------------------- #
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-resnet", "train-deit", "serve-lowrank"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", required=True, choices=["main", "setup", "traced"])
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace-path", default=None)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject", default=None, choices=["corrupt-serve", "no-switch"],
                        help="fault injection, used by the benchmark's own tests")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    from repro.telemetry import tracing

    if args.role == "traced":
        tracing.enable("perfbench")
    if args.workload == "serve-lowrank":
        result = serve_lowrank(args)
    else:
        result = run_training(args, train_resnet if args.workload == "train-resnet"
                              else train_deit)
    end = time.perf_counter()
    # The serve job's wall time ends with its timed phases and leaves out the
    # open-loop schedules' pacing, which is the generator's and fixed by
    # --seconds.
    result["wall_s"] = (result.pop("wall_end", end) - args.spawned
                        - result.pop("paced_s", 0.0))
    if args.role == "traced":
        import spans

        session = tracing.disable()
        tracing.write_trace(args.trace_path, session)
        analysis = spans.analyse(session, args.spawned, end)
        layers = (spans.serving_layers(analysis) if args.workload == "serve-lowrank"
                  else spans.training_layers(analysis, result.pop("steps_counted")))
        layers.update({f"{layer}.self_ms": ms for layer, ms in analysis["self_ms"].items()})
        layers["trace.unattributed_share"] = analysis["unattributed_share"]
        result["layers"] = layers
    result["host"] = host_record()
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
