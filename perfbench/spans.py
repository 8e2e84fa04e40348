"""Spans around each layer's public entry points, for the traced run.

The benchmark instruments the program from the outside: ``install`` wraps
the public functions and methods where one layer calls into the next with
``repro.telemetry.tracing`` spans, so the trace file that
``repro trace summary`` reads carries one span per call.  Span names are
``<layer>.<what>``; the layer is the part before the first dot.

``analyse`` nests the recorded spans: every span's self time (its duration
minus the time its nested spans cover), each layer's total self time, and
the part of the wall time that no span covers.  ``training_layers`` and
``serving_layers`` turn them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Dict, List, Optional

#: Category of the spans that count; the serve job's per-request spans
#: (``perfbench.request``) overlap one another, so they are written to the
#: trace but kept out of the accounting.
CAT = "perfbench"


def _wrap(owner: Any, attr: str, span_name: str,
          args_of: Optional[Callable[..., Dict[str, Any]]] = None) -> None:
    """Replace ``owner.attr`` by a wrapper that runs it inside a span."""
    from repro.telemetry import tracing

    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracing.span(span_name, cat=CAT) as span:
            result = original(*args, **kwargs)
            if args_of is not None and hasattr(span, "args"):
                span.args = args_of(result)
            return result

    setattr(owner, attr, wrapper)


def _wrap_root_module_call() -> None:
    """Span the outermost ``Module.__call__`` only: one span per model call."""
    from repro import nn
    from repro.telemetry import tracing

    original = nn.Module.__call__
    depth = threading.local()

    def call(self, *args, **kwargs):
        level = getattr(depth, "value", 0)
        if level:
            depth.value = level + 1
            try:
                return original(self, *args, **kwargs)
            finally:
                depth.value = level
        depth.value = 1
        try:
            with tracing.span("nn.forward", cat=CAT):
                return original(self, *args, **kwargs)
        finally:
            depth.value = 0

    nn.Module.__call__ = call


def _wrap_iterators(owners) -> None:
    """Span every ``next`` on the loaders' iterators (``data.next``)."""
    from repro.telemetry import tracing

    def wrap(owner):
        original = owner.__iter__

        def iterate(self):
            inner = original(self)
            try:
                while True:
                    with tracing.span("data.next", cat=CAT):
                        try:
                            batch = next(inner)
                        except StopIteration:
                            return
                    yield batch
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        owner.__iter__ = iterate

    for owner in owners:
        wrap(owner)


def _subclasses(base) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install_training() -> None:
    """Instrument the data, nn, tensor, optim, compile, core and train layers."""
    import repro.core.cuttlefish as cuttlefish
    import repro.train.experiments as experiments
    from repro.compile.step import StepCompiler, StepHandle
    from repro.core.rank_tracker import RankTracker
    from repro.data import DataLoader
    from repro.data.pipeline import PipelineLoader
    from repro.optim import Optimizer
    from repro.tensor.tensor import Tensor
    from repro.train.trainer import Trainer

    _wrap_iterators([DataLoader, PipelineLoader])
    _wrap_root_module_call()
    _wrap(Tensor, "backward", "tensor.backward")
    for cls in _subclasses(StepHandle):
        if "backward" in vars(cls):
            _wrap(cls, "backward", "tensor.backward")
    for cls in _subclasses(Optimizer):
        if "step" in vars(cls):
            _wrap(cls, "step", "optim.step")
    _wrap(StepCompiler, "forward", "compile.forward",
          args_of=lambda handle: {"kind": "capture" if handle.was_capture else
                                  "replay" if handle.was_replay else "eager"})
    # Algorithm 2 runs on the reference model (run_experiment) or on the
    # trained model itself (train_cuttlefish); both call sites are spanned.
    _wrap(experiments, "profile_layer_stacks", "core.profiler")
    _wrap(cuttlefish, "profile_layer_stacks", "core.profiler")
    _wrap(RankTracker, "update", "core.rank_tracker")
    # Only the switch: the report's factorization is part of train.report.
    _wrap(cuttlefish, "factorize_model", "core.factorize")
    _wrap(Trainer, "fit", "train.fit")
    _wrap(Trainer, "evaluate", "train.eval")
    _wrap(experiments, "projected_training_hours", "train.report")


def install_serving() -> None:
    """Instrument the artifact layer: one span per ``Predictor`` call.

    Each span carries the rows requested and the rows computed after the
    predictor pads the batch to its canonical size.
    """
    from repro.serve.artifact import Predictor
    from repro.telemetry import tracing

    original = Predictor.__call__

    def call(self, inputs):
        rows = len(inputs)
        computed = self._canonical_rows(rows) if self.canonicalize else rows
        with tracing.span("serve.artifact.predict", cat=CAT, rows=rows, computed=computed):
            return original(self, inputs)

    Predictor.__call__ = call


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def _nest(events: List[Dict[str, Any]]) -> None:
    """Give every event ``self_us`` and ``ancestors`` by interval nesting per lane."""
    lanes: Dict[Any, List[Dict[str, Any]]] = {}
    for event in events:
        lanes.setdefault((event["pid"], event["tid"]), []).append(event)
    for lane in lanes.values():
        lane.sort(key=lambda e: (e["ts_us"], -e["dur_us"]))
        stack: List[Dict[str, Any]] = []
        for event in lane:
            end = event["ts_us"] + event["dur_us"]
            while stack and stack[-1]["ts_us"] + stack[-1]["dur_us"] < end:
                stack.pop()
            event["ancestors"] = [e["name"] for e in stack]
            event["self_us"] = event["dur_us"]
            if stack:
                stack[-1]["self_us"] -= event["dur_us"]
            stack.append(event)


def analyse(session, start_s: float, end_s: float) -> Dict[str, Any]:
    """Nest the benchmark's spans; per-layer self times; the uncovered wall.

    ``session`` is the finished ``TraceSession``; only the benchmark's own
    synchronous spans (category ``CAT``) count.  Times are milliseconds.
    """
    base_us = session.started_ns / 1e3
    events = [e for e in session.event_dicts() if e["cat"] == CAT]
    for event in events:
        event["ts_us"] += base_us
    _nest(events)
    self_ms: Dict[str, float] = {}
    for event in events:
        layer = event["name"].split(".", 1)[0]
        self_ms[layer] = self_ms.get(layer, 0.0) + event["self_us"] / 1e3
    # Union of the top-level spans on every lane.
    intervals = sorted((e["ts_us"], e["ts_us"] + e["dur_us"])
                       for e in events if not e["ancestors"])
    covered_us, reach = 0.0, float("-inf")
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered_us += hi - lo
        reach = max(reach, hi)
    wall_ms = (end_s - start_s) * 1e3
    unattributed_ms = max(wall_ms - covered_us / 1e3, 0.0)
    return {
        "events": events,
        "self_ms": self_ms,
        "unattributed_ms": unattributed_ms,
        "unattributed_share": unattributed_ms / wall_ms if wall_ms > 0 else 0.0,
    }


def _outermost(events, name, within=None, outside=()):
    """``name`` spans not nested in another one, optionally only inside a
    ``within`` span and outside every span named in ``outside``."""
    return [e for e in events
            if e["name"] == name and name not in e["ancestors"]
            and (within is None or within in e["ancestors"])
            and not any(a in outside for a in e["ancestors"])]


def _ms(events):
    return [e["dur_us"] / 1e3 for e in events]


def percentile(values, q) -> float:
    """The ``q``-th percentile of ``values``; 0 when there are none."""
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def training_layers(analysis, steps) -> Dict[str, float]:
    """Per-layer metrics of a training job.

    ``steps`` are the job's per-step ``(seconds, flops, ops)``.  A step's
    forward is its ``compile.forward`` span where the compile layer runs, else
    the root ``nn.forward``; steps after the switch's ``core.factorize`` span
    are the low-rank phase.
    """
    events = analysis["events"]
    loop = {"within": "train.fit", "outside": ("train.eval",)}
    switches = _outermost(events, "core.factorize", within="train.fit")
    switch_us = switches[0]["ts_us"] + switches[0]["dur_us"] if switches else float("inf")
    compiled = _outermost(events, "compile.forward", **loop)
    forwards = compiled or _outermost(events, "nn.forward", **loop)
    backwards = _outermost(events, "tensor.backward", **loop)
    captures = [e for e in compiled if e["args"]["kind"] == "capture"]
    replays = [e for e in compiled if e["args"]["kind"] == "replay"]
    data = _ms(_outermost(events, "data.next", **loop))
    seconds = sum(step[0] for step in steps)
    metrics = {
        "data.wait_ms.p50": percentile(data, 50),
        "data.wait_ms.p90": percentile(data, 90),
        "tensor.flops_per_step": percentile([step[1] for step in steps], 50),
        "tensor.ops_per_step": percentile([step[2] for step in steps], 50),
        "tensor.gflops_per_s": sum(step[1] for step in steps) / seconds / 1e9 if seconds else 0.0,
        "optim.step_ms.p50": percentile(_ms(_outermost(events, "optim.step", **loop)), 50),
        "compile.captures": len(captures),
        "compile.capture_ms": sum(_ms(captures)),
        "compile.replay_share": len(replays) / len(compiled) if compiled else 0.0,
        "core.profiler.ms": sum(_ms(_outermost(events, "core.profiler"))),
        "core.rank_tracker.ms": sum(_ms(_outermost(events, "core.rank_tracker"))),
        "core.factorize.ms": sum(_ms(switches)),
        "train.eval_ms": sum(_ms(_outermost(events, "train.eval"))),
        "train.report_ms": sum(_ms(_outermost(events, "train.report"))),
        "train.unattributed_ms": analysis["unattributed_ms"],
    }
    for phase in ("full", "low"):
        def split(selected):
            return _ms([e for e in selected if (e["ts_us"] >= switch_us) == (phase == "low")])

        for q in (50, 90):
            metrics[f"nn.forward_ms.{phase}.p{q}"] = percentile(split(forwards), q)
            metrics[f"tensor.backward_ms.{phase}.p{q}"] = percentile(split(backwards), q)
    return metrics


def serving_layers(analysis) -> Dict[str, float]:
    """Per-layer metrics the spans give on the serve job: the row yield of
    the pool's ``Predictor`` calls during the open-loop phases."""
    events = analysis["events"]
    windows = [(e["ts_us"], e["ts_us"] + e["dur_us"])
               for e in events if e["name"] == "serve.phase"]
    calls = [e for e in events if e["name"] == "serve.artifact.predict"
             and not e["ancestors"] and any(lo <= e["ts_us"] <= hi for lo, hi in windows)]
    computed = sum(e["args"]["computed"] for e in calls)
    return {"serve.artifact.row_yield":
            sum(e["args"]["rows"] for e in calls) / computed if computed else 0.0}
