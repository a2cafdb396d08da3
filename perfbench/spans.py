"""Outside-in span recorder for the traced run.

Nothing in ``src/`` knows about tracing: :class:`Tracer` replaces the
public entry points of each layer (a class attribute or a module
attribute) with a thin wrapper that opens a span, calls the original and
closes the span, and puts every original back on :meth:`Tracer.uninstall`.

A span is ``[name, trace_id, parent, start, end]``.  Spans stay in memory
and are written out as JSON lines when the run ends.  A span's self time
is its duration minus the time its child spans cover; calls are
sequential (one load generator, ``workers=1``), so children never overlap.

The workloads open one root span (``op``) per operation — a soak
submission, a federation request frame, a study cycle — and set
``trace_id`` to the job or cycle it serves, so every layer span of one
job or cycle shares that identifier.  ``trace.coverage`` is the share of
the traced rounds' wall time that lies inside layer spans (the roots'
children); the rest is benchmark glue and program code between the named
entry points.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

ROOT = "op"


class SpanRecorder:
    """In-memory span store with incremental self-time accounting."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.open_names: Counter[str] = Counter()
        self.pool_sizes: list[int] = []
        self.trace_id = ""
        self.covered = 0.0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.trace_id, parent, perf_counter(), 0.0])
        self._stack.append(index)
        self._child.append(0.0)
        self.open_names[name] += 1
        return index

    def close(self, index: int) -> None:
        end = perf_counter()
        span = self.spans[index]
        span[4] = end
        duration = end - span[3]
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        child = self._child.pop()
        name = span[0]
        self.open_names[name] -= 1
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._child:
            self._child[-1] += duration
        else:
            self.covered += child

    def write(self, path: str) -> None:
        """One JSON array ``[name, trace_id, parent, start, end]`` per line;
        ``parent`` is the parent's 0-based line index (``-1`` for a root)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


# ----------------------------------------------------------------------
# Result hooks: counts measured where the work happens
# ----------------------------------------------------------------------
def _count_published(rec: SpanRecorder, args, result) -> None:
    rec.counts["horizon.slots_published"] += int(result)


def _count_alternatives(rec: SpanRecorder, args, result) -> None:
    rec.counts["csa.alternatives"] += len(result)


def _phase1_result(rec: SpanRecorder, args, result) -> None:
    rec.counts["phase1.windows_found"] += sum(len(found) for found in result.values())
    rec.pool_sizes.append(len(args[2]))


def _phase2_result(rec: SpanRecorder, args, result) -> None:
    # The co-allocator plans its own one-job batches; only broker cycles
    # consume phase-one windows.
    if not rec.open_names["coalloc"]:
        rec.counts["phase2.chosen"] += len(result.scheduled)


def _count_placed(rec: SpanRecorder, args, result) -> None:
    if result is not None:
        rec.counts["coalloc.placed"] += 1


def _count_frame(rec: SpanRecorder, args, result) -> None:
    rec.counts["protocol.frames"] += 1


def _count_event(rec: SpanRecorder, args, result) -> None:
    if result is not None:
        rec.counts["events.count"] += 1


#: (span name, module, owner class or None for a module function,
#: attribute, result hook).  The owner's own attribute is replaced.
LAYERS: tuple[tuple[str, str, Optional[str], str, Optional[Callable]], ...] = (
    ("admission", "repro.service.admission", "AdmissionController", "evaluate", None),
    ("retire", "repro.service.lifecycle", "JobLifecycle", "retire_due", None),
    ("trim", "repro.model.slotpool", "SlotPool", "trim_before", None),
    ("horizon", "repro.environment.rolling", "RollingHorizonSource", "ensure", _count_published),
    ("snapshot", "repro.model.slotpool", "SlotPool", "as_arrays", None),
    ("pool_copy", "repro.model.slotpool", "SlotPool", "copy", None),
    ("cut", "repro.model.slotpool", "SlotPool", "cut_window", None),
    ("commit", "repro.model.slotpool", "SlotPool", "commit_window", None),
    ("commit", "repro.service.lifecycle", "JobLifecycle", "start", None),
    ("amp", "repro.core.algorithms.amp", "AMP", "select", None),
    ("csa", "repro.core.algorithms.csa", "CSA", "find_alternatives", _count_alternatives),
    ("phase1", "repro.service.broker", None, "parallel_find_alternatives", _phase1_result),
    ("phase2", "repro.scheduling.metascheduler", "BatchScheduler", "plan", _phase2_result),
    ("select.MinFinish", "repro.core.algorithms.minfinish", "MinFinish", "select", None),
    ("select.MinCost", "repro.core.algorithms.mincost", "MinCost", "select", None),
    ("select.MinRunTime", "repro.core.algorithms.minruntime", "MinRunTime", "select", None),
    ("select.MinProcTime", "repro.core.algorithms.minproctime", "MinProcTime", "select", None),
    ("env", "repro.environment.generator", "EnvironmentGenerator", "generate", None),
    ("env", "repro.environment.generator", "Environment", "slot_pool", None),
    ("protocol", "repro.federation.protocol", None, "encode_frame", _count_frame),
    ("protocol", "repro.federation.protocol", None, "decode_payload", None),
    ("route", "repro.federation.sharding", "ShardManager", "submit", None),
    ("shards.advance", "repro.federation.sharding", "ShardManager", "advance_to", None),
    ("shards.advance", "repro.federation.sharding", "ShardManager", "drain", None),
    ("coalloc", "repro.federation.coallocation", "CoAllocator", "try_place", _count_placed),
    ("tenancy", "repro.tenancy.manager", "TenancyManager", "drain_batch", None),
    ("tenancy", "repro.tenancy.manager", "TenancyManager", "charge_commit", None),
    ("tenancy", "repro.tenancy.manager", "TenancyManager", "observe_cycle", None),
    ("tenancy", "repro.tenancy.manager", "TenancyManager", "on_retired", None),
    ("tenancy", "repro.tenancy.manager", "TenancyManager", "on_forfeit", None),
    ("tenancy", "repro.tenancy.manager", "TenancyManager", "on_release", None),
    ("resilience", "repro.service.resilience.manager", "ResilienceManager", "sample_interval", None),
    ("resilience", "repro.service.resilience.manager", "ResilienceManager", "apply", None),
    ("events", "repro.service.events", "EventEmitter", "emit", _count_event),
    ("events", "repro.service.events", "EventEmitter", "ingest", _count_event),
)

#: Scan-kernel counters (process-wide in the program) read as deltas.
SCAN_COUNTERS = ("plans_built", "plans_reused", "vectorized", "fallback")

#: Every per-layer metric with its unit, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("admission.self_s", "s"),
    ("admission.calls", "count"),
    ("retire.self_s", "s"),
    ("trim.self_s", "s"),
    ("trim.calls", "count"),
    ("horizon.self_s", "s"),
    ("horizon.slots_published", "count"),
    ("pool.slots_mean", "slots"),
    ("snapshot.self_s", "s"),
    ("snapshot.calls", "count"),
    ("pool_copy.self_s", "s"),
    ("pool_copy.calls", "count"),
    ("cut.self_s", "s"),
    ("cut.calls", "count"),
    ("amp.self_s", "s"),
    ("amp.calls", "count"),
    ("csa.self_s", "s"),
    ("csa.calls", "count"),
    ("csa.alternatives", "count"),
    ("scan.plans_built", "count"),
    ("scan.plans_reused", "count"),
    ("scan.plans_per_csa_call", "ratio"),
    ("scan.vectorized", "count"),
    ("scan.fallback", "count"),
    ("phase1.self_s", "s"),
    ("phase1.windows_found", "count"),
    ("phase1.windows_used_ratio", "ratio"),
    ("phase2.self_s", "s"),
    ("commit.self_s", "s"),
    ("select.MinFinish.self_s", "s"),
    ("select.MinCost.self_s", "s"),
    ("select.MinRunTime.self_s", "s"),
    ("select.MinProcTime.self_s", "s"),
    ("env.self_s", "s"),
    ("env.calls", "count"),
    ("protocol.self_s", "s"),
    ("protocol.frames", "count"),
    ("route.self_s", "s"),
    ("route.shard_submits_per_job", "ratio"),
    ("shards.advance.self_s", "s"),
    ("coalloc.self_s", "s"),
    ("coalloc.placed", "count"),
    ("tenancy.self_s", "s"),
    ("resilience.self_s", "s"),
    ("resilience.revocations", "count"),
    ("resilience.repaired", "count"),
    ("events.self_s", "s"),
    ("events.count", "count"),
    ("trace.coverage", "share"),
    ("trace.overhead", "share"),
)


def _span_wrapper(rec: SpanRecorder, name: str, original: Callable, hook) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, args, result)
        return result

    return traced


def _emit_wrapper(rec: SpanRecorder, name: str, original: Callable, hook) -> Callable:
    """Events are a span only when a sink listens (an idle emit is free)."""

    @functools.wraps(original)
    def traced(emitter, *args, **kwargs):
        if not emitter.enabled:
            return original(emitter, *args, **kwargs)
        index = rec.open(name)
        try:
            result = original(emitter, *args, **kwargs)
        finally:
            rec.close(index)
        hook(rec, (emitter,) + args, result)
        return result

    return traced


def _routed_submit_counter(rec: SpanRecorder, original: Callable) -> Callable:
    """Counts shard-broker submissions made while routing one job."""

    @functools.wraps(original)
    def counted(*args, **kwargs):
        if rec.open_names["route"]:
            rec.counts["route.shard_submits"] += 1
        return original(*args, **kwargs)

    return counted


class Tracer:
    """Installs and removes the layer wrappers around one recorder."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self._saved: list[tuple[Any, str, Any, bool]] = []
        self._scan_before: dict[str, int] = {}

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        from repro.core.vectorized import scan_counters

        self._scan_before = {key: scan_counters[key] for key in SCAN_COUNTERS}
        rec = self.recorder
        for name, module_name, class_name, attr, hook in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = getattr(owner, attr)
            make = _emit_wrapper if name == "events" else _span_wrapper
            self._patch(owner, attr, make(rec, name, original, hook))
        broker = importlib.import_module("repro.service.broker").BrokerService
        self._patch(broker, "submit", _routed_submit_counter(rec, broker.submit))

    def uninstall(self) -> None:
        from repro.core.vectorized import scan_counters

        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()
        for key in SCAN_COUNTERS:
            self.recorder.counts[f"scan.{key}"] += (
                scan_counters[key] - self._scan_before[key]
            )


def combine_traced(plain: dict, traced: dict, tracer: "Tracer") -> dict:
    """The traced pass of a workload, with its overhead against the
    untraced pass over the same inputs and rounds."""
    overhead = plain["metrics"]["jobs_per_s"] / traced["metrics"]["jobs_per_s"] - 1.0
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": plain["problems"] + traced["problems"],
        "decisions": traced["decisions"],
        "recorder": tracer.recorder,
        "traced_wall": traced["timed_wall"],
        "overhead": overhead,
    }


def per_layer_metrics(
    rec: SpanRecorder, traced_wall: float, overhead: float
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one recorder."""
    values: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field == "self_s":
            values[metric] = rec.self_time.get(layer, 0.0)
        elif field == "calls":
            values[metric] = float(rec.calls.get(layer, 0))
    counts = rec.counts
    for key in (
        "horizon.slots_published",
        "csa.alternatives",
        "phase1.windows_found",
        "protocol.frames",
        "coalloc.placed",
        "resilience.revocations",
        "resilience.repaired",
        "events.count",
    ) + tuple(f"scan.{key}" for key in SCAN_COUNTERS):
        values[key] = float(counts.get(key, 0))
    values["pool.slots_mean"] = (
        sum(rec.pool_sizes) / len(rec.pool_sizes) if rec.pool_sizes else 0.0
    )
    csa_calls = rec.calls.get("csa", 0)
    values["scan.plans_per_csa_call"] = (
        counts.get("scan.plans_built", 0) / csa_calls if csa_calls else 0.0
    )
    found = counts.get("phase1.windows_found", 0)
    values["phase1.windows_used_ratio"] = (
        counts.get("phase2.chosen", 0) / found if found else 0.0
    )
    routed = rec.calls.get("route", 0)
    values["route.shard_submits_per_job"] = (
        counts.get("route.shard_submits", 0) / routed if routed else 0.0
    )
    values["trace.coverage"] = rec.covered / traced_wall if traced_wall > 0 else 0.0
    values["trace.overhead"] = overhead
    return {metric: values[metric] for metric, _unit in PER_LAYER}
