"""Outside-in span tracer for the benchmark's traced run.

The traced run wraps public entry points of ``repro`` from here, so the
program under test is never edited. Each wrapped call records one span:
its name, start, end and the span that was open when it began. Spans
stay in memory (parallel lists, to keep the per-call cost near a
microsecond) and are written out once the timed phase is over.

A layer's self time is the summed duration of its spans minus the part
of them that child spans cover. The root span ``bench.timed`` covers the
whole timed phase, so the self times of all layers (the root's own self
time is reported as ``other``) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

ROOT_SPAN = "bench.timed"


class SpanTracer:
    """In-memory span store plus the monkeypatches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._stack: List[int] = [-1]
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._patches: List[tuple] = []

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def duration(self, sid: int) -> float:
        return self.ends[sid] - self.starts[sid]

    # -- instrumentation ------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[["SpanTracer", int, tuple, dict, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``observe(tracer, span_id, args, kwargs, result)`` runs after
        the span closed, so the work it does to read counters off the
        result is not charged to the layer.
        """
        original = getattr(owner, attr)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(self, sid, args, kwargs, result)
            return result

        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the children's durations."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[sid]
        return [d - c for d, c in zip(durations, covered)]

    def write_jsonl(self, path: str) -> None:
        """One span per line: id, parent, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                out.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": start, "end": end}
                ))
                out.write("\n")


def layer_of(span_name: str) -> str:
    """Layer a span belongs to: the prefix before its first dot."""
    layer = span_name.split(".", 1)[0]
    return "other" if layer == "bench" else layer


# ----------------------------------------------------------------------
# The entry points wrapped in the traced run, one block per layer
# ----------------------------------------------------------------------

def _limits_arg(args: tuple, kwargs: dict):
    if len(args) > 1:
        return args[1]
    return kwargs.get("limits")


def _observe_search(tr: SpanTracer, sid: int, args, kwargs, result) -> None:
    stats = result.stats
    tr.counters["caps.nodes"] += stats.nodes
    tr.counters["caps.plans"] += stats.plans_found
    limits = _limits_arg(args, kwargs)
    key = (
        "caps.probe_max_s"
        if limits is not None and limits.first_satisfying
        else "caps.search_max_s"
    )
    tr.maxima[key] = max(tr.maxima[key], tr.duration(sid))


def _observe_autotune(tr: SpanTracer, sid: int, args, kwargs, result) -> None:
    tr.maxima["caps.autotune_max_s"] = max(
        tr.maxima["caps.autotune_max_s"], tr.duration(sid)
    )


def _observe_place(tr: SpanTracer, sid: int, args, kwargs, result) -> None:
    if args[0].last_fallback is not None:
        tr.counters["caps.fallbacks"] += 1


def _observe_decide(tr: SpanTracer, sid: int, args, kwargs, result) -> None:
    if result.changed:
        tr.counters["ds2.changed"] += 1


def _observe_engine_advance(seen: "weakref.WeakKeyDictionary") -> Callable:
    """Count ticks leapt, from each engine's own ``ticks_leapt`` total."""

    def observe(tr: SpanTracer, sid: int, args, kwargs, result) -> None:
        engine = args[0]
        tr.counters["engine.ticks_leapt"] += engine.ticks_leapt - seen.get(engine, 0)
        seen[engine] = engine.ticks_leapt

    return observe


def _observe_adaptive(tr: SpanTracer, sid: int, args, kwargs, result) -> None:
    controller = args[0]
    tr.counters["controller.rescales"] += len(result.events)
    guard = controller.last_guard
    if guard is not None:
        tr.counters["guards.rejections"] += guard.total_rejections
        tr.counters["guards.safe_mode_entries"] += guard.safe_mode_entries


def _observe_fault(tr: SpanTracer, sid: int, args, kwargs, result) -> None:
    tr.counters["faults.injected"] += 1


def _observe_runtime(tr: SpanTracer, sid: int, args, kwargs, result) -> None:
    c = tr.counters
    c["runtime.records_in"] += result.records_ingested
    c["runtime.records_out"] += len(result.outputs)
    for stats in result.state_stats.values():
        c["state.reads"] += stats.reads
        c["state.writes"] += stats.writes
        c["state.bytes_read"] += stats.bytes_read
        c["state.bytes_written"] += stats.bytes_written
    for stats in result.channel_stats.values():
        c["channels.blocked_puts"] += stats.blocked_puts
        tr.maxima["channels.peak_occupancy"] = max(
            tr.maxima["channels.peak_occupancy"], stats.peak_occupancy
        )


def instrument(tr: SpanTracer) -> None:
    """Wrap every layer's public entry points (see README.md)."""
    from repro.controller import capsys, guards, profiler
    from repro.core import autotune, search
    from repro.diagnosis import collector, report
    from repro.experiments import runner
    from repro.faults import telemetry
    from repro.placement import caps
    from repro.runtime import operators, parallel, state
    from repro.scaling import ds2
    from repro.simulator import engine, metrics

    tr.wrap(profiler.CostProfiler, "profile", "profiler.profile")
    tr.wrap(ds2.DS2Controller, "decide", "ds2.decide", _observe_decide)

    tr.wrap(caps.CapsStrategy, "place", "caps.place", _observe_place)
    tr.wrap(autotune.ThresholdAutoTuner, "tune", "caps.autotune", _observe_autotune)
    tr.wrap(search.CapsSearch, "run", "caps.search", _observe_search)

    # runner binds the function by name at import, so patch that binding
    tr.wrap(runner, "simulate_cached", "plan_cache.simulate_cached")

    sim = engine.FluidSimulation
    tr.wrap(sim, "__init__", "engine.build")
    tr.wrap(sim, "step", "engine.step")
    advance = _observe_engine_advance(weakref.WeakKeyDictionary())
    tr.wrap(sim, "run", "engine.run", advance)
    tr.wrap(sim, "run_until", "engine.run_until", advance)

    tr.wrap(metrics.MetricsCollector, "job_series", "metrics.job_series")
    tr.wrap(metrics.MetricsCollector, "summarize", "metrics.summarize")

    tr.wrap(capsys.CAPSysController, "run_adaptive", "controller.run_adaptive",
            _observe_adaptive)
    tr.wrap(capsys.CAPSysController, "deploy", "controller.deploy")
    tr.wrap(guards.ControlPlaneGuard, "validate_rates", "guards.validate_rates")
    # both fault planes report through these module-level bindings
    tr.wrap(capsys, "observe_fault", "faults.observe", _observe_fault)
    tr.wrap(telemetry, "observe_control_fault", "faults.observe_control",
            _observe_fault)

    tr.wrap(collector.DiagnosisCollector, "flush", "diagnosis.flush")
    tr.wrap(report, "build_report", "diagnosis.build_report")

    tr.wrap(parallel.ShardedExecutor, "run", "runtime.run", _observe_runtime)
    tr.wrap(state.KeyedState, "get", "state.get")
    tr.wrap(state.KeyedState, "put", "state.put")
    for cls in (operators.WindowAggregateOperator,
                operators.SessionWindowOperator,
                operators.WindowJoinOperator):
        tr.wrap(cls, "on_watermark", "operators.on_watermark")
