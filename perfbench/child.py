"""One measured process of the benchmark (started by ``run.py``).

Imports the package, generates the workload's inputs and, unless
``--mode setup``, runs the timed phase and checks its outputs. Prints
one JSON object as the last line of standard output. ``--spawned-at``
is the parent's ``time.perf_counter()`` just before it started this
process; both read the same monotonic clock, so set-up time covers
interpreter start too.

Modes:
    setup   import and generate inputs only (a set-up sample);
    timed   also run the ops untraced (end-to-end numbers);
    traced  also run the ops with every layer's entry points wrapped
            (per-layer numbers; see spans.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback

#: Loop lengths: the spin timed before and after the timed phase (a
#: diagnostic of the host's speed), and one host-probe sample.
SPIN_ITERATIONS = 1_000_000
PROBE_ITERATIONS = 10_000
#: Host-probe sampling periods; a sample costs about 0.5 ms.
SETUP_PROBE_INTERVAL_S = 0.02
TIMED_PROBE_INTERVAL_S = 0.1


def time_loop(iterations: int) -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i
    return time.perf_counter() - start


class HostProbe:
    """Times ``PROBE_ITERATIONS`` of the loop every ``interval_s``.

    The SIGALRM handler runs on the measured thread between bytecodes,
    so each sample is the host's speed at that moment of the measured
    phase; ``run.py`` scales the phase's time by the median sample.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: list = []

    def _sample(self, _signum=None, _frame=None) -> None:
        self.samples.append(time_loop(PROBE_ITERATIONS))

    def median_us(self) -> float:
        return 1e6 * statistics.median(self.samples)

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a phase shorter than one interval
            self._sample()


def load_pins(path: str, workload: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle).get(workload, {})
    except FileNotFoundError:
        return {}


def run_ops(ops, pins: dict, tracer=None) -> dict:
    """The closed loop, then the output checks (outside the timing)."""
    from spans import ROOT_SPAN

    latencies = []
    outcomes = []
    root = tracer.open(ROOT_SPAN) if tracer is not None else None
    started = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            outcome, error = op.run(), None
        except Exception:  # one failed op must not end the run
            outcome, error = None, traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        outcomes.append((outcome, error))
    wall_s = time.perf_counter() - started
    if tracer is not None:
        tracer.close(root)

    failures = []
    digests = {}
    totals = {"sim_s": 0.0, "records": 0.0}
    unpinned = 0
    for op, (outcome, error) in zip(ops, outcomes):
        if outcome is not None:
            error = op.check(outcome)
            digests[op.key] = outcome.digest
            totals["sim_s"] += outcome.sim_s
            totals["records"] += outcome.records
            pinned = pins.get(op.key)
            if pinned is None:
                unpinned += 1
            elif error is None and pinned != outcome.digest:
                error = f"digest {outcome.digest} != pinned {pinned}"
        if error is not None:
            failures.append(f"{op.key}: {error}")
    return {
        "wall_s": wall_s,
        "latencies_s": latencies,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "unpinned": unpinned,
        "digests": digests,
        **totals,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--pins", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    with HostProbe(SETUP_PROBE_INTERVAL_S) as setup_probe:
        import repro.cli  # noqa: F401  (the user-facing import)
        import workloads

        imported = time.perf_counter()
        ops = workloads.WORKLOADS[args.workload](args.seed, args.units)
        ready = time.perf_counter()
    out = {
        "import_s": imported - args.spawned_at,
        "inputs_s": ready - imported,
        "setup_s": ready - args.spawned_at,
        "setup_probe_us": setup_probe.median_us(),
    }
    if args.mode != "setup":
        pins = load_pins(args.pins, args.workload)
        tracer = None
        cache_hits = cache_misses = 0
        if args.mode == "traced":
            import spans
            from repro.simulator.plan_cache import DEFAULT_CACHE

            tracer = spans.SpanTracer()
            spans.instrument(tracer)
            cache_hits, cache_misses = DEFAULT_CACHE.hits, DEFAULT_CACHE.misses
        spin_before = time_loop(SPIN_ITERATIONS)
        with HostProbe(TIMED_PROBE_INTERVAL_S) as probe:
            out.update(run_ops(ops, pins, tracer))
        out["spin_ms"] = [1e3 * spin_before, 1e3 * time_loop(SPIN_ITERATIONS)]
        out["probe_us"] = probe.median_us()
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = layer_metrics(
                tracer,
                out["wall_s"],
                DEFAULT_CACHE.hits - cache_hits,
                DEFAULT_CACHE.misses - cache_misses,
            )
            if args.trace_out:
                tracer.write_jsonl(args.trace_out)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def layer_metrics(tracer, wall_s: float, cache_hits: int, cache_misses: int) -> dict:
    """Per-layer self times and counts from one traced timed phase.

    ``trace.coverage`` is the sum of every layer's self time over the
    timed phase's wall time as the client measured it.
    """
    from spans import layer_of

    names = tracer.names
    self_times = tracer.self_times()
    by_name: dict = {}
    by_layer: dict = {}
    counts: dict = {}
    for name, own in zip(names, self_times):
        by_name[name] = by_name.get(name, 0.0) + own
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        counts[name] = counts.get(name, 0) + 1
    c, m = tracer.counters, tracer.maxima

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rounds = sum(
        1 for sid, name in enumerate(names)
        if name == "engine.run_until"
        and tracer.parents[sid] >= 0
        and names[tracer.parents[sid]] == "controller.run_adaptive"
    )
    ticks = counts.get("engine.step", 0)
    step_self = by_name.get("engine.step", 0.0)
    lookups = cache_hits + cache_misses
    return {
        "profiler.calls": counts.get("profiler.profile", 0),
        "profiler.self_s": by_layer.get("profiler", 0.0),
        "ds2.decisions": counts.get("ds2.decide", 0),
        "ds2.self_s": by_layer.get("ds2", 0.0),
        "ds2.changed_ratio": ratio(c["ds2.changed"], counts.get("ds2.decide", 0)),
        "caps.placements": counts.get("caps.place", 0),
        "caps.self_s": by_layer.get("caps", 0.0),
        "caps.autotune_s": sum(
            tracer.duration(sid) for sid, name in enumerate(names)
            if name == "caps.autotune"
        ),
        "caps.searches": counts.get("caps.search", 0),
        "caps.nodes": c["caps.nodes"],
        "caps.plans_per_node": ratio(c["caps.plans"], c["caps.nodes"]),
        "caps.probe_max_ms": m["caps.probe_max_s"] * 1000.0,
        "caps.autotune_max_s": m["caps.autotune_max_s"],
        "caps.search_max_s": m["caps.search_max_s"],
        "caps.fallbacks": c["caps.fallbacks"],
        "plan_cache.lookups": lookups,
        "plan_cache.hit_ratio": ratio(cache_hits, lookups),
        "plan_cache.self_s": by_layer.get("plan_cache", 0.0),
        "engine.builds": counts.get("engine.build", 0),
        "engine.ticks": ticks,
        "engine.ticks_leapt": c["engine.ticks_leapt"],
        "engine.step_self_s": step_self,
        "engine.self_s": by_layer.get("engine", 0.0),
        "engine.us_per_tick": ratio(step_self, ticks) * 1e6,
        "metrics.job_series_calls": counts.get("metrics.job_series", 0),
        "metrics.job_series_s": by_name.get("metrics.job_series", 0.0),
        "metrics.summarize_s": by_name.get("metrics.summarize", 0.0),
        "controller.rounds": rounds,
        "controller.rescales": c["controller.rescales"],
        "controller.self_s": by_layer.get("controller", 0.0),
        "guards.validations": counts.get("guards.validate_rates", 0),
        "guards.rejections": c["guards.rejections"],
        "guards.safe_mode_entries": c["guards.safe_mode_entries"],
        "faults.injected": c["faults.injected"],
        "diagnosis.flush_s": by_name.get("diagnosis.flush", 0.0),
        "diagnosis.report_s": by_name.get("diagnosis.build_report", 0.0),
        "runtime.records_in": c["runtime.records_in"],
        "runtime.records_out": c["runtime.records_out"],
        "runtime.self_s": by_layer.get("runtime", 0.0),
        "state.reads": c["state.reads"],
        "state.writes": c["state.writes"],
        "state.bytes_read": c["state.bytes_read"],
        "state.bytes_written": c["state.bytes_written"],
        "state.self_s": by_layer.get("state", 0.0),
        "operators.watermark_calls": counts.get("operators.on_watermark", 0),
        "operators.watermark_s": by_layer.get("operators", 0.0),
        "channels.blocked_puts": c["channels.blocked_puts"],
        "channels.peak_occupancy": m["channels.peak_occupancy"],
        "other.self_s": by_layer.get("other", 0.0),
        "trace.spans": len(names),
        "trace.coverage": ratio(sum(by_layer.values()), wall_s),
    }


if __name__ == "__main__":
    sys.exit(main())
