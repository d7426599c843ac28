"""Tests for the unified observability layer.

Covers the tracer (clock domains, per-domain sequencing, no-op cost
contract), the metric registry and its adopters (engine metrics, plan
cache, CAPS strategy, controller), the trace-file toolkit and CLI, and
the headline determinism guarantee: identically-seeded adaptive runs
produce byte-identical sim-domain trace streams, with windowed metrics
never bleeding across a rescale boundary.
"""

import json

import pytest

from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.controller.capsys import CAPSysController, ControllerConfig
from repro.observability import (
    MetricRegistry,
    NULL_TRACER,
    Tracer,
    encode_record,
)
from repro.observability.tracer import chrome_trace
from repro.observability.tracefile import (
    diff_streams,
    filter_records,
    read_jsonl,
    summarize,
)
from repro.observability.__main__ import main as obs_main
from repro.placement.caps import CapsStrategy
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.simulator.plan_cache import PlanEvaluationCache, simulate_cached
from repro.simulator.results import SimulationSummary
from repro.workloads.rates import SquareWaveRate

CLUSTER = Cluster.homogeneous(R5D_XLARGE.with_slots(8), count=6)
FAST = ControllerConfig(
    policy_interval_s=5.0,
    activation_time_s=60.0,
    rescale_downtime_s=5.0,
    profiling_duration_s=90.0,
)


def tiny_query():
    g = LogicalGraph("tiny")
    g.add_operator(OperatorSpec("src", is_source=True, cpu_per_record=1e-6), 1)
    g.add_operator(
        OperatorSpec("work", cpu_per_record=1e-3, out_record_bytes=100.0), 1
    )
    g.add_edge("src", "work", Partitioning.REBALANCE)
    return g


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_records_carry_run_clock_and_sequence(self):
        tr = Tracer(run_id="r1")
        tr.event("sim", "tick", 1.0, cat="engine")
        tr.span("sim", "window", 1.0, 2.0)
        tr.counter("sim", "job.q", 2.0, {"throughput": 10.0})
        [a, b, c] = tr.records
        assert [r["run"] for r in (a, b, c)] == ["r1"] * 3
        assert [r["seq"] for r in (a, b, c)] == [0, 1, 2]
        assert (a["ph"], b["ph"], c["ph"]) == ("i", "X", "C")
        assert b["dur"] == pytest.approx(1.0)
        assert c["args"] == {"throughput": 10.0}

    def test_sequence_numbers_are_per_clock_domain(self):
        tr = Tracer()
        tr.event("sim", "a", 0.0)
        with tr.wall_span("search"):
            pass
        tr.event("wall", "b", 0.0)
        tr.event("sim", "c", 1.0)
        sims = tr.stream("sim")
        walls = tr.stream("wall")
        assert [r["seq"] for r in sims] == [0, 1]
        assert [r["seq"] for r in walls] == [0, 1]

    def test_sim_stream_is_independent_of_wall_activity(self):
        def run(wall_noise):
            tr = Tracer(run_id="same")
            tr.event("sim", "start", 0.0)
            for _ in range(wall_noise):
                with tr.wall_span("noise"):
                    pass
            tr.counter("sim", "job.q", 1.0, {"x": 0.5})
            return tr.to_jsonl(clock="sim")

        assert run(0) == run(7)

    def test_unknown_clock_domain_is_rejected(self):
        tr = Tracer()
        with pytest.raises(KeyError):
            tr.event("cpu", "x", 0.0)

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        tr.event("sim", "a", 0.0)
        tr.counter("sim", "b", 0.0, {"x": 1})
        with tr.wall_span("c") as span:
            span.set(found=True)
        assert tr.records == []
        assert NULL_TRACER.records == []

    def test_wall_span_attaches_set_args(self):
        tr = Tracer()
        with tr.wall_span("search", cat="s", backend="thread") as span:
            span.set(nodes=42)
        [rec] = tr.records
        assert rec["clock"] == "wall"
        assert rec["args"] == {"backend": "thread", "nodes": 42}
        assert rec["dur"] >= 0.0

    def test_encode_record_is_canonical(self):
        a = encode_record({"b": 1, "a": 2.5})
        b = encode_record({"a": 2.5, "b": 1})
        assert a == b == '{"a":2.5,"b":1}'


class TestChromeExport:
    def test_domains_map_to_named_threads(self):
        tr = Tracer(run_id="r")
        tr.event("sim", "tick", 1.5)
        tr.span("wall", "search", 0.0, 0.25)
        doc = tr.to_chrome()
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        tick = next(e for e in events if e["name"] == "tick")
        assert tick["tid"] == 1 and tick["ts"] == pytest.approx(1.5e6)
        span = next(e for e in events if e["name"] == "search")
        assert span["tid"] == 2 and span["dur"] == pytest.approx(0.25e6)

    def test_chrome_trace_function_accepts_raw_records(self):
        doc = chrome_trace(
            [{"ph": "i", "name": "x", "cat": "", "clock": "sim", "t": 0.0}]
        )
        assert any(e["name"] == "x" for e in doc["traceEvents"])


# ----------------------------------------------------------------------
# Metric registry
# ----------------------------------------------------------------------
class TestMetricRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        reg.histogram("h", buckets=(1.0, 10.0)).observe(5.0)
        snap = {m["name"]: m for m in reg.snapshot()["metrics"]}
        assert snap["c"]["value"] == 3
        assert snap["g"]["value"] == 1.5
        assert snap["h"]["value"]["count"] == 2
        assert [b["count"] for b in snap["h"]["value"]["buckets"]] == [1, 2]

    def test_counters_reject_negative_increments(self):
        with pytest.raises(ValueError):
            MetricRegistry().counter("c").inc(-1)

    def test_labels_create_distinct_series(self):
        reg = MetricRegistry()
        reg.counter("pruned", labels={"dim": "cpu"}).inc()
        reg.counter("pruned", labels={"dim": "net"}).inc(3)
        series = {
            tuple(sorted(m["labels"].items())): m["value"]
            for m in reg.snapshot()["metrics"]
        }
        assert series[(("dim", "cpu"),)] == 1
        assert series[(("dim", "net"),)] == 3

    def test_kind_mismatch_raises(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_prometheus_exposition_format(self):
        reg = MetricRegistry()
        reg.counter("jobs_total", help="Jobs seen.").inc(2)
        reg.gauge("depth", labels={"op": "join"}).set(4)
        text = reg.to_prometheus()
        assert "# HELP jobs_total Jobs seen." in text
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 2" in text
        assert 'depth{op="join"} 4' in text

    def test_json_round_trip(self, tmp_path):
        reg = MetricRegistry()
        reg.counter("c").inc()
        path = tmp_path / "metrics.json"
        reg.write_json(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["metrics"][0]["name"] == "c"


# ----------------------------------------------------------------------
# Plan-evaluation cache stats (satellite: hit/miss/eviction exposure)
# ----------------------------------------------------------------------
def _summary():
    return SimulationSummary(jobs={}, duration_s=1.0, warmup_s=0.0)


class TestPlanCacheStats:
    def test_stats_snapshot_tracks_hits_misses_evictions(self):
        cache = PlanEvaluationCache(capacity=2)
        cache.lookup("a")
        cache.store("a", _summary())
        cache.lookup("a")
        cache.store("b", _summary())
        cache.store("c", _summary())  # evicts "a" (LRU after the hit moved it? no: hit moved a to end; b is oldest)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        assert stats["capacity"] == 2

    def test_registry_binding_carries_prior_counts(self):
        cache = PlanEvaluationCache(capacity=1)
        cache.lookup("a")
        cache.store("a", _summary())
        cache.store("b", _summary())  # eviction before binding
        reg = MetricRegistry()
        cache.bind_registry(reg)
        values = {
            m["name"]: m["value"] for m in reg.snapshot()["metrics"]
        }
        assert values["plan_cache_misses_total"] == 1
        assert values["plan_cache_evictions_total"] == 1
        assert values["plan_cache_entries"] == 1
        assert values["plan_cache_capacity"] == 1
        cache.lookup("b")  # hit, post-binding
        assert reg.counter("plan_cache_hits_total").value == 1

    def test_clear_resets_instance_counters_not_registry(self):
        reg = MetricRegistry()
        cache = PlanEvaluationCache(capacity=4, registry=reg)
        cache.lookup("a")
        cache.clear()
        assert cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0, "capacity": 4,
        }
        assert reg.counter("plan_cache_misses_total").value == 1
        assert reg.gauge("plan_cache_entries").value == 0

    def test_simulate_cached_traces_hit_and_miss(self):
        graph = tiny_query().with_parallelism({"src": 1, "work": 1})
        physical = PhysicalGraph.expand(graph)
        plan = next(iter([
            __import__("repro.core.plan", fromlist=["PlacementPlan"]).PlacementPlan(
                {t.uid: CLUSTER.workers[0].worker_id for t in physical.tasks}
            )
        ]))
        cache = PlanEvaluationCache()
        tr = Tracer(run_id="cache")
        for _ in range(2):
            simulate_cached(
                physical, CLUSTER, plan, {("tiny", "src"): 100.0},
                duration_s=10.0, warmup_s=0.0, cache=cache, tracer=tr,
            )
        spans = [r for r in tr.stream("wall") if r["name"] == "cache.evaluate"]
        assert [s["args"]["hit"] for s in spans] == [False, True]
        assert cache.stats()["hits"] == 1


# ----------------------------------------------------------------------
# Engine + collector adoption
# ----------------------------------------------------------------------
class TestEngineObservability:
    # These tests count per-tick records, so they run the tick-by-tick
    # reference unless a test passes its own config.
    def _sim(self, **kwargs):
        kwargs.setdefault("config", SimulationConfig(fast_forward=False))
        graph = tiny_query().with_parallelism({"src": 1, "work": 1})
        physical = PhysicalGraph.expand(graph)
        from repro.core.plan import PlacementPlan

        plan = PlacementPlan(
            {t.uid: CLUSTER.workers[0].worker_id for t in physical.tasks}
        )
        return FluidSimulation(
            physical, CLUSTER, plan, {("tiny", "src"): 100.0}, **kwargs
        )

    def test_tracer_emits_one_sim_counter_per_job_per_tick(self):
        tr = Tracer(run_id="engine")
        sim = self._sim(tracer=tr)
        sim.run(5.0)
        recs = tr.stream("sim")
        assert len(recs) == 5
        assert {r["name"] for r in recs} == {"job.tiny"}
        assert [r["t"] for r in recs] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert set(recs[0]["args"]) == {
            "target_rate", "throughput", "backpressure",
            "queued_records", "latency_s",
        }

    def test_trace_time_offset_shifts_sim_timestamps(self):
        tr = Tracer()
        sim = self._sim(tracer=tr)
        sim.trace_time_offset_s = 100.0
        sim.run(2.0)
        assert [r["t"] for r in tr.stream("sim")] == [101.0, 102.0]

    def test_registry_mirrors_job_samples(self):
        reg = MetricRegistry()
        sim = self._sim(registry=reg)
        sim.run(3.0)
        assert reg.counter(
            "sim_job_ticks_total", labels={"job": "tiny"}
        ).value == 3
        assert reg.gauge(
            "sim_job_throughput_records_per_s", labels={"job": "tiny"}
        ).value > 0

    def test_untraced_engine_behaviour_is_unchanged(self):
        a = self._sim().run(20.0)
        b = self._sim(tracer=Tracer(), registry=MetricRegistry()).run(20.0)
        assert a.jobs["tiny"] == b.jobs["tiny"]


# ----------------------------------------------------------------------
# CAPS strategy spans and per-depth layer events
# ----------------------------------------------------------------------
class TestCapsStrategyObservability:
    def test_search_span_layer_events_and_registry(self):
        graph = tiny_query().with_parallelism({"src": 1, "work": 3})
        physical = PhysicalGraph.expand(graph)
        tr = Tracer(run_id="caps")
        reg = MetricRegistry()
        strategy = CapsStrategy(
            {("tiny", "src"): 2000.0}, tracer=tr, registry=reg
        )
        strategy.place(physical, CLUSTER)
        walls = tr.stream("wall")
        span = next(r for r in walls if r["name"] == "caps.search")
        assert span["args"]["nodes"] == strategy.last_search_stats.nodes
        assert span["args"]["jobs"] == 1
        layers = [r for r in walls if r["name"] == "caps.search.layer"]
        assert layers, "expected per-depth layer events"
        assert [l["args"]["depth"] for l in layers] == list(range(len(layers)))
        assert sum(l["args"]["tasks"] for l in layers) == len(physical.tasks)
        stats = strategy.last_search_stats
        assert [l["args"]["completions"] for l in layers] == list(
            stats.layer_completions
        )
        assert reg.counter("caps_search_runs_total").value == 1
        assert reg.counter("caps_search_nodes_total").value == stats.nodes

    def test_pool_layer_counters_match_sequential(self):
        graph = tiny_query().with_parallelism({"src": 1, "work": 4})
        physical = PhysicalGraph.expand(graph)
        results = {}
        for jobs in (1, 2):
            strategy = CapsStrategy({("tiny", "src"): 2000.0}, jobs=jobs)
            strategy.place(physical, CLUSTER)
            stats = strategy.last_search_stats
            results[jobs] = (
                stats.layer_completions, stats.layer_net_prunes, stats.nodes
            )
        assert results[1] == results[2]


# ----------------------------------------------------------------------
# Adaptive-run determinism and the rescale boundary
# ----------------------------------------------------------------------
class RecordingController(CAPSysController):
    """Captures every deployment the adaptive loop starts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.deployments = []

    def deploy(self, *args, **kwargs):
        deployment = super().deploy(*args, **kwargs)
        self.deployments.append(deployment)
        return deployment


def _adaptive(tracer=None, registry=None, cls=CAPSysController):
    graph = tiny_query()
    pattern = SquareWaveRate(high=6000.0, low=1500.0, period_s=120.0)
    ctl = cls(
        graph, CLUSTER, config=FAST, tracer=tracer, registry=registry
    )
    result = ctl.run_adaptive(
        {"src": pattern},
        duration_s=260.0,
        initial_parallelism={"src": 1, "work": 1},
    )
    return ctl, result


class TestAdaptiveRunTracing:
    def test_sim_stream_is_byte_identical_across_runs(self):
        streams = []
        for _ in range(2):
            tr = Tracer(run_id="fig9")
            _adaptive(tracer=tr)
            streams.append(tr.to_jsonl(clock="sim"))
        assert streams[0] == streams[1]
        assert streams[0]  # non-empty

    def test_timeline_contains_the_full_event_chain(self):
        tr = Tracer(run_id="fig9")
        reg = MetricRegistry()
        _ctl, result = _adaptive(tracer=tr, registry=reg)
        assert result.rescale_count() >= 1
        names = {r["name"] for r in tr.stream("sim")}
        assert {"controller.deploy", "ds2.decision",
                "controller.rescale", "controller.rescale.downtime"} <= names
        wall_names = {r["name"] for r in tr.stream("wall")}
        assert {"caps.autotune", "caps.search"} <= wall_names
        # sim timestamps are monotonically non-decreasing absolute times
        times = [r["t"] for r in tr.stream("sim")]
        assert times == sorted(times)
        assert reg.counter("controller_rescales_total").value == float(
            result.rescale_count()
        )
        assert reg.counter("controller_deploys_total").value >= 2

    def test_rescale_window_does_not_bleed_into_new_deployment(self):
        ctl, result = _adaptive(cls=RecordingController)
        assert result.rescale_count() >= 1
        assert len(ctl.deployments) >= 2
        old, new = ctl.deployments[0], ctl.deployments[-1]
        # fresh engine => fresh collector: its window holds only ticks
        # recorded after the restart, never pre-rescale samples
        old_uids = set(old.engine.metrics.task_uids)
        new_rates = new.engine.metrics.task_rates()
        assert set(new_rates) == {t.uid for t in new.physical.tasks}
        assert set(new_rates) != old_uids
        ticks_since_restart = new.engine._tick_index
        assert len(new.engine.metrics._task_window) <= min(
            ticks_since_restart, new.engine.metrics.window_ticks
        )

    def test_fresh_collector_has_no_rates_before_first_tick(self):
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST)
        dep = ctl.deploy({"src": 500.0}, parallelism={"src": 1, "work": 1})
        with pytest.raises(RuntimeError):
            dep.engine.metrics.task_rates()


# ----------------------------------------------------------------------
# Trace-file toolkit and CLI
# ----------------------------------------------------------------------
def _sample_tracer():
    tr = Tracer(run_id="t")
    tr.event("sim", "deploy", 0.0, cat="controller")
    tr.counter("sim", "job.q", 1.0, {"throughput": 5.0})
    tr.span("wall", "caps.search", 0.0, 0.5, cat="search")
    return tr


class TestTraceFileToolkit:
    def test_read_filter_summarize(self, tmp_path):
        tr = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        tr.write_jsonl(str(path))
        records = read_jsonl(str(path))
        assert len(records) == 3
        assert [r["name"] for r in filter_records(records, clock="sim")] == [
            "deploy", "job.q",
        ]
        assert [r["name"] for r in filter_records(records, name="search")] == [
            "caps.search",
        ]
        summary = summarize(records)
        assert summary["records"] == 3
        assert summary["runs"] == ["t"]
        assert summary["by_clock"] == {"sim": 2, "wall": 1}

    def test_read_rejects_bad_json_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_jsonl(str(path))

    def test_diff_streams_identical_and_divergent(self):
        a = _sample_tracer().records
        b = _sample_tracer().records
        assert diff_streams(a, a) is None
        b2 = [dict(r) for r in b]
        b2[1] = dict(b2[1], t=99.0)
        verdict = diff_streams(a, b2)
        assert verdict["index"] == 1
        longer = a + [dict(a[0], seq=99)]
        assert diff_streams(a, longer)["extra_side"] == "b"


class TestObservabilityCli:
    def test_summary_filter_diff_chrome(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _sample_tracer().write_jsonl(str(a))
        tr = _sample_tracer()
        tr.event("sim", "extra", 9.0)
        tr.write_jsonl(str(b))

        assert obs_main(["summary", str(a)]) == 0
        assert "records: 3" in capsys.readouterr().out

        assert obs_main(["summary", str(a), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["by_clock"]["sim"] == 2

        out = tmp_path / "sim.jsonl"
        assert obs_main(
            ["filter", str(a), "--clock", "sim", "-o", str(out)]
        ) == 0
        capsys.readouterr()
        assert len(read_jsonl(str(out))) == 2

        assert obs_main(["diff", str(a), str(a)]) == 0
        capsys.readouterr()
        assert obs_main(["diff", str(a), str(b), "--clock", "sim"]) == 1
        assert "diverge" in capsys.readouterr().out.lower()

        chrome = tmp_path / "trace.json"
        assert obs_main(["chrome", str(a), "-o", str(chrome)]) == 0
        doc = json.loads(chrome.read_text())
        assert any(e["name"] == "caps.search" for e in doc["traceEvents"])
