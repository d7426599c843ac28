"""Tests for the root-cause diagnosis layer (DESIGN.md §10).

Covers the exact conservation invariants (blame decomposition rows and
provenance shares reproduce their totals under :func:`exact_sum`),
cross-checks of attributed backpressure-seconds against the engine's
own :class:`JobSummary` totals, bit-identity of the diagnosis
accumulators under fast-forward leaps, an end-to-end chaos scenario
where the injected disk straggler must rank #1, the fallback-stage
Prometheus exposition, gzip trace round-trips, and the ``top`` /
``diagnose`` CLI subcommands.
"""

import gzip
import json
import math

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.cost_model import CostVector
from repro.core.plan import PlacementPlan
from repro.dataflow.cluster import Cluster, WorkerSpec
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.diagnosis import (
    ContentionAttributor,
    build_report,
    decompose_deficit,
    exact_sum,
    format_report,
)
from repro.diagnosis.collector import DiagnosisCollector
from repro.diagnosis.explain import explain_placement
from repro.faults.injector import EngineFaultDriver
from repro.faults.schedule import ChaosSchedule
from repro.observability import MetricRegistry, Tracer, encode_record
from repro.observability.__main__ import main as obs_main
from repro.observability.tracefile import read_jsonl
from repro.placement.caps import CapsStrategy
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.workloads.rates import ConstantRate

SPEC = WorkerSpec(
    cpu_capacity=4.0, disk_bandwidth=2e8, network_bandwidth=1.25e9, slots=8
)


def pipeline(window_p=2):
    """src -> win, with win disk-*dominant*.

    The per-record cpu cost is negligible, so a win task's
    single-thread service limit (~10k rec/s) sits well above its fair
    disk share when two tasks pack onto one worker — the worker's disk
    is then genuinely contended rather than each task being
    service-limited.
    """
    g = LogicalGraph("job")
    g.add_operator(
        OperatorSpec("src", is_source=True, cpu_per_record=1e-6,
                     out_record_bytes=100.0),
        parallelism=1,
    )
    g.add_operator(
        OperatorSpec(
            "win",
            cpu_per_record=1e-6,
            io_bytes_per_record=20_000.0,
            out_record_bytes=100.0,
            selectivity=0.1,
            state_bytes_per_record=500.0,
        ),
        parallelism=window_p,
    )
    g.add_edge("src", "win", Partitioning.HASH)
    return g


def build_engine(graph, rate, placement=None, workers=2, fast_forward=False,
                 tracer=None):
    physical = PhysicalGraph.expand(graph)
    cluster = Cluster.homogeneous(SPEC, count=workers)
    if placement is None:
        placement = {
            t.uid: i % workers for i, t in enumerate(physical.tasks)
        }
    engine = FluidSimulation(
        physical,
        cluster,
        PlacementPlan(placement),
        {("job", "src"): ConstantRate(rate)},
        config=SimulationConfig(fast_forward=fast_forward),
        tracer=tracer,
    )
    return engine


# ----------------------------------------------------------------------
# Blame decomposition: exact conservation
# ----------------------------------------------------------------------
class TestDecomposeDeficit:
    def test_rows_sum_exactly_to_stall(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            k = int(rng.integers(1, 9))
            magnitude = 10.0 ** float(rng.integers(-3, 7))
            demand = rng.random(k) * magnitude + 1e-12
            extra = (
                float(rng.random() * magnitude)
                if rng.random() < 0.5
                else 0.0
            )
            raw = float(rng.random() * magnitude) + 1e-12
            eff = raw * float(rng.uniform(0.5, 1.0))
            stall = float(rng.random()) * 10.0 ** float(rng.integers(-6, 3))
            shares = decompose_deficit(demand, extra, raw, eff, stall)
            total = float(np.sum(demand)) + extra
            for row in shares:
                if total - eff > 0.0 and stall > 0.0:
                    assert exact_sum(row) == stall
                else:
                    assert not row.any()

    def test_uncontended_worker_gets_no_blame(self):
        shares = decompose_deficit(
            np.array([1.0, 2.0]), 0.0, 10.0, 10.0, stall_s=0.5
        )
        assert not shares.any()

    def test_sole_demander_blames_itself(self):
        shares = decompose_deficit(
            np.array([20.0]), 0.0, 10.0, 10.0, stall_s=0.5
        )
        # No penalty, no external demand: the whole stall is self-blame.
        assert shares[0, 0] == 0.5
        assert shares[0, 1] == 0.0 and shares[0, 2] == 0.0

    def test_overhead_column_carries_penalty_loss(self):
        # Effective capacity below raw: the concurrency penalty owns
        # (min(D, C) - C_eff) / (D - C_eff) of each stall.
        shares = decompose_deficit(
            np.array([8.0, 8.0]), 0.0, 10.0, 8.0, stall_s=1.0
        )
        k = 2
        # lost = 16 - 8 = 8, penalty part = min(16,10) - 8 = 2 -> 0.25
        assert shares[0, k] == pytest.approx(0.25)
        assert exact_sum(shares[0]) == 1.0
        # The rest is blamed on the other contender, not on self.
        assert shares[0, 0] == 0.0
        assert shares[0, 1] == pytest.approx(0.75)

    def test_external_demand_gets_its_own_column(self):
        shares = decompose_deficit(
            np.array([6.0, 6.0]), 12.0, 10.0, 10.0, stall_s=1.0
        )
        k = 2
        # Checkpoint upload outweighs the co-located contender 2:1.
        assert shares[0, k + 1] == pytest.approx(2.0 / 3.0)
        assert shares[0, 1] == pytest.approx(1.0 / 3.0)
        assert exact_sum(shares[0]) == 1.0


class TestAttributorConservation:
    def observe_once(self, attributor, demand, scale, capacity):
        n = len(demand)
        ones = np.ones(1)
        attributor.observe(
            1.0,
            np.asarray(demand, dtype=float),
            np.asarray(scale, dtype=float),
            np.asarray(capacity, dtype=float),
            np.asarray(capacity, dtype=float),
            np.zeros(n),
            ones,
            ones * 1e9,
            ones * 1e9,
            None,
            np.zeros(n),
            ones,
            ones * 1e9,
        )

    def test_single_tick_blame_rows_equal_deficit_exactly(self):
        # Three tasks on one worker, CPU twice oversubscribed.
        attr = ContentionAttributor(3, np.zeros(3, dtype=np.int64))
        self.observe_once(
            attr, demand=[3.0, 2.0, 1.0], scale=[0.5], capacity=[3.0]
        )
        for task in range(3):
            assert exact_sum(attr.blame_s["cpu"][task]) == attr.deficit_s[
                "cpu"
            ][task]
        # Proportional sharing stalls every demander by the same
        # (1 - scale) * dt.
        assert np.all(attr.deficit_s["cpu"] == 0.5)

    def test_engine_run_conserves_blame_totals(self):
        # Both win tasks packed on w1 so they contend for one disk.
        engine = build_engine(
            pipeline(), rate=25_000.0,
            placement={"job/src[0]": 0, "job/win[0]": 1, "job/win[1]": 1},
        )
        diag = engine.enable_diagnosis()
        engine.run(120.0)
        disk_deficit = diag.attribution.deficit_s["disk"]
        assert np.any(disk_deficit > 0.0)
        # Per-tick conservation is exact; the accumulated cross-check
        # tolerates only the rounding of the running sums themselves.
        for resource in ("cpu", "disk", "network"):
            blame = diag.attribution.blame_s[resource]
            deficit = diag.attribution.deficit_s[resource]
            for task in range(blame.shape[0]):
                assert exact_sum(blame[task]) == pytest.approx(
                    deficit[task], rel=1e-9, abs=1e-12
                )
        # The cached per-tick increment is exact, bit-for-bit.
        for resource, rows in diag.attribution._inc_rows.items():
            for pos in range(len(rows)):
                assert (
                    exact_sum(diag.attribution._inc_blame[resource][pos])
                    == diag.attribution._inc_deficit[resource][pos]
                )

    def test_co_located_tasks_blame_each_other(self):
        engine = build_engine(
            pipeline(), rate=25_000.0,
            placement={"job/src[0]": 0, "job/win[0]": 1, "job/win[1]": 1},
        )
        diag = engine.enable_diagnosis()
        engine.run(120.0)
        uids = [t.uid for t in engine.physical.tasks]
        w0, w1 = uids.index("job/win[0]"), uids.index("job/win[1]")
        blame = diag.attribution.blame_s["disk"]
        assert blame[w0, w1] > 0.0
        assert blame[w1, w0] > 0.0
        # Equal demands, no checkpoint stream: no self-blame.
        assert blame[w0, w0] == 0.0


# ----------------------------------------------------------------------
# Backpressure provenance
# ----------------------------------------------------------------------
class TestProvenance:
    def contended_engine(self, **kwargs):
        return build_engine(
            pipeline(), rate=30_000.0,
            placement={"job/src[0]": 0, "job/win[0]": 1, "job/win[1]": 1},
            **kwargs,
        )

    def test_last_tick_shares_sum_exactly(self):
        engine = self.contended_engine()
        diag = engine.enable_diagnosis()
        engine.run(60.0)
        sample = engine.metrics.job_series("job")[-1]
        assert sample.backpressure > 0.0
        # The cached increment belongs to the last recomputed tick and
        # its shares are pinned to the tick's backpressure-seconds
        # exactly (dt = 1 s).
        inc_total = math.fsum(
            share for _key, share in diag.provenance._inc_items
        )
        assert inc_total == sample.backpressure * 1.0

    def test_attributed_seconds_match_job_summary(self):
        engine = self.contended_engine()
        diag = engine.enable_diagnosis()
        summary = engine.run(300.0).jobs["job"]
        diag.flush(None)
        attributed = math.fsum(diag.provenance.bp_s.values())
        assert attributed > 0.0
        assert attributed == pytest.approx(
            summary.backpressure * summary.duration_s, rel=1e-9
        )

    def test_origin_is_the_contended_disk(self):
        engine = self.contended_engine()
        diag = engine.enable_diagnosis()
        engine.run(120.0)
        diag.flush(None)
        uids = [t.uid for t in engine.physical.tasks]
        for (job, task, resource), seconds in diag.provenance.bp_s.items():
            assert job == "job"
            assert uids[task].startswith("job/win")
            assert resource == "disk"
            assert seconds > 0.0

    def test_spans_are_closed_and_ordered(self):
        engine = self.contended_engine()
        diag = engine.enable_diagnosis()
        engine.run(120.0)
        diag.flush(None)
        assert diag.provenance.spans
        for _job, (task, resource), start, end in diag.provenance.spans:
            assert end > start
            assert resource == "disk"


# ----------------------------------------------------------------------
# Fast-forward bit-identity
# ----------------------------------------------------------------------
class TestFastForwardBitIdentity:
    def run_pair(self, duration=300.0):
        engines = []
        for fast in (False, True):
            engine = build_engine(
                pipeline(), rate=30_000.0,
                placement={"job/src[0]": 0, "job/win[0]": 1, "job/win[1]": 1},
                fast_forward=fast,
            )
            engine.enable_diagnosis()
            engine.run(duration)
            engines.append(engine)
        return engines

    def test_blame_counters_are_bit_identical(self):
        ref, fast = self.run_pair()
        assert fast.leaps > 0  # the leap path actually exercised
        r, f = ref.diagnosis.attribution, fast.diagnosis.attribution
        assert r.ticks_observed == f.ticks_observed
        for resource in ("cpu", "disk", "network"):
            assert np.array_equal(r.blame_s[resource], f.blame_s[resource])
            assert np.array_equal(r.deficit_s[resource], f.deficit_s[resource])

    def test_provenance_is_bit_identical(self):
        ref, fast = self.run_pair()
        r, f = ref.diagnosis.provenance, fast.diagnosis.provenance
        assert r.bp_s == f.bp_s
        assert r.ticks_observed == f.ticks_observed

    def test_flushed_trace_records_are_byte_identical(self):
        ref, fast = self.run_pair()
        streams = []
        for engine in (ref, fast):
            tracer = Tracer(run_id="diag")
            engine.diagnosis.flush(tracer)
            streams.append(
                "\n".join(encode_record(r) for r in tracer.records)
            )
        assert streams[0] == streams[1]


# ----------------------------------------------------------------------
# The collector's input signature only skips recomputation
# ----------------------------------------------------------------------
class TestCollectorSignature:
    """A tick whose signature matches the last observed tick's repeats
    the components' increments; observing it afresh must give the same
    bits."""

    def diagnosed_run(self, fast_forward, force_miss):
        # w3, which hosts win[2] and win[3], has its disk degraded at
        # 60 s; w1, which hosts win[1], dies at 200 s
        engine = build_engine(
            pipeline(window_p=4), rate=30_000.0,
            placement={
                "job/src[0]": 0,
                "job/win[0]": 0,
                "job/win[1]": 1,
                "job/win[2]": 3,
                "job/win[3]": 3,
            },
            workers=4,
            fast_forward=fast_forward,
        )
        chaos = ChaosSchedule.parse("disk:w3@60x0.25,crash:w1@200")
        engine.set_fault_driver(EngineFaultDriver(chaos, engine.cluster))
        diag = engine.enable_diagnosis()
        counts = {"ticks": 0, "recomputes": 0}
        observe_tick = diag.observe_tick
        attribute = diag.attribution.observe

        def observe(*args):
            counts["ticks"] += 1
            if force_miss:
                diag._sig = None
            observe_tick(*args)

        def attribution_observe(*args):
            counts["recomputes"] += 1
            attribute(*args)

        diag.observe_tick = observe
        diag.attribution.observe = attribution_observe
        engine.run(360.0)
        diag.flush(None)
        return diag, counts

    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_forced_misses_give_identical_bits(self, fast_forward):
        cached, counts = self.diagnosed_run(fast_forward, force_miss=False)
        fresh, fresh_counts = self.diagnosed_run(fast_forward, force_miss=True)
        # the cached run reused increments; the forced run never did
        ticks = counts["ticks"]
        assert counts["recomputes"] < ticks
        assert fresh_counts == {"ticks": ticks, "recomputes": ticks}
        for resource in ("cpu", "disk", "network"):
            assert (
                cached.attribution.blame_s[resource].tobytes()
                == fresh.attribution.blame_s[resource].tobytes()
            )
            assert (
                cached.attribution.deficit_s[resource].tobytes()
                == fresh.attribution.deficit_s[resource].tobytes()
            )
        assert repr(sorted(cached.provenance.bp_s.items())) == repr(
            sorted(fresh.provenance.bp_s.items())
        )
        assert cached.provenance.spans == fresh.provenance.spans
        # both faults left their mark
        origins = {resource for _, _, resource in cached.provenance.bp_s}
        assert {"crash", "disk"} <= origins
        assert cached.attribution.deficit_s["disk"].any()


# ----------------------------------------------------------------------
# End-to-end chaos: injected straggler must rank #1
# ----------------------------------------------------------------------
class TestChaosRootCause:
    def chaos_engine(self, fast_forward=False, tracer=None):
        # One disk-heavy join task per worker; the schedule degrades
        # w3's disk to 25% at t=60 s, making it the designed straggler.
        graph = pipeline(window_p=4)
        engine = build_engine(
            graph, rate=30_000.0,
            placement={
                "job/src[0]": 0,
                "job/win[0]": 0,
                "job/win[1]": 1,
                "job/win[2]": 2,
                "job/win[3]": 3,
            },
            workers=4,
            fast_forward=fast_forward,
            tracer=tracer,
        )
        chaos = ChaosSchedule.parse("disk:w3@60x0.25")
        engine.set_fault_driver(EngineFaultDriver(chaos, engine.cluster))
        return engine

    def report_for(self, fast_forward=False):
        engine = self.chaos_engine(fast_forward=fast_forward)
        diag = engine.enable_diagnosis()
        engine.run(360.0)
        tracer = Tracer(run_id="chaos")
        diag.flush(tracer)
        return build_report(tracer.records)

    def test_injected_disk_straggler_ranks_first(self):
        report = self.report_for()
        top = report["root_causes"][0]
        assert top["label"] == "disk:w3"
        assert top["resource"] == "disk" and top["worker"] == 3
        assert top["share"] >= 0.5
        assert top["tasks"][0]["task"] == "job/win[3]"

    def test_report_is_identical_with_fast_forward(self):
        ref = self.report_for(fast_forward=False)
        fast = self.report_for(fast_forward=True)
        assert json.dumps(ref, sort_keys=True) == json.dumps(
            fast, sort_keys=True
        )

    def test_text_report_names_the_straggler(self):
        report = self.report_for()
        text = format_report(report)
        assert "Root-cause diagnosis" in text
        assert "disk:w3" in text


# ----------------------------------------------------------------------
# Placement explanations
# ----------------------------------------------------------------------
class TestExplanations:
    def test_explain_placement_computes_margins(self):
        expl = explain_placement(
            "search",
            weights={"cpu": 1.0, "io": 1.0, "net": 1.0},
            cost=CostVector(cpu=0.2, io=0.3, net=0.1),
            thresholds=CostVector(cpu=0.5, io=0.5, net=0.5),
            plans_explored=7,
            reason="test",
        )
        assert expl.trigger == "standalone"
        assert expl.margins["cpu"] == pytest.approx(0.3)
        args = expl.to_args()
        assert args["chosen"] == "search"
        assert args["plans_explored"] == 7
        assert args["margin_io"] == pytest.approx(0.2)

    def test_report_collects_explanations_in_order(self):
        tracer = Tracer(run_id="r")
        for trigger in ("initial", "ds2", "fault:disk:w3"):
            expl = explain_placement(
                "search", weights={"cpu": 1.0, "io": 1.0, "net": 1.0}
            ).with_trigger(trigger)
            tracer.event(
                "wall", "diagnosis.explanation", 0.0, cat="diagnosis",
                args=expl.to_args(),
            )
        report = build_report(tracer.records)
        assert [e["trigger"] for e in report["explanations"]] == [
            "initial", "ds2", "fault:disk:w3",
        ]


# ----------------------------------------------------------------------
# Fallback-stage counter exposition
# ----------------------------------------------------------------------
class TestFallbackExposition:
    def test_fallback_counter_exposed_with_stage_label(self):
        registry = MetricRegistry()
        strategy = CapsStrategy(
            {("job", "src"): 2000.0},
            thresholds=CostVector(cpu=1e-12, io=1e-12, net=1e-12),
            registry=registry,
        )
        physical = PhysicalGraph.expand(
            pipeline().with_parallelism({"src": 1, "win": 2})
        )
        cluster = Cluster.homogeneous(SPEC, count=2)
        plan = strategy.place(physical, cluster)
        assert plan is not None
        assert strategy.last_fallback == "greedy"
        text = registry.to_prometheus()
        assert "# TYPE caps_placement_fallback_total counter" in text
        assert 'caps_placement_fallback_total{stage="greedy"} 1' in text
        # The explanation records the same stage.
        assert strategy.last_explanation.fallback_stage == "greedy"


# ----------------------------------------------------------------------
# Gzip trace round-trip
# ----------------------------------------------------------------------
class TestGzipTraces:
    def traced(self):
        tracer = Tracer(run_id="gz")
        tracer.event("sim", "tick", 1.0, cat="engine", args={"n": 1})
        tracer.span("sim", "window", 1.0, 2.0, cat="engine")
        tracer.counter("sim", "job.q", 2.0, {"throughput": 10.0})
        return tracer

    def test_write_read_round_trip(self, tmp_path):
        tracer = self.traced()
        path = tmp_path / "trace.jsonl.gz"
        tracer.write_jsonl(str(path))
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            assert fh.read() == tracer.to_jsonl()
        assert read_jsonl(str(path)) == tracer.records

    def test_gzip_bytes_are_deterministic(self, tmp_path):
        tracer = self.traced()
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        tracer.write_jsonl(str(a))
        tracer.write_jsonl(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_cli_reads_gzip_transparently(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl.gz"
        self.traced().write_jsonl(str(path))
        assert obs_main(["summary", str(path)]) == 0
        assert "records" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CLI: top and diagnose subcommands
# ----------------------------------------------------------------------
class TestObservabilityCli:
    def chaos_trace(self, tmp_path, name="chaos.jsonl.gz"):
        graph = pipeline(window_p=4)
        engine = build_engine(
            graph, rate=30_000.0,
            placement={
                "job/src[0]": 0,
                "job/win[0]": 0,
                "job/win[1]": 1,
                "job/win[2]": 2,
                "job/win[3]": 3,
            },
            workers=4,
        )
        chaos = ChaosSchedule.parse("disk:w3@60x0.25")
        engine.set_fault_driver(EngineFaultDriver(chaos, engine.cluster))
        tracer = Tracer(run_id="chaos")
        diag = engine.enable_diagnosis()
        engine.run(240.0)
        diag.flush(tracer)
        path = tmp_path / name
        tracer.write_jsonl(str(path))
        return path

    def test_top_by_count_and_duration(self, tmp_path, capsys):
        path = self.chaos_trace(tmp_path)
        assert obs_main(["top", str(path), "--by", "count"]) == 0
        out = capsys.readouterr().out
        assert "diagnosis.provenance" in out
        assert obs_main(["top", str(path), "--by", "dur", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "diagnosis.bottleneck" in out
        assert len(out.strip().splitlines()) <= 4  # header + limit

    def test_diagnose_text_ranks_straggler(self, tmp_path, capsys):
        path = self.chaos_trace(tmp_path)
        assert obs_main(["diagnose", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Root-cause diagnosis" in out
        assert "disk:w3" in out

    def test_diagnose_json_matches_build_report(self, tmp_path, capsys):
        path = self.chaos_trace(tmp_path)
        assert obs_main(["diagnose", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == build_report(read_jsonl(str(path)))
        assert report["root_causes"][0]["label"] == "disk:w3"

    def test_place_cli_diagnose_flag(self, capsys):
        code = cli_main(
            [
                "place", "Q1-sliding",
                "--instance", "r5d", "--workers", "4", "--slots", "4",
                "--rate", "10000", "--duration", "240", "--diagnose",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Root-cause diagnosis" in out
        assert "Placement decisions" in out
        assert "trigger=initial" in out
