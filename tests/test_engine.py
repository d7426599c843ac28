"""Integration-level tests for the fluid simulation engine.

These assert the *behavioural* properties the experiments depend on:
steady-state throughput equals the target when resources suffice, queues
stay bounded, contention from co-location reduces throughput, GC spikes
dent compute-heavy pipelines, and the reported DS2 true rates respond to
contention the way the paper's mechanism requires.
"""

import numpy as np
import pytest

from repro.dataflow.cluster import Cluster, WorkerSpec
from repro.dataflow.graph import GcSpikeProfile, LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.core.plan import PlacementPlan
from repro.simulator.engine import FluidSimulation, SimulationConfig

SPEC = WorkerSpec(
    cpu_capacity=4.0, disk_bandwidth=2e8, network_bandwidth=1.25e9, slots=4
)


def pipeline(window_io=20_000.0, window_p=4, gc=None):
    g = LogicalGraph("job")
    g.add_operator(
        OperatorSpec("src", is_source=True, cpu_per_record=1e-6, out_record_bytes=100.0),
        parallelism=1,
    )
    g.add_operator(
        OperatorSpec(
            "win",
            cpu_per_record=2e-4,
            io_bytes_per_record=window_io,
            out_record_bytes=100.0,
            selectivity=0.1,
            gc_spike=gc,
        ),
        parallelism=window_p,
    )
    g.add_edge("src", "win", Partitioning.HASH)
    return g


def spread_plan(physical, workers):
    return PlacementPlan(
        {t.uid: i % workers for i, t in enumerate(physical.tasks)}
    )


def colocated_plan(physical, graph, operator):
    assignment = {}
    hot = 0
    cold = 1
    for t in physical.tasks:
        assignment[t.uid] = hot if t.operator == operator else cold
    return PlacementPlan(assignment)


def simulate(graph, plan, rate, cluster=None, duration=240, warmup=120, config=None,
             net_cap=None):
    physical = PhysicalGraph.expand(graph)
    cluster = cluster or Cluster.homogeneous(SPEC, count=2)
    sim = FluidSimulation(
        physical, cluster, plan, {("job", "src"): rate},
        config=config, network_cap_bytes_per_s=net_cap,
    )
    summary = sim.run(duration, warmup_s=warmup)
    return sim, summary.only


class TestSteadyState:
    def test_meets_target_with_headroom(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        sim, s = simulate(g, spread_plan(physical, 2), rate=2000.0)
        assert s.throughput == pytest.approx(2000.0, rel=0.02)
        assert s.backpressure < 0.02

    def test_queues_remain_bounded(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        sim, _ = simulate(g, spread_plan(physical, 2), rate=2000.0)
        assert np.all(sim.queue <= sim.queue_cap * 1.5 + 1.0)

    def test_overload_saturates_and_backpressures(self):
        g = pipeline(window_io=50_000.0, window_p=2)
        physical = PhysicalGraph.expand(g)
        # capacity ~ 2 tasks on one disk; drive far beyond it
        sim, s = simulate(g, spread_plan(physical, 2), rate=50_000.0)
        assert s.throughput < 50_000.0 * 0.9
        assert s.backpressure > 0.1

    def test_throughput_scales_linearly_below_capacity(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        _, s1 = simulate(g, spread_plan(physical, 2), rate=1000.0)
        _, s2 = simulate(g, spread_plan(physical, 2), rate=2000.0)
        assert s2.throughput / s1.throughput == pytest.approx(2.0, rel=0.05)

    def test_sink_consumes_everything(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        sim, s = simulate(g, spread_plan(physical, 2), rate=2000.0)
        rates = sim.metrics.task_rates()
        win_out = sum(
            rates[t.uid].observed_output_rate
            for t in physical.operator_tasks("job", "win")
        )
        # selectivity 0.1 on 2000 rec/s input
        assert win_out == pytest.approx(200.0, rel=0.05)


class TestContention:
    def test_colocating_io_tasks_hurts(self):
        g = pipeline(window_io=40_000.0, window_p=4)
        physical = PhysicalGraph.expand(g)
        rate = 9_000.0  # demand 360 MB/s vs 200 MB/s per disk
        _, balanced = simulate(g, spread_plan(physical, 2), rate=rate)
        _, piled = simulate(g, colocated_plan(physical, g, "win"), rate=rate)
        assert balanced.throughput > piled.throughput * 1.15
        assert piled.backpressure > balanced.backpressure

    def test_cpu_thread_stacking_hurts(self):
        g = LogicalGraph("job")
        g.add_operator(
            OperatorSpec("src", is_source=True, cpu_per_record=1e-6), parallelism=1
        )
        g.add_operator(
            OperatorSpec("inf", cpu_per_record=2e-3, out_record_bytes=100.0),
            parallelism=6,
        )
        g.add_edge("src", "inf", Partitioning.REBALANCE)
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(
            WorkerSpec(cpu_capacity=2.0, disk_bandwidth=2e8, network_bandwidth=1.25e9, slots=8),
            count=4,
        )
        rate = 2600.0
        spread = PlacementPlan(
            {t.uid: (t.index % 3) + 1 if t.operator == "inf" else 0 for t in physical.tasks}
        )
        piled = PlacementPlan(
            {t.uid: 1 if t.operator == "inf" else 0 for t in physical.tasks}
        )
        _, s_spread = simulate(g, spread, rate, cluster=cluster)
        _, s_piled = simulate(g, piled, rate, cluster=cluster)
        assert s_spread.throughput > s_piled.throughput * 1.3

    def test_network_cap_creates_contention(self):
        g = LogicalGraph("job")
        g.add_operator(
            OperatorSpec("src", is_source=True, out_record_bytes=50_000.0),
            parallelism=2,
        )
        g.add_operator(OperatorSpec("sink", cpu_per_record=1e-6), parallelism=2)
        g.add_edge("src", "sink", Partitioning.HASH)
        physical = PhysicalGraph.expand(g)
        # both sources on worker 0, sinks on worker 1: all traffic remote
        plan = PlacementPlan(
            {t.uid: 0 if t.operator == "src" else 1 for t in physical.tasks}
        )
        rate = 4000.0  # 2 x 2000 x 50 KB = 200 MB/s out of worker 0
        _, uncapped = simulate(g, plan, rate)
        _, capped = simulate(g, plan, rate, net_cap=1.25e8)
        assert uncapped.throughput == pytest.approx(rate, rel=0.02)
        assert capped.throughput < rate * 0.75


class TestGcSpikes:
    def test_gc_reduces_sustained_throughput(self):
        gc = GcSpikeProfile(period_s=30.0, duration_s=6.0, magnitude=2.0)
        g_with = pipeline(window_io=0.0, window_p=2, gc=gc)
        g_without = pipeline(window_io=0.0, window_p=2)
        # size rate so tasks run near 100% CPU-utilisation
        physical = PhysicalGraph.expand(g_with)
        rate = 9_000.0  # 2 tasks x 5000/s thread cap
        _, s_with = simulate(g_with, spread_plan(physical, 2), rate)
        _, s_without = simulate(g_without, spread_plan(physical, 2), rate)
        assert s_with.throughput < s_without.throughput * 0.98


class TestTrueRates:
    def test_true_rate_matches_uncontended_service_time(self):
        g = pipeline(window_io=20_000.0, window_p=4)
        physical = PhysicalGraph.expand(g)
        sim, _ = simulate(g, spread_plan(physical, 2), rate=1000.0)
        rates = sim.metrics.task_rates()
        win = physical.operator_tasks("job", "win")[0]
        expected = 1.0 / (2e-4 + 20_000.0 / 2e8)
        assert rates[win.uid].true_rate == pytest.approx(expected, rel=0.05)

    def test_contention_lowers_true_rate(self):
        """The DS2-placement interaction mechanism (paper section 6.4):
        contention inflates busy time, lowering the observed true rate."""
        g = pipeline(window_io=40_000.0, window_p=4)
        physical = PhysicalGraph.expand(g)
        rate = 9_000.0
        sim_b, _ = simulate(g, spread_plan(physical, 2), rate)
        sim_p, _ = simulate(g, colocated_plan(physical, g, "win"), rate)
        win = physical.operator_tasks("job", "win")[0]
        true_balanced = sim_b.metrics.task_rates()[win.uid].true_rate
        true_piled = sim_p.metrics.task_rates()[win.uid].true_rate
        assert true_piled < true_balanced * 0.8

    def test_busy_fraction_below_one_when_underloaded(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        sim, _ = simulate(g, spread_plan(physical, 2), rate=500.0)
        rates = sim.metrics.task_rates()
        for t in physical.operator_tasks("job", "win"):
            assert rates[t.uid].busy_fraction < 0.5


class TestDeterminismAndNoise:
    def test_runs_are_deterministic(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        _, s1 = simulate(g, spread_plan(physical, 2), rate=2000.0)
        _, s2 = simulate(g, spread_plan(physical, 2), rate=2000.0)
        assert s1.throughput == s2.throughput
        assert s1.backpressure == s2.backpressure

    def test_noise_perturbs_reported_rates_not_dynamics(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        cfg = SimulationConfig(noise_std=0.05, seed=1)
        sim_noisy, s_noisy = simulate(
            g, spread_plan(physical, 2), rate=2000.0, config=cfg
        )
        _, s_clean = simulate(g, spread_plan(physical, 2), rate=2000.0)
        # dynamics identical
        assert s_noisy.throughput == pytest.approx(s_clean.throughput, rel=1e-6)


class TestMultiJob:
    def test_two_jobs_isolated_metrics(self):
        def job(name):
            g = LogicalGraph(name)
            g.add_operator(
                OperatorSpec("src", is_source=True, cpu_per_record=1e-6), parallelism=1
            )
            g.add_operator(OperatorSpec("map", cpu_per_record=1e-4), parallelism=1)
            g.add_edge("src", "map", Partitioning.REBALANCE)
            return PhysicalGraph.expand(g)

        merged = PhysicalGraph.merge([job("a"), job("b")])
        cluster = Cluster.homogeneous(SPEC, count=1)
        plan = PlacementPlan({t.uid: 0 for t in merged.tasks})
        sim = FluidSimulation(
            merged, cluster, plan, {("a", "src"): 1000.0, ("b", "src"): 500.0}
        )
        summary = sim.run(120, warmup_s=60)
        assert summary.job("a").throughput == pytest.approx(1000.0, rel=0.02)
        assert summary.job("b").throughput == pytest.approx(500.0, rel=0.02)


class TestSourceRateKeys:
    def test_bare_name_resolution(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC, count=2)
        sim = FluidSimulation(
            physical, cluster, spread_plan(physical, 2), {"src": 100.0}
        )
        sim.step()

    def test_missing_rate_raises(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC, count=2)
        with pytest.raises(KeyError):
            FluidSimulation(physical, cluster, spread_plan(physical, 2), {})

    def test_unknown_source_raises(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC, count=2)
        with pytest.raises(KeyError):
            FluidSimulation(
                physical, cluster, spread_plan(physical, 2),
                {"src": 100.0, "ghost": 5.0},
            )

    def test_non_source_rate_rejected(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC, count=2)
        with pytest.raises(KeyError):
            FluidSimulation(
                physical, cluster, spread_plan(physical, 2),
                {"src": 100.0, ("job", "win"): 5.0},
            )


class TestRunDrivers:
    def test_run_until(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC, count=2)
        sim = FluidSimulation(physical, cluster, spread_plan(physical, 2), {"src": 100.0})
        sim.run_until(10.0)
        assert sim.time_s == pytest.approx(10.0)

    def test_run_rejects_nonpositive_duration(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC, count=2)
        sim = FluidSimulation(physical, cluster, spread_plan(physical, 2), {"src": 100.0})
        with pytest.raises(ValueError):
            sim.run(0.0)
        # an endless or undefined run is refused before any tick
        for duration in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="duration_s"):
                sim.run(duration)
        assert sim.time_s == 0.0

    @pytest.mark.parametrize("warmup", [10.0, 50.0, -1.0, float("nan")])
    def test_run_rejects_a_warmup_without_a_window(self, warmup):
        # at the end, past it, negative, not a number
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC, count=2)
        sim = FluidSimulation(physical, cluster, spread_plan(physical, 2), {"src": 100.0})
        with pytest.raises(ValueError, match="warmup_s"):
            sim.run(10.0, warmup_s=warmup)
        assert sim.time_s == 0.0  # rejected before running

    def test_warmup_is_measured_from_the_first_run(self):
        g = pipeline()
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC, count=2)
        sim = FluidSimulation(physical, cluster, spread_plan(physical, 2), {"src": 100.0})
        sim.run(10.0)
        # the second run ends at 20 s
        assert sim.run(10.0, warmup_s=15.0).only.duration_s == pytest.approx(5.0)
        with pytest.raises(ValueError, match="warmup_s"):
            sim.run(10.0, warmup_s=30.0)

    def test_worker_state_bytes_accumulate(self):
        g = LogicalGraph("job")
        g.add_operator(OperatorSpec("src", is_source=True), parallelism=1)
        g.add_operator(
            OperatorSpec("win", cpu_per_record=1e-5, state_bytes_per_record=100.0),
            parallelism=1,
        )
        g.add_edge("src", "win")
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC, count=1)
        plan = PlacementPlan({t.uid: 0 for t in physical.tasks})
        sim = FluidSimulation(physical, cluster, plan, {"src": 100.0})
        sim.run(60)
        # ~60s x 100 rec/s x 100 B (minus one tick of pipeline fill)
        assert sim.worker_state_bytes()[0] == pytest.approx(6e5, rel=0.05)
