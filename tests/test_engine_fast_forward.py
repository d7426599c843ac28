"""Equivalence tests for the engine's steady-state fast-forward mode.

Fast-forward (DESIGN.md §9) is an execution strategy with an *exact*
equivalence contract: a run with ``SimulationConfig(fast_forward=True)``
must produce bit-identical summaries, metrics, and final engine state to
the tick-by-tick reference, for any workload — including rate
breakpoints, GC spikes, chaos schedules, and checkpoints. These tests
enforce the contract property-based (random topologies x rate patterns x
chaos x checkpoints) and pin leap counts on a known workload so horizon
regressions surface as count changes, not just slowdowns.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.cluster import Cluster, WorkerSpec
from repro.dataflow.graph import GcSpikeProfile, LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.core.plan import PlacementPlan
from repro.faults.checkpoint import CheckpointConfig
from repro.faults.injector import EngineFaultDriver
from repro.faults.schedule import ChaosSchedule
from repro.observability import MetricRegistry, Tracer
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.workloads.rates import (
    ConstantRate,
    RampRate,
    SineRate,
    SquareWaveRate,
    StepSchedule,
    TimeShiftedRate,
)

SPEC = WorkerSpec(
    cpu_capacity=4.0, disk_bandwidth=2e8, network_bandwidth=1.25e9, slots=8
)


def pipeline(gc=None, window_p=2):
    g = LogicalGraph("job")
    g.add_operator(
        OperatorSpec("src", is_source=True, cpu_per_record=1e-6,
                     out_record_bytes=100.0),
        parallelism=1,
    )
    g.add_operator(
        OperatorSpec(
            "win",
            cpu_per_record=2e-4,
            io_bytes_per_record=20_000.0,
            out_record_bytes=100.0,
            selectivity=0.1,
            state_bytes_per_record=500.0,
            gc_spike=gc,
        ),
        parallelism=window_p,
    )
    g.add_edge("src", "win", Partitioning.HASH)
    return g


def build_pair(graph, rate_pattern, config_kwargs=None, chaos=None,
               checkpoint=None, cluster=None, registry_for_fast=None,
               tracer_for_fast=None):
    """A (reference, fast-forward) engine pair on identical inputs."""
    physical = PhysicalGraph.expand(graph)
    cluster = cluster or Cluster.homogeneous(SPEC, count=2)
    plan = PlacementPlan(
        {t.uid: i % len(cluster.workers) for i, t in enumerate(physical.tasks)}
    )
    kwargs = dict(config_kwargs or {})
    engines = []
    for fast in (False, True):
        cfg = SimulationConfig(fast_forward=fast, **kwargs)
        sim = FluidSimulation(
            physical, cluster, plan, {("job", "src"): rate_pattern},
            config=cfg,
            registry=registry_for_fast if fast else None,
            tracer=tracer_for_fast if fast else None,
        )
        if chaos is not None:
            sim.set_fault_driver(EngineFaultDriver(chaos, cluster))
        if checkpoint is not None:
            sim.enable_checkpoints(checkpoint)
        engines.append(sim)
    return engines


def assert_equivalent(ref, fast, warmup_s=0.0):
    """Bitwise equality of summaries, metrics, and final engine state."""
    s_ref = ref.metrics.summarize(warmup_s=warmup_s)
    s_fast = fast.metrics.summarize(warmup_s=warmup_s)
    assert s_ref == s_fast
    assert repr(s_ref) == repr(s_fast)
    assert ref.time_s == fast.time_s
    assert ref._tick_index == fast._tick_index
    assert np.array_equal(ref.queue, fast.queue)
    assert np.array_equal(ref.state_bytes, fast.state_bytes)
    assert np.array_equal(ref._last_proc, fast._last_proc)
    assert np.array_equal(ref.durable_state_bytes(), fast.durable_state_bytes())
    assert ref.checkpoints_taken == fast.checkpoints_taken
    assert ref.last_checkpoint_s == fast.last_checkpoint_s
    assert ref.metrics.task_rates() == fast.metrics.task_rates()
    assert np.array_equal(
        ref.metrics.worker_cpu_utilisation(warmup_s),
        fast.metrics.worker_cpu_utilisation(warmup_s),
    )
    assert ref.metrics.job_series("job") == fast.metrics.job_series("job")


@st.composite
def scenarios(draw):
    rate = draw(st.sampled_from([500.0, 2000.0, 8000.0]))
    pattern = draw(
        st.sampled_from(
            [
                ConstantRate(rate),
                StepSchedule.doubling_then_halving(rate, interval_s=40.0, repeats=1),
                SquareWaveRate(rate, rate * 0.3, period_s=35.0),
                TimeShiftedRate(SquareWaveRate(rate, rate * 0.3, 35.0), 17.0),
            ]
        )
    )
    gc = draw(
        st.sampled_from(
            [None, GcSpikeProfile(period_s=30.0, duration_s=4.0, magnitude=3.0)]
        )
    )
    chaos = draw(
        st.sampled_from(
            [
                None,
                ChaosSchedule.parse("cpu:w1@40x0.5,recover:w1@90"),
                ChaosSchedule.parse("disk:w0@25x0.3,net:w1@60x0.6"),
            ]
        )
    )
    checkpoint = draw(
        st.sampled_from([None, CheckpointConfig(enabled=True, interval_s=20.0)])
    )
    window_p = draw(st.integers(min_value=1, max_value=3))
    duration = draw(st.sampled_from([90.0, 150.0]))
    return pattern, gc, chaos, checkpoint, window_p, duration


class TestEquivalenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(scenarios())
    def test_fast_forward_is_bit_identical(self, scenario):
        pattern, gc, chaos, checkpoint, window_p, duration = scenario
        ref, fast = build_pair(
            pipeline(gc=gc, window_p=window_p), pattern,
            chaos=chaos, checkpoint=checkpoint,
        )
        ref.run(duration, warmup_s=duration * 0.4)
        fast.run(duration, warmup_s=duration * 0.4)
        assert_equivalent(ref, fast, warmup_s=duration * 0.4)

    @settings(max_examples=10, deadline=None)
    @given(scenarios(), st.sampled_from([7.0, 13.0, 31.0]))
    def test_equivalence_across_run_until_boundaries(self, scenario, stride):
        # The controller drives engines with run_until between poll
        # boundaries; leaps must respect arbitrary caller bounds.
        pattern, gc, chaos, checkpoint, window_p, _ = scenario
        ref, fast = build_pair(
            pipeline(gc=gc, window_p=window_p), pattern,
            chaos=chaos, checkpoint=checkpoint,
        )
        for sim in (ref, fast):
            horizon = 0.0
            while horizon < 120.0:
                horizon += stride
                sim.run_until(horizon)
        assert_equivalent(ref, fast)


class TestLeapMechanics:
    def test_leap_counts_pinned_on_steady_workload(self):
        # Constant rate, no faults: the engine converges after a short
        # transient and takes exactly one leap to the run bound.
        ref, fast = build_pair(pipeline(), ConstantRate(2000.0))
        ref.run(600.0, warmup_s=240.0)
        fast.run(600.0, warmup_s=240.0)
        assert_equivalent(ref, fast, warmup_s=240.0)
        assert fast.leaps == 1
        assert fast.ticks_leapt == 597
        assert ref.leaps == 0 and ref.ticks_leapt == 0

    def test_square_wave_leaps_between_breakpoints(self):
        ref, fast = build_pair(pipeline(), SquareWaveRate(2000.0, 700.0, 50.0))
        ref.run(300.0, warmup_s=100.0)
        fast.run(300.0, warmup_s=100.0)
        assert_equivalent(ref, fast, warmup_s=100.0)
        # One leap per converged half-period; never across a breakpoint.
        assert fast.leaps == 6
        assert fast.ticks_leapt == 282

    def test_noise_auto_disables_fast_forward(self):
        _, fast = build_pair(
            pipeline(), ConstantRate(2000.0), config_kwargs={"noise_std": 0.05}
        )
        fast.run(120.0)
        assert not fast._ff_enabled
        assert fast.leaps == 0 and fast.ticks_leapt == 0

    def test_sine_pattern_never_leaps(self):
        # SineRate cannot enumerate breakpoints -> conservative fallback
        # re-evaluates every tick and convergence never lasts.
        ref, fast = build_pair(pipeline(), SineRate(2000.0, 500.0, 60.0))
        ref.run(120.0)
        fast.run(120.0)
        assert_equivalent(ref, fast)
        assert fast.ticks_leapt == 0

    def test_ramp_leaps_only_after_plateau(self):
        ref, fast = build_pair(pipeline(), RampRate(500.0, 2000.0, 60.0))
        ref.run(240.0, warmup_s=100.0)
        fast.run(240.0, warmup_s=100.0)
        assert_equivalent(ref, fast, warmup_s=100.0)
        assert fast.leaps == 1
        # Converges shortly after the ramp plateaus at t=60.
        assert fast.ticks_leapt == 177

    def test_registry_counters_and_tick_mirror(self):
        registry = MetricRegistry()
        mirrored = FluidSimulation(
            PhysicalGraph.expand(pipeline()),
            Cluster.homogeneous(SPEC, count=2),
            PlacementPlan(
                {t.uid: i % 2
                 for i, t in enumerate(PhysicalGraph.expand(pipeline()).tasks)}
            ),
            {("job", "src"): 2000.0},
            config=SimulationConfig(fast_forward=True),
            registry=registry,
        )
        mirrored.run(200.0)
        snap = {m["name"]: m for m in registry.snapshot()["metrics"]}
        assert snap["engine_leaps_total"]["value"] == mirrored.leaps
        assert snap["engine_ticks_skipped_total"]["value"] == mirrored.ticks_leapt
        # The per-job tick counter advances through leaps as if every
        # tick had executed.
        assert snap["sim_job_ticks_total"]["value"] == 200
        assert snap["sim_job_latency_seconds"]["value"]["count"] == 200

    def test_leap_event_in_chrome_trace(self, tmp_path):
        import json

        tracer = Tracer(run_id="ff-test")
        _, fast = build_pair(
            pipeline(), ConstantRate(2000.0), tracer_for_fast=tracer
        )
        fast.run(120.0)
        leaps = [r for r in tracer.stream("sim") if r.get("name") == "engine.leap"]
        assert len(leaps) == fast.leaps == 1
        assert leaps[0]["args"]["ticks"] == fast.ticks_leapt
        out = tmp_path / "trace.json"
        tracer.write_chrome(str(out))
        chrome = json.loads(out.read_text())
        events = chrome["traceEvents"] if isinstance(chrome, dict) else chrome
        assert any(e.get("name") == "engine.leap" for e in events)


class TestClockExactness:
    # Each test runs the tick-by-tick reference, where every tick goes
    # through step(), and then the default, where leaps stamp the clock.
    @staticmethod
    def _sim(fast_forward):
        physical = PhysicalGraph.expand(pipeline())
        cluster = Cluster.homogeneous(SPEC, count=2)
        plan = PlacementPlan(
            {t.uid: i % 2 for i, t in enumerate(physical.tasks)}
        )
        return FluidSimulation(
            physical, cluster, plan, {("job", "src"): 500.0},
            config=SimulationConfig(dt=0.1, fast_forward=fast_forward),
        )

    def test_run_until_time_has_no_float_drift(self):
        # Satellite bugfix: time is derived from the integer tick
        # counter, so thousands of 0.1 s ticks land exactly on
        # tick * dt instead of accumulating += dt error.
        for fast_forward in (False, True):
            sim = self._sim(fast_forward)
            for i in range(1, 101):
                sim.run_until(i * 2.0)
            assert (sim.leaps > 0) == fast_forward
            assert sim._tick_index == 2000
            assert sim.time_s == 2000 * 0.1

    def test_sample_timestamps_match_tick_grid(self):
        for fast_forward in (False, True):
            sim = self._sim(fast_forward)
            sim.run(10.0)
            assert (sim.leaps > 0) == fast_forward
            times = [s.time_s for s in sim.metrics.job_series("job")]
            assert times == [(i + 1) * 0.1 for i in range(100)]


class TestCacheInteraction:
    def test_fast_forward_shares_cache_entries(self):
        from repro.simulator.plan_cache import PlanEvaluationCache, simulate_cached

        g = pipeline()
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC, count=2)
        plan = PlacementPlan(
            {t.uid: i % 2 for i, t in enumerate(physical.tasks)}
        )
        cache = PlanEvaluationCache(capacity=8)
        first = simulate_cached(
            physical, cluster, plan, {("job", "src"): 2000.0}, 240.0, 100.0,
            config=SimulationConfig(fast_forward=True), cache=cache,
        )
        second = simulate_cached(
            physical, cluster, plan, {("job", "src"): 2000.0}, 240.0, 100.0,
            config=SimulationConfig(fast_forward=False), cache=cache,
        )
        assert cache.hits == 1 and cache.misses == 1
        assert first == second
