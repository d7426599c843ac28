"""Equivalence tests for the engine's steady-state fast-forward mode.

Fast-forward (DESIGN.md §9) is an execution strategy with an *exact*
equivalence contract: a run with ``SimulationConfig(fast_forward=True)``
must produce bit-identical summaries, metrics, and final engine state to
the tick-by-tick reference, for any workload — including rate
breakpoints, GC spikes, chaos schedules, and checkpoints. These tests
enforce the contract property-based (random topologies x rate patterns x
chaos x checkpoints), pin leap counts on a known workload so horizon
regressions surface as count changes, not just slowdowns, and run
explicit cycles longer than one tick (a last-bit flip-flop, GC orbits),
which the random draws rarely produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.cluster import M5D_2XLARGE, Cluster, WorkerSpec
from repro.dataflow.graph import GcSpikeProfile, LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.core.plan import PlacementPlan
from repro.faults.checkpoint import CheckpointConfig
from repro.faults.injector import EngineFaultDriver
from repro.faults.schedule import ChaosSchedule
from repro.observability import MetricRegistry, Tracer
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.workloads import query_by_name
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
               tracer_for_fast=None, registry_for_ref=None):
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
            registry=registry_for_fast if fast else registry_for_ref,
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
    for job_id in ref.metrics.job_ids:
        assert ref.metrics.job_series(job_id) == fast.metrics.job_series(job_id)


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
            [
                None,
                GcSpikeProfile(period_s=30.0, duration_s=4.0, magnitude=3.0),
                # Short staggered spikes: orbits in which a state recurs.
                GcSpikeProfile(period_s=15.0, duration_s=1.0, magnitude=2.0),
                GcSpikeProfile(period_s=12.0, duration_s=2.0, magnitude=4.0),
            ]
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


#: A 30 s GC spike: a 3-way windowed operator under it at 8,000 rec/s
#: settles into an exact 30-tick orbit.
GC_30S = GcSpikeProfile(period_s=30.0, duration_s=4.0, magnitude=3.0)


def q4_flip_flop_pair(diagnose=False, window_ticks=60):
    """(reference, default, tracer): Q4-join at half its isolation rate,
    round-robin on four m5d workers, whose queues settle into a period-2
    orbit that flips in the last bits. The tracer is the default leg's."""
    preset = query_by_name("Q4-join")
    graph = preset.build()
    physical = PhysicalGraph.expand(graph)
    cluster = Cluster.homogeneous(M5D_2XLARGE.with_slots(8), count=4)
    plan = PlacementPlan({t.uid: i % 4 for i, t in enumerate(physical.tasks)})
    rates = {
        (graph.job_id, op): preset.isolation_rate * 0.5 for op in graph.sources()
    }
    tracer = Tracer(run_id="q4-flip-flop")
    engines = []
    for fast in (False, True):
        sim = FluidSimulation(
            physical, cluster, plan, rates,
            config=SimulationConfig(
                fast_forward=fast, metrics_window_ticks=window_ticks
            ),
            tracer=tracer if fast else None,
        )
        if diagnose:
            sim.enable_diagnosis()
        engines.append(sim)
    return engines[0], engines[1], tracer


def leap_periods(tracer):
    """The ``period`` of every ``engine.leap`` event, in order."""
    return [
        r["args"]["period"] for r in tracer.stream("sim") if r["name"] == "engine.leap"
    ]


class TestCycleLeaps:
    @pytest.mark.parametrize("stride", [7.0, 13.0, 31.0])
    def test_flip_flop_leaps_across_run_until_strides(self, stride):
        # An odd task window: leaps at least as long as the window end
        # in the middle of a period's rows.
        ref, fast, tracer = q4_flip_flop_pair(window_ticks=25)
        for sim in (ref, fast):
            horizon = 0.0
            while horizon < 300.0:
                horizon += stride
                sim.run_until(horizon)
        assert_equivalent(ref, fast)
        assert set(leap_periods(tracer)) == {2}

    def test_gc_orbit_longer_than_the_task_window(self):
        # The 30-tick orbit exceeds the 20-tick task window, which whole
        # periods leave as it is.
        tracer = Tracer(run_id="gc-orbit")
        ref, fast = build_pair(
            pipeline(gc=GC_30S, window_p=3), ConstantRate(8000.0),
            config_kwargs={"metrics_window_ticks": 20}, tracer_for_fast=tracer,
        )
        ref.run(300.0, warmup_s=120.0)
        fast.run(300.0, warmup_s=120.0)
        assert_equivalent(ref, fast, warmup_s=120.0)
        assert leap_periods(tracer) == [30]
        assert fast.ticks_leapt == 240

    def test_gc_orbit_between_checkpoints(self):
        # Dirty bytes replay the orbit's increments in tick order, and a
        # checkpoint's upload clears the record until it has drained.
        tracer = Tracer(run_id="gc-orbit-ckpt")
        ref, fast = build_pair(
            pipeline(gc=GC_30S, window_p=3), ConstantRate(8000.0),
            config_kwargs={"metrics_window_ticks": 20},
            checkpoint=CheckpointConfig(enabled=True, interval_s=200.0),
            tracer_for_fast=tracer,
        )
        ref.run(300.0, warmup_s=120.0)
        fast.run(300.0, warmup_s=120.0)
        assert_equivalent(ref, fast, warmup_s=120.0)
        assert ref.checkpoints_taken == 1
        assert leap_periods(tracer) == [30, 30]

    def test_registry_latency_histogram_replays_the_orbit_in_order(self):
        registries = MetricRegistry(), MetricRegistry()
        tracer = Tracer(run_id="gc-orbit-registry")
        ref, fast = build_pair(
            pipeline(gc=GC_30S, window_p=3), ConstantRate(8000.0),
            config_kwargs={"metrics_window_ticks": 20},
            registry_for_ref=registries[0], registry_for_fast=registries[1],
            tracer_for_fast=tracer,
        )
        # At 400 s, summing the period's latencies value by value instead
        # of in tick order gives a different float.
        ref.run(400.0)
        fast.run(400.0)
        assert_equivalent(ref, fast)
        assert leap_periods(tracer) == [30]
        ref_snap, fast_snap = (
            {m["name"]: m["value"] for m in r.snapshot()["metrics"]}
            for r in registries
        )
        ref_hist = ref_snap["sim_job_latency_seconds"]
        fast_hist = fast_snap["sim_job_latency_seconds"]
        assert fast_hist["sum"] == ref_hist["sum"]
        assert fast_hist["count"] == ref_hist["count"] == 400
        assert fast_hist["buckets"] == ref_hist["buckets"]
        for name in (
            "sim_job_ticks_total",
            "sim_job_throughput_records_per_s",
            "sim_job_backpressure_ratio",
        ):
            assert fast_snap[name] == ref_snap[name]

    def test_state_recurring_inside_a_period(self):
        # Three tasks spike for one tick each, five ticks apart, and the
        # state returns to the same fixed point in between. That state
        # recurs inside the 15-tick period, so the replay must take the
        # period's ticks, not its distinct states.
        tracer = Tracer(run_id="gc-recurring-state")
        ref, fast = build_pair(
            pipeline(gc=GcSpikeProfile(15.0, 1.0, 2.0), window_p=3),
            ConstantRate(8000.0), tracer_for_fast=tracer,
        )
        ref.run(400.0)
        fast.run(400.0)
        assert_equivalent(ref, fast)
        assert leap_periods(tracer) == [1, 15]

    def test_record_names_only_states_the_reference_reached(self):
        # A leap shifts the kept period by the ticks it leapt. Every
        # recorded state must then still name a tick at which the tick
        # loop held it, or a later match would claim a cycle that is not
        # there; the transient before the cycle is dropped.
        ref, fast = build_pair(pipeline(gc=GC_30S, window_p=3), ConstantRate(8000.0))
        states = {}
        for tick in range(1, 301):
            ref.step()
            states[tick] = ref.queue.tobytes() + ref._last_proc.tobytes()
        fast.run(300.0)
        assert fast.ticks_leapt == 240
        assert len(fast._ff_record) == 30
        for key, tick in fast._ff_record.items():
            assert states[tick + fast._ff_offset] == key

    def test_cycle_never_spans_a_rate_step(self):
        # The fixed point after the step back down is the one before the
        # step up, within the record's reach: a new target segment keeps
        # only the last state, so no cycle replays the stepped-up rows.
        ref, fast = build_pair(
            pipeline(window_p=1),
            StepSchedule.doubling_then_halving(2000.0, interval_s=20.0, repeats=1),
        )
        ref.run(300.0)
        fast.run(300.0)
        assert_equivalent(ref, fast)
        assert fast.ticks_leapt > 0

    def test_diagnosis_leaps_only_at_fixed_points(self):
        # The collector replays one cached increment, so with it
        # attached the flip-flop executes its orbit instead of leaping.
        ref, fast, tracer = q4_flip_flop_pair(diagnose=True)
        ref.run(300.0)
        fast.run(300.0)
        assert_equivalent(ref, fast)
        assert all(period == 1 for period in leap_periods(tracer))
        r, f = ref.diagnosis, fast.diagnosis
        assert r.attribution.ticks_observed == f.attribution.ticks_observed
        for resource in ("cpu", "disk", "network"):
            assert np.array_equal(
                r.attribution.blame_s[resource], f.attribution.blame_s[resource]
            )
            assert np.array_equal(
                r.attribution.deficit_s[resource], f.attribution.deficit_s[resource]
            )
        assert r.provenance.bp_s == f.provenance.bp_s
        assert r.provenance.ticks_observed == f.provenance.ticks_observed
        r.flush(None)
        f.flush(None)
        assert r.provenance.spans == f.provenance.spans
