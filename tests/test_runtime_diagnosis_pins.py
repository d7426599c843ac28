"""Bitwise pins of the paced record runtime and the diagnosis collector.

Both read the contention arithmetic the fluid engine uses, but
``test_engine_pins.py`` sees neither: the runtime turns the shared
sharing step into per-slice record budgets, and the diagnosis collector
turns it into blame and backpressure provenance. Each scenario hashes
(sha256) everything those consumers produce, so a change that moves one
of their floats by one ulp fails here.

Runtime digests cover the outputs, the state, channel and per-instance
statistics, the run summary, the sim-domain trace, and every slice's
integer budgets together with the fractional carry. The carry is hashed
because integer budgets hide ulp changes. Two scenarios run on a single
r5d.xlarge worker so the grants fall below 1: q1 at 18x is CPU-bound
(grant ~0.68) and q6 at 30x is disk-bound (grant ~0.91). The default
two-worker cluster never contends at these rates.

Diagnosis digests cover the blame and deficit matrices, the provenance
backpressure-seconds and dominant-origin spans, the observed tick
counts, and the flushed sim-domain records. Every diagnosis scenario
runs with and without fast-forward against the same literal.
"""

import dataclasses
import hashlib

import pytest

from repro.core.plan import PlacementPlan
from repro.dataflow.cluster import M5D_2XLARGE, R5D_XLARGE, Cluster
from repro.dataflow.physical import PhysicalGraph
from repro.experiments import validate_runtime
from repro.faults.checkpoint import CheckpointConfig
from repro.faults.injector import EngineFaultDriver
from repro.faults.schedule import ChaosSchedule
from repro.observability import Tracer
from repro.placement.flink_evenly import FlinkEvenlyStrategy
from repro.runtime.parallel import ShardedExecutor
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.workloads import query_by_name
from repro.workloads.rates import StepSchedule


# ----------------------------------------------------------------------
# Paced record runtime
# ----------------------------------------------------------------------

def _one_worker():
    return Cluster.homogeneous(R5D_XLARGE.with_slots(8), count=1)


def _runtime_digest(query, rate_scale, duration_s, cluster):
    scenario = validate_runtime.SCENARIOS[query](duration_s, rate_scale, 7)
    physical = PhysicalGraph.expand(scenario.graph)
    plan = FlinkEvenlyStrategy(seed=0).place_validated(physical, cluster)
    tracer = Tracer(run_id="runtime-pin")
    executor = ShardedExecutor(
        scenario.template,
        physical=physical,
        plan=plan,
        cluster=cluster,
        source_rates=scenario.source_rates,
        tracer=tracer,
    )
    h = hashlib.sha256()
    budgets_of = executor._slice_budgets

    def recording(*args):
        budgets = budgets_of(*args)
        h.update(budgets.tobytes())
        h.update(executor._carry.tobytes())
        return budgets

    executor._slice_budgets = recording
    result = executor.run(duration_s, warmup_s=1.0)
    for record in result.outputs:
        h.update(repr((record.timestamp_ms, record.value)).encode())
    for stats in (
        result.state_stats, result.channel_stats, result.instance_stats
    ):
        for name in sorted(stats):
            h.update(repr((name, dataclasses.astuple(stats[name]))).encode())
    h.update(repr(dataclasses.astuple(result.summary)).encode())
    h.update(tracer.to_jsonl("sim").encode())
    return h.hexdigest()


RUNTIME_PINS = {
    "q1_default_cluster": (
        ("q1", 1.0, 4.0, validate_runtime.default_cluster),
        "583c566782c89252cdddfca00b6dc504cc7b5dcf7cc4c59ec948a2ee9bc818c6",
    ),
    "q2_4x_default_cluster": (
        ("q2", 4.0, 4.0, validate_runtime.default_cluster),
        "ed221149bbba300a19d2d063d21e63ddf3298d5f3c504d1393b785d58b8c23d5",
    ),
    "q6_default_cluster": (
        ("q6", 1.0, 4.0, validate_runtime.default_cluster),
        "bcc8244a258fd0888c1cfee072761151b67974ae2711f28166814bcf3e68ac90",
    ),
    "q1_18x_one_worker_cpu_bound": (
        ("q1", 18.0, 2.0, _one_worker),
        "3978fd4ec56eb2251ccc7114d70df9335fb2eed4b39d2d0281450549d0beaab5",
    ),
    "q6_30x_one_worker_disk_bound": (
        ("q6", 30.0, 2.0, _one_worker),
        "0caaf8b06d3f4370a5f5c9a921334f19b150bbd8b53b5e0a12cbf028a8ada24c",
    ),
}


@pytest.mark.parametrize("name", sorted(RUNTIME_PINS))
def test_paced_runtime_matches_pin(name):
    (query, rate_scale, duration_s, cluster), expected = RUNTIME_PINS[name]
    assert _runtime_digest(query, rate_scale, duration_s, cluster()) == expected


# ----------------------------------------------------------------------
# Diagnosis collector
# ----------------------------------------------------------------------

def _engine(name, spec, workers, rate_scale, fast_forward, pattern=None):
    """One engine over a preset, round-robin on ``workers`` workers."""
    graph = query_by_name(name).build()
    physical = PhysicalGraph.expand(graph)
    cluster = Cluster.homogeneous(spec.with_slots(8), count=workers)
    plan = PlacementPlan(
        {t.uid: i % workers for i, t in enumerate(physical.tasks)}
    )
    rate = query_by_name(name).isolation_rate * rate_scale
    rates = {
        (graph.job_id, op): pattern(rate) if pattern else rate
        for op in graph.sources()
    }
    return FluidSimulation(
        physical, cluster, plan, rates,
        config=SimulationConfig(fast_forward=fast_forward),
    )


def _q1_degrade_crash_recover(fast_forward):
    sim = _engine("Q1-sliding", M5D_2XLARGE, 4, 1.2, fast_forward)
    sim.set_fault_driver(
        EngineFaultDriver(
            ChaosSchedule.parse("disk:w1@60x0.4,crash:w2@120,recover:w2@260"),
            sim.cluster,
        )
    )
    sim.enable_diagnosis()
    sim.run(360.0)
    return sim


def _q2_steps_checkpoints(fast_forward):
    sim = _engine(
        "Q2-join", M5D_2XLARGE, 4, 0.8, fast_forward,
        pattern=lambda rate: StepSchedule.doubling_then_halving(
            rate, interval_s=80.0, repeats=1
        ),
    )
    sim.enable_checkpoints(CheckpointConfig(enabled=True, interval_s=45.0))
    sim.enable_diagnosis()
    sim.run(320.0)
    return sim


def _q3_gc_spikes(fast_forward):
    # Eleven tasks on three 4-core workers: the CPU contends.
    sim = _engine("Q3-inf", R5D_XLARGE, 3, 0.8, fast_forward)
    sim.enable_diagnosis()
    sim.run(200.0)
    return sim


def _diagnosis_digest(sim):
    collector = sim.diagnosis
    tracer = Tracer(run_id="diagnosis-pin")
    collector.flush(tracer)
    attribution, provenance = collector.attribution, collector.provenance
    h = hashlib.sha256()
    for resource in sorted(attribution.blame_s):
        h.update(resource.encode())
        h.update(attribution.blame_s[resource].tobytes())
        h.update(attribution.deficit_s[resource].tobytes())
    h.update(repr(sorted(provenance.bp_s.items())).encode())
    h.update(repr(provenance.spans).encode())
    h.update(
        repr((attribution.ticks_observed, provenance.ticks_observed)).encode()
    )
    h.update(tracer.to_jsonl("sim").encode())
    return h.hexdigest()


#: name -> (scenario, whether fast-forward leaps, digest). GC phase
#: edges keep Q3-inf off a fixed point, so it never leaps.
DIAGNOSIS_PINS = {
    "q1_degrade_crash_recover": (
        _q1_degrade_crash_recover,
        True,
        "6af98e78a2523ba7e442febdd1d4eab2349e6c35884e59f4c0ccb2a4b1fd98ae",
    ),
    "q2_steps_checkpoints": (
        _q2_steps_checkpoints,
        True,
        "7403a4416660ad9b3fa05bc69c58ef5eb78815b162a5810ff73c4b5e9d1cfb30",
    ),
    "q3_gc_spikes": (
        _q3_gc_spikes,
        False,
        "546a12315a964e9a5b45628a33bc55d1c2a28ead5f3230bd783f432a21132646",
    ),
}


@pytest.mark.parametrize("fast_forward", [False, True], ids=["ticks", "ff"])
@pytest.mark.parametrize("name", sorted(DIAGNOSIS_PINS))
def test_diagnosis_matches_pin(name, fast_forward):
    build, leaps, expected = DIAGNOSIS_PINS[name]
    sim = build(fast_forward)
    # The pin only means something if the scenario contends.
    assert any(
        deficit.any() for deficit in sim.diagnosis.attribution.deficit_s.values()
    )
    assert (sim.ticks_leapt > 0) == (fast_forward and leaps)
    assert _diagnosis_digest(sim) == expected
