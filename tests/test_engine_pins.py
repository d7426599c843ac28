"""Bitwise pins of the fluid engine's output streams.

Each scenario runs a fixed deployment for a fixed number of ticks and
hashes (sha256) everything the engine produced: every job-series row,
the per-worker cpu/io/net rows, the rolling task-window rows, and the
final ``queue``, ``state_bytes``, ``_last_proc`` and
``durable_state_bytes()``. The digests are literals, so a change to
the tick arithmetic that moves any float by one ulp fails here, not
only in a downstream summary. ``test_engine_fast_forward.py`` compares
two execution modes of the same code; these pins compare the code with
its own past. Every scenario runs the tick-by-tick reference
(``fast_forward=False``) except ``q2_fast_forward_diagnosis``, which
must leap and still match its reference's digest. ``q3_gc_spikes`` and
``q4_flip_flop`` settle into exact cycles longer than one tick; run by
default they must leap whole periods and still match their digests.

The scenarios cover the paths a per-tick optimisation can break:
capacity changes mid-run (degrade, crash, recover), GC spikes,
step-rate segments with checkpoints and a fault driver, fast-forward
with diagnosis attached, a last-bit flip-flop orbit, two jobs sharing a
cluster, and measurement noise.
"""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from repro.core.plan import PlacementPlan
from repro.dataflow.cluster import M5D_2XLARGE, Cluster
from repro.dataflow.physical import PhysicalGraph
from repro.faults.checkpoint import CheckpointConfig
from repro.faults.injector import EngineFaultDriver
from repro.faults.schedule import ChaosSchedule
from repro.observability import Tracer
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.workloads import query_by_name
from repro.workloads.rates import StepSchedule


def _cluster(workers):
    return Cluster.homogeneous(M5D_2XLARGE.with_slots(8), count=workers)


def _round_robin(physical, workers):
    return PlacementPlan(
        {t.uid: i % workers for i, t in enumerate(physical.tasks)}
    )


def _engine(names, workers, used, rate_scale, config=None, pattern=None,
            tracer=None):
    """One engine over the named presets, round-robin on ``used`` workers."""
    graphs = [query_by_name(name).build() for name in names]
    physical = PhysicalGraph.merge(PhysicalGraph.expand(g) for g in graphs)
    cluster = _cluster(workers)
    rates = {}
    for name, graph in zip(names, graphs):
        rate = query_by_name(name).isolation_rate * rate_scale
        for op in graph.sources():
            rates[(graph.job_id, op)] = pattern(rate) if pattern else rate
    return FluidSimulation(
        physical, cluster, _round_robin(physical, used), rates,
        config=config or SimulationConfig(fast_forward=False),
        tracer=tracer,
    )


def _digest(sim):
    """sha256 over every metric row and the final engine state."""
    h = hashlib.sha256()
    metrics = sim.metrics
    for job_id in metrics.job_ids:
        for sample in metrics.job_series(job_id):
            h.update(struct.pack("<6d", *dataclasses.astuple(sample)))
    for store in (metrics._worker_cpu, metrics._worker_io, metrics._worker_net):
        h.update(np.ascontiguousarray(store.data()).tobytes())
    h.update(np.ascontiguousarray(metrics._task_window.rows()).tobytes())
    for array in (
        sim.queue, sim.state_bytes, sim._last_proc, sim.durable_state_bytes()
    ):
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def _factors(sim, cpu=None, disk=None, alive=None):
    n = len(sim.cluster.workers)
    cpu_f, disk_f, net_f = np.ones(n), np.ones(n), np.ones(n)
    alive_f = np.ones(n, dtype=bool)
    for worker, value in (cpu or {}).items():
        cpu_f[worker] = value
    for worker, value in (disk or {}).items():
        disk_f[worker] = value
    for worker in alive or ():
        alive_f[worker] = False
        cpu_f[worker] = disk_f[worker] = net_f[worker] = 0.0
    return cpu_f, disk_f, net_f, alive_f


def _q1_capacity_events():
    """(a) Q1-sliding on 8x8 m5d: degrade, crash, recover mid-run."""
    sim = _engine(["Q1-sliding"], workers=8, used=4, rate_scale=1.2)
    sim.run_until(100.0)
    sim.apply_worker_factors(*_factors(sim, cpu={1: 0.5}, disk={1: 0.4}))
    sim.run_until(180.0)
    sim.apply_worker_factors(
        *_factors(sim, cpu={1: 0.5}, disk={1: 0.4}, alive=[2])
    )
    sim.run_until(260.0)
    sim.apply_worker_factors(*_factors(sim))
    sim.run_until(400.0)
    return sim


def _q3_gc_spikes(config=None, tracer=None):
    """(b) Q3-inf: the inference operator has periodic GC spikes."""
    sim = _engine(
        ["Q3-inf"], workers=4, used=3, rate_scale=1.0, config=config, tracer=tracer
    )
    sim.run(200.0)
    return sim


def _q2_steps_checkpoints(fast_forward=False, diagnose=False):
    """(c) Q2-join under a StepSchedule, checkpoints and a fault driver."""
    sim = _engine(
        ["Q2-join"], workers=4, used=4, rate_scale=0.5,
        config=SimulationConfig(fast_forward=fast_forward),
        pattern=lambda rate: StepSchedule.doubling_then_halving(
            rate, interval_s=80.0, repeats=1
        ),
    )
    sim.set_fault_driver(
        EngineFaultDriver(
            ChaosSchedule.parse("disk:w1@100x0.5,recover:w1@190"), sim.cluster
        )
    )
    sim.enable_checkpoints(CheckpointConfig(enabled=True, interval_s=45.0))
    if diagnose:
        sim.enable_diagnosis()
    sim.run(320.0)
    return sim


def _q4_flip_flop(config=None, tracer=None):
    """(g) Q4-join at half rate: its queues settle into an exact
    period-2 orbit that flips in the last bits instead of a fixed point."""
    sim = _engine(
        ["Q4-join"], workers=4, used=4, rate_scale=0.5, config=config, tracer=tracer
    )
    sim.run(300.0)
    return sim


def _two_jobs():
    """(e) Q1-sliding and Q6-session sharing one cluster."""
    sim = _engine(["Q1-sliding", "Q6-session"], workers=4, used=4, rate_scale=0.9)
    sim.run(240.0)
    return sim


def _noisy():
    """(f) measurement noise draws from the RNG every tick."""
    sim = _engine(
        ["Q1-sliding"], workers=4, used=4, rate_scale=1.0,
        config=SimulationConfig(noise_std=0.05, seed=3),
    )
    sim.run(150.0)
    return sim


PINS = {
    "q1_capacity_events": (
        _q1_capacity_events,
        "3ea2de10e5a55df686975844905aad836930e8b144f24222eab7683f713ff972",
    ),
    "q3_gc_spikes": (
        _q3_gc_spikes,
        "a2a6d1f27e49fef5b374f47d24b291deded8826028db4b2cc73aa6d5a2b2436e",
    ),
    "q2_steps_checkpoints": (
        _q2_steps_checkpoints,
        "7197479b98029140f1f03ad778543ffe695a9a97372463d8dee8f0db8b609738",
    ),
    "q2_fast_forward_diagnosis": (
        lambda: _q2_steps_checkpoints(fast_forward=True, diagnose=True),
        "7197479b98029140f1f03ad778543ffe695a9a97372463d8dee8f0db8b609738",
    ),
    "q4_flip_flop": (
        _q4_flip_flop,
        "24525d5a22507800f174b82af36b2da6316aa520381c45b2d18d05631076e86c",
    ),
    "two_jobs": (
        _two_jobs,
        "4cc7d758fe2ef884cbc134eb19dae0417665daae52bf4f88f6315168ff60b230",
    ),
    "noisy": (
        _noisy,
        "ac4d2e5bb640e53e308cd38db86e3113a18909bcd786bd49d7d3ea8991a36fe8",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_engine_streams_match_pin(name):
    build, expected = PINS[name]
    assert _digest(build()) == expected


def test_fast_forward_with_diagnosis_matches_the_tick_loop():
    # (d) leaps and the diagnosis observer change nothing the pins see.
    assert PINS["q2_fast_forward_diagnosis"][1] == PINS["q2_steps_checkpoints"][1]
    sim = _q2_steps_checkpoints(fast_forward=True, diagnose=True)
    assert sim.ticks_leapt > 0


@pytest.mark.parametrize("name", ["q3_gc_spikes", "q4_flip_flop"])
def test_cycles_leap_by_default_and_match_the_reference(name):
    # (b) and (g) on the default config: both leap whole periods of an
    # orbit longer than one tick and keep the reference's digest.
    build, expected = PINS[name]
    tracer = Tracer(run_id=name)
    sim = build(config=SimulationConfig(), tracer=tracer)
    assert _digest(sim) == expected
    periods = [
        r["args"]["period"] for r in tracer.stream("sim") if r["name"] == "engine.leap"
    ]
    assert any(period > 1 for period in periods)
