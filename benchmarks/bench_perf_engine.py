"""Performance-layer benchmark: steady-state fast-forward for the engine.

A standalone script (not a pytest-benchmark module) timing the engine's
fast-forward execution mode (DESIGN.md section 9) against the reference
tick-by-tick loop, and verifying the equivalence contract on every run:

a. **Steady workload** — a Figure 7-style isolation run (Q1-sliding at
   its isolation rate on the 4-worker m5d.2xlarge cluster) for 600
   simulated seconds. Constant rate and no faults means the engine
   converges once and leaps straight to the bound; the criterion is a
   >= 5x wall-clock speedup with a byte-identical summary.
b. **Chaos workload** — step rates plus a degrade/recover schedule and
   periodic checkpoints. Convergence windows are short and re-opened by
   every event, so the speedup is modest; the criterion here is purely
   byte-identical results (whatever the speedup turns out to be).
c. **Cycling workload** — Q3-inf at half its isolation rate on the
   isolation cluster for 600 simulated seconds. It never reaches a
   fixed point: it settles into an exact orbit that follows its 30 s GC
   spikes, so every leap covers whole periods of that orbit. The
   criterion is byte-identical results.

Every workload also reports ``reference_us_per_tick``, the per-tick
cost of the tick-by-tick loop: the median of ``REFERENCE_REPEATS``
reference runs divided by the ticks each executes.

Results are merged into the ``engine_fast_forward`` section of
``BENCH_perf.json`` (the other sections are kept), labelled with the
commit and the smoke flag; the section's last result from another
commit stays under ``previous``, so running the script at a parent
commit and then at its change leaves both numbers side by side.
``--smoke`` shrinks the simulated horizons so the script finishes in
seconds for CI.

Usage:
    PYTHONPATH=src python benchmarks/bench_perf_engine.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _helpers import (
    current_commit,
    ds2_sized_graph,
    merge_bench_section_with_previous,
    profiled_controller,
)

from repro.dataflow.physical import PhysicalGraph
from repro.experiments.runner import make_isolation_cluster
from repro.faults.checkpoint import CheckpointConfig
from repro.faults.injector import EngineFaultDriver
from repro.faults.schedule import ChaosSchedule
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.workloads import query_by_name
from repro.workloads.rates import StepSchedule

#: Reference (tick-by-tick) runs per workload on a full run; their
#: median is the reported reference time.
REFERENCE_REPEATS = 5


def _deployment(preset_name: str, rate: float):
    """(physical, cluster, plan, rates) for a preset's CAPS deployment."""
    preset = query_by_name(preset_name)
    cluster = make_isolation_cluster()
    scaled, rates, _ = ds2_sized_graph(preset, cluster, rate)
    controller = profiled_controller(scaled, cluster)
    physical = PhysicalGraph.expand(scaled)
    plan = controller.place(physical, {op: rate for op in scaled.sources()})
    return physical, cluster, plan, rates


def _timed_run(physical, cluster, plan, rates, duration_s, warmup_s,
               fast_forward, chaos=None, checkpoint=None):
    sim = FluidSimulation(
        physical, cluster, plan, rates,
        config=SimulationConfig(fast_forward=fast_forward),
    )
    if chaos is not None:
        sim.set_fault_driver(EngineFaultDriver(chaos, cluster))
    if checkpoint is not None:
        sim.enable_checkpoints(checkpoint)
    start = time.perf_counter()
    summary = sim.run(duration_s, warmup_s=warmup_s)
    return time.perf_counter() - start, summary, sim


def _reference_runs(smoke, *args, **kwargs):
    """Median time, summary and engine of the tick-by-tick reference."""
    runs = [
        _timed_run(*args, False, **kwargs)
        for _ in range(1 if smoke else REFERENCE_REPEATS)
    ]
    ref_s = statistics.median(seconds for seconds, _, _ in runs)
    _, summary, sim = runs[0]
    return ref_s, summary, sim


def _us_per_tick(seconds, sim):
    return round(seconds / sim._tick_index * 1e6, 1)


def bench_steady(smoke: bool) -> dict:
    """(a) Fig. 7-style steady run: one convergence, one leap."""
    duration = 150.0 if smoke else 600.0
    warmup = 60.0 if smoke else 240.0
    preset = query_by_name("Q1-sliding")
    deployment = _deployment("Q1-sliding", preset.isolation_rate)

    ref_s, ref_summary, ref_sim = _reference_runs(smoke, *deployment, duration, warmup)
    ff_s, ff_summary, ff_sim = _timed_run(*deployment, duration, warmup, True)

    assert repr(ref_summary) == repr(ff_summary), (
        "fast-forward summary diverged from tick-by-tick reference"
    )
    speedup = ref_s / ff_s if ff_s > 0 else None
    meets = speedup is not None and speedup >= 5.0
    print(
        f"  {duration:.0f}s steady Q1-sliding: reference {ref_s * 1e3:.1f}ms "
        f"({_us_per_tick(ref_s, ref_sim)}us/tick), "
        f"fast-forward {ff_s * 1e3:.1f}ms ({speedup:.1f}x), "
        f"{ff_sim.leaps} leap(s) skipping {ff_sim.ticks_leapt} ticks; "
        "summaries byte-identical"
    )
    if not smoke:
        assert meets, f"steady-state speedup {speedup:.2f}x below the 5x criterion"
    return {
        "workload": f"Q1-sliding isolation, {duration:.0f}s simulated",
        "reference_s": round(ref_s, 4),
        "reference_us_per_tick": _us_per_tick(ref_s, ref_sim),
        "fast_forward_s": round(ff_s, 4),
        "speedup": round(speedup, 3),
        "leaps": ff_sim.leaps,
        "ticks_skipped": ff_sim.ticks_leapt,
        "meets_5x": meets,
        "results_identical": True,
    }


def bench_chaos(smoke: bool) -> dict:
    """(b) step rates + faults + checkpoints: equivalence under churn."""
    duration = 150.0 if smoke else 600.0
    warmup = 60.0 if smoke else 240.0
    interval = 40.0 if smoke else 150.0
    chaos = (
        ChaosSchedule.parse("cpu:w1@50x0.5,recover:w1@100") if smoke
        else ChaosSchedule.parse("cpu:w1@200x0.5,recover:w1@380")
    )
    checkpoint = CheckpointConfig(enabled=True, interval_s=45.0)
    preset = query_by_name("Q2-join")
    rate = StepSchedule.doubling_then_halving(
        preset.isolation_rate * 0.5, interval_s=interval, repeats=1
    )
    physical, cluster, plan, rates = _deployment("Q2-join", preset.isolation_rate * 0.5)
    rates = {key: rate for key in rates}

    ref_s, ref_summary, ref_sim = _reference_runs(
        smoke, physical, cluster, plan, rates, duration, warmup,
        chaos=chaos, checkpoint=checkpoint,
    )
    ff_s, ff_summary, ff_sim = _timed_run(
        physical, cluster, plan, rates, duration, warmup, True,
        chaos=chaos, checkpoint=checkpoint,
    )

    assert repr(ref_summary) == repr(ff_summary), (
        "fast-forward summary diverged from reference under chaos"
    )
    speedup = ref_s / ff_s if ff_s > 0 else None
    print(
        f"  {duration:.0f}s chaos Q2-join: reference {ref_s * 1e3:.1f}ms "
        f"({_us_per_tick(ref_s, ref_sim)}us/tick), "
        f"fast-forward {ff_s * 1e3:.1f}ms ({speedup:.1f}x), "
        f"{ff_sim.leaps} leap(s) skipping {ff_sim.ticks_leapt} ticks; "
        "summaries byte-identical"
    )
    return {
        "workload": (
            f"Q2-join step rates + degrade/recover + 45s checkpoints, "
            f"{duration:.0f}s simulated"
        ),
        "reference_s": round(ref_s, 4),
        "reference_us_per_tick": _us_per_tick(ref_s, ref_sim),
        "fast_forward_s": round(ff_s, 4),
        "speedup": round(speedup, 3),
        "leaps": ff_sim.leaps,
        "ticks_skipped": ff_sim.ticks_leapt,
        "results_identical": True,
    }


def bench_cycle(smoke: bool) -> dict:
    """(c) GC-spike orbit: leaps over whole periods of an exact cycle."""
    duration = 150.0 if smoke else 600.0
    warmup = 60.0 if smoke else 240.0
    rate = query_by_name("Q3-inf").isolation_rate * 0.5
    deployment = _deployment("Q3-inf", rate)

    ref_s, ref_summary, ref_sim = _reference_runs(smoke, *deployment, duration, warmup)
    ff_s, ff_summary, ff_sim = _timed_run(*deployment, duration, warmup, True)

    assert repr(ref_summary) == repr(ff_summary), (
        "fast-forward summary diverged from reference on the GC orbit"
    )
    speedup = ref_s / ff_s if ff_s > 0 else None
    print(
        f"  {duration:.0f}s cycling Q3-inf: reference {ref_s * 1e3:.1f}ms "
        f"({_us_per_tick(ref_s, ref_sim)}us/tick), "
        f"fast-forward {ff_s * 1e3:.1f}ms ({speedup:.1f}x), "
        f"{ff_sim.leaps} leap(s) skipping {ff_sim.ticks_leapt} ticks; "
        "summaries byte-identical"
    )
    return {
        "workload": (
            f"Q3-inf at 0.5x isolation rate, GC-spike orbit, "
            f"{duration:.0f}s simulated"
        ),
        "reference_s": round(ref_s, 4),
        "reference_us_per_tick": _us_per_tick(ref_s, ref_sim),
        "fast_forward_s": round(ff_s, 4),
        "speedup": round(speedup, 3),
        "leaps": ff_sim.leaps,
        "ticks_skipped": ff_sim.ticks_leapt,
        "results_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrunken horizons for CI (finishes in seconds)",
    )
    parser.add_argument(
        "--out-dir", default=".", help="directory for BENCH_perf.json"
    )
    args = parser.parse_args(argv)

    print("[a] steady-state fast-forward (Fig. 7-style isolation run)")
    steady = bench_steady(args.smoke)
    print("[b] fast-forward under chaos (step rates + faults + checkpoints)")
    chaos = bench_chaos(args.smoke)
    print("[c] fast-forward over an exact cycle (Q3-inf GC-spike orbit)")
    cycle = bench_cycle(args.smoke)

    path = merge_bench_section_with_previous(
        "perf",
        "engine_fast_forward",
        {
            "commit": current_commit(),
            "smoke": args.smoke,
            "steady": steady,
            "chaos": chaos,
            "cycle": cycle,
        },
        directory=args.out_dir,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
