"""Diagnosis-layer overhead benchmark: attribution must stay cheap.

Times the fluid engine's tick-by-tick reference (``fast_forward=False``)
with and without the root-cause diagnosis layer
(``engine.enable_diagnosis()`` — contention attribution + backpressure
provenance, DESIGN.md section 10) on two workloads:

a. **Steady contended run** — Q1-sliding at its isolation rate for 600
   simulated seconds; per-tick inputs converge quickly, so the
   collector's signature cache turns each tick into array comparisons
   plus a cached-increment addition.
b. **Chaos run** — Q2-join with a disk degrade/recover schedule;
   signatures churn around fault edges, exercising the recompute path.

Every run also re-verifies that diagnosis is a pure observer: the
engine summary must be byte-identical with the layer on and off. The
acceptance criterion is a mean overhead of at most 5% across the two
workloads (enforced on full runs, reported on ``--smoke``). Results
are merged into ``BENCH_perf.json`` under ``diagnosis_overhead`` with
the commit that produced them and whether the run was a smoke run; the
last result of another commit is kept under ``previous`` (run it at a
parent and then at its change for a before/after pair).

Usage:
    PYTHONPATH=src python benchmarks/bench_diagnosis_overhead.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
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
from repro.faults.injector import EngineFaultDriver
from repro.faults.schedule import ChaosSchedule
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.workloads import query_by_name

#: Acceptance bound: mean relative slowdown with attribution enabled.
MAX_OVERHEAD = 0.05

#: Timing repeats per configuration; baseline and diagnosis runs are
#: interleaved (paired) and the minimum of each side is reported, so a
#: noisy scheduling window hits both sides rather than biasing one.
REPEATS = 5


def _deployment(preset_name: str, rate: float):
    preset = query_by_name(preset_name)
    cluster = make_isolation_cluster()
    scaled, rates, _ = ds2_sized_graph(preset, cluster, rate)
    controller = profiled_controller(scaled, cluster)
    physical = PhysicalGraph.expand(scaled)
    plan = controller.place(physical, {op: rate for op in scaled.sources()})
    return physical, cluster, plan, rates


def _one_run(physical, cluster, plan, rates, duration_s, diagnose, chaos):
    # The bound is on the observer's per-tick cost: leaps would skip
    # most of the ticks it observes.
    sim = FluidSimulation(
        physical, cluster, plan, rates,
        config=SimulationConfig(fast_forward=False),
    )
    if chaos is not None:
        sim.set_fault_driver(EngineFaultDriver(chaos, cluster))
    if diagnose:
        sim.enable_diagnosis()
    start = time.perf_counter()
    summary = sim.run(duration_s)
    return time.perf_counter() - start, summary


def bench_workload(name: str, preset_name: str, duration_s: float,
                   chaos=None) -> dict:
    preset = query_by_name(preset_name)
    deployment = _deployment(preset_name, preset.isolation_rate)
    base_s = diag_s = None
    base_summary = diag_summary = None
    for _ in range(REPEATS):
        elapsed, base_summary = _one_run(
            *deployment, duration_s, diagnose=False, chaos=chaos
        )
        base_s = elapsed if base_s is None else min(base_s, elapsed)
        elapsed, diag_summary = _one_run(
            *deployment, duration_s, diagnose=True, chaos=chaos
        )
        diag_s = elapsed if diag_s is None else min(diag_s, elapsed)
    assert repr(base_summary) == repr(diag_summary), (
        f"{name}: diagnosis perturbed the engine result"
    )
    overhead = (diag_s - base_s) / base_s
    print(
        f"  {duration_s:.0f}s {name}: baseline {base_s * 1e3:.1f}ms, "
        f"with diagnosis {diag_s * 1e3:.1f}ms "
        f"({overhead:+.1%} overhead); summaries byte-identical"
    )
    return {
        "workload": f"{preset_name}, {duration_s:.0f}s simulated",
        "baseline_s": round(base_s, 4),
        "diagnosis_s": round(diag_s, 4),
        "overhead": round(overhead, 4),
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
    duration = 150.0 if args.smoke else 600.0

    print("[a] steady contended run (Q1-sliding isolation)")
    steady = bench_workload("steady Q1-sliding", "Q1-sliding", duration)
    print("[b] chaos run (Q2-join + disk degrade/recover)")
    chaos_spec = (
        "disk:w1@50x0.5,recover:w1@100" if args.smoke
        else "disk:w1@200x0.5,recover:w1@380"
    )
    chaos = bench_workload(
        "chaos Q2-join", "Q2-join", duration,
        chaos=ChaosSchedule.parse(chaos_spec),
    )

    mean_overhead = (steady["overhead"] + chaos["overhead"]) / 2.0
    meets = mean_overhead <= MAX_OVERHEAD
    print(
        f"mean overhead {mean_overhead:+.1%} "
        f"(bound {MAX_OVERHEAD:.0%}: {'ok' if meets else 'EXCEEDED'})"
    )
    if not args.smoke:
        assert meets, (
            f"diagnosis overhead {mean_overhead:.1%} exceeds the "
            f"{MAX_OVERHEAD:.0%} bound"
        )

    os.makedirs(args.out_dir, exist_ok=True)
    path = merge_bench_section_with_previous(
        "perf",
        "diagnosis_overhead",
        {
            "commit": current_commit(),
            "smoke": args.smoke,
            "steady": steady,
            "chaos": chaos,
            "mean_overhead": round(mean_overhead, 4),
            "meets_5pct": meets,
        },
        directory=args.out_dir,
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
