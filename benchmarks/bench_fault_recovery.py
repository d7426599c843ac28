"""Fault recovery: degraded-mode CAPS replanning vs evenly spreading.

DESIGN.md section 8: the same deterministic chaos schedule — a disk
straggler appearing on one worker, then a crash of another — hits the
adaptive controller twice, once placing with CAPS and once with Flink's
``evenly`` policy. The controller replans both on the surviving
workers; the difference is what the placement knows. CAPS searches the
*degraded* cluster view, so it steers the I/O-heavy tasks away from the
straggler; evenly balances task counts blindly and keeps feeding it.

The bench prints recovery time back to the 95% source-rate SLO after
the crash plus the cumulative backpressure integral, and asserts CAPS
recovers with measurably less accumulated backpressure.
"""

import sys

sys.path.insert(0, "benchmarks")
from _helpers import merge_bench_json, run_once

from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.controller.capsys import CAPSysController, ControllerConfig
from repro.experiments.reporting import format_table
from repro.faults import ChaosSchedule, CheckpointConfig
from repro.placement import FlinkEvenlyStrategy
from repro.workloads import query_by_name
from repro.workloads.rates import ConstantRate

CLUSTER = Cluster.homogeneous(R5D_XLARGE.with_slots(6), count=5)
RATE = 10_000.0
DURATION_S = 700.0
CRASH_AT_S = 180.0
#: w1 keeps 30% of its disk bandwidth from t=150; w3 dies at t=180 and
#: never comes back — the job must fit on 4 workers, one a straggler.
CHAOS = ChaosSchedule.parse("disk:w1@150x0.3,crash:w3@180")
CONFIG = ControllerConfig(
    policy_interval_s=5.0,
    activation_time_s=60.0,
    rescale_downtime_s=5.0,
    checkpoint=CheckpointConfig(enabled=True, interval_s=30.0),
)


def _run(strategy):
    preset = query_by_name("Q1-sliding")
    graph = preset.build()
    controller = CAPSysController(graph, CLUSTER, strategy=strategy, config=CONFIG)
    return controller.run_adaptive(
        {op: ConstantRate(RATE) for op in graph.sources()},
        duration_s=DURATION_S,
        chaos=CHAOS,
    )


def _recovery_stats(result):
    """(recovery seconds after the crash, post-crash backpressure integral)."""
    recovery_s = DURATION_S - CRASH_AT_S
    cumulative_bp = 0.0
    previous_t = CRASH_AT_S
    for sample in result.samples:
        if sample.time_s <= CRASH_AT_S:
            continue
        cumulative_bp += sample.backpressure * (sample.time_s - previous_t)
        previous_t = sample.time_s
    for sample in result.samples:
        if (
            sample.time_s > CRASH_AT_S
            and sample.throughput >= 0.95 * sample.target_rate
        ):
            recovery_s = sample.time_s - CRASH_AT_S
            break
    return recovery_s, cumulative_bp


def test_fault_recovery_caps_vs_evenly(benchmark):
    def study():
        return {
            "CAPSys": _run("caps"),
            "Evenly": _run(FlinkEvenlyStrategy()),
        }

    results = run_once(benchmark, study)

    rows = []
    payload = {}
    for policy, result in results.items():
        recovery_s, cumulative_bp = _recovery_stats(result)
        fault_rescales = sum(
            1 for e in result.events if e.reason.startswith("fault:")
        )
        rows.append(
            [policy, round(recovery_s), round(cumulative_bp, 1), fault_rescales]
        )
        payload[policy] = {
            "recovery_s": recovery_s,
            "cumulative_backpressure_s": cumulative_bp,
            "fault_rescales": fault_rescales,
            "rescales": result.rescale_count(),
        }
    print()
    print(
        format_table(
            ["policy", "recovery (s)", "cum. backpressure (s)", "fault rescales"],
            rows,
            title=(
                f"fault recovery at {RATE:.0f} rec/s "
                f"(crash at {CRASH_AT_S:.0f} s, disk straggler from 150 s)"
            ),
        )
    )
    # Merged as a section: bench_control_resilience.py shares this file.
    merge_bench_json("fault_recovery", "fault_recovery", payload)

    caps_rec, caps_bp = _recovery_stats(results["CAPSys"])
    evenly_rec, evenly_bp = _recovery_stats(results["Evenly"])
    # Both controllers replan on the crash; CAPS also knows about the
    # straggler and must come back strictly cleaner.
    assert caps_rec <= evenly_rec
    assert caps_bp < 0.9 * evenly_bp
