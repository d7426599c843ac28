"""Control-plane resilience: guarded vs unguarded under degraded telemetry.

DESIGN.md section 11: the *world* stays healthy while the controller's
inputs lie — a corrupted rate metric inflates one operator's true rate
50x for a window, then the next reconfiguration's deploy attempts fail.
Three legs run the same workload (a rate step up and back down on
Q1-sliding over a 5-worker cluster):

- **clean** — no control chaos; the baseline cost of the rate steps.
- **guarded** — chaos on, guard pipeline armed: implausible samples are
  rejected and substituted, failed deploys retried with backoff, and
  the watchdog rides out the corruption window in safe mode.
- **unguarded** — chaos on, guards off (the ablation): DS2 trusts the
  lie and scales the job into the ground, and a failed deploy goes
  undetected, leaving a zombie until the next reconfiguration.

The figure of merit is cumulative post-fault backpressure-seconds. The
script asserts the guarded leg stays within 2x of clean while the
unguarded leg is at least 5x worse, and verifies the guarded run's
control-plane trace (rejections, retries, safe-mode spans) is
byte-identical with and without fast-forward.

Results merge into ``BENCH_fault_recovery.json`` (section
``control_resilience``) alongside the data-plane recovery bench.

Usage:
    PYTHONPATH=src python benchmarks/bench_control_resilience.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _helpers import merge_bench_json

from repro.controller.capsys import CAPSysController, ControllerConfig
from repro.controller.guards import GuardConfig
from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.experiments.reporting import format_table
from repro.faults import ControlChaosSchedule
from repro.observability import Tracer
from repro.simulator.engine import SimulationConfig
from repro.workloads import query_by_name
from repro.workloads.rates import StepSchedule

CLUSTER = Cluster.homogeneous(R5D_XLARGE.with_slots(6), count=5)


def scenario(smoke: bool) -> dict:
    """Workload + chaos schedule, full-size or CI-shrunken."""
    if smoke:
        return {
            "duration_s": 450.0,
            "fault_at_s": 100.0,
            "steps": ((0.0, 5000.0), (150.0, 10000.0), (300.0, 5000.0)),
            "chaos_spec": (
                "metric_corrupt:opsliding_window@100for40x50,"
                "deploy_fail:@140x2"
            ),
        }
    return {
        "duration_s": 900.0,
        "fault_at_s": 200.0,
        "steps": ((0.0, 5000.0), (300.0, 10000.0), (600.0, 5000.0)),
        "chaos_spec": (
            "metric_corrupt:opsliding_window@200for80x50,"
            "deploy_fail:@290x2"
        ),
    }


def _config(guarded: bool, fast_forward: bool = False) -> ControllerConfig:
    return ControllerConfig(
        policy_interval_s=5.0,
        activation_time_s=60.0,
        rescale_downtime_s=5.0,
        profiling_duration_s=90.0,
        guards=GuardConfig(enabled=guarded),
        sim=SimulationConfig(fast_forward=fast_forward),
    )


def run_leg(
    scn: dict,
    chaos_spec: str | None,
    guarded: bool,
    fast_forward: bool = False,
    tracer: Tracer | None = None,
):
    graph = query_by_name("Q1-sliding").build()
    pattern = StepSchedule(scn["steps"])
    control_chaos = (
        ControlChaosSchedule.parse(chaos_spec) if chaos_spec else None
    )
    controller = CAPSysController(
        graph, CLUSTER, config=_config(guarded, fast_forward), tracer=tracer
    )
    result = controller.run_adaptive(
        {op: pattern for op in graph.sources()},
        duration_s=scn["duration_s"],
        control_chaos=control_chaos,
    )
    return result, controller


def post_fault_backpressure_s(result, fault_at_s: float) -> float:
    """Integral of backpressure over sim time after the first fault."""
    cumulative = 0.0
    previous_t = fault_at_s
    for sample in result.samples:
        if sample.time_s <= fault_at_s:
            continue
        cumulative += sample.backpressure * (sample.time_s - previous_t)
        previous_t = sample.time_s
    return cumulative


def control_plane_records(tracer: Tracer) -> list:
    """Sim-domain control-plane records, stripped of stream position.

    Fast-forward legitimately replaces per-tick engine records with
    leap events, which shifts the interleaved ``seq`` numbers; what the
    control plane emits must survive byte-identical.
    """
    return [
        {k: v for k, v in r.items() if k != "seq"}
        for r in tracer.records
        if r["clock"] == "sim" and r["cat"] in ("controller", "control_fault")
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrunken horizons for CI (finishes in seconds)",
    )
    parser.add_argument(
        "--out-dir", default=".",
        help="directory for BENCH_fault_recovery.json",
    )
    args = parser.parse_args(argv)
    scn = scenario(args.smoke)
    fault_at = scn["fault_at_s"]

    print("[1/4] clean baseline (no control chaos)")
    clean_result, _ = run_leg(scn, None, guarded=True)
    print("[2/4] guarded run under control chaos")
    guarded_tracer = Tracer(run_id="guarded")
    guarded_result, guarded_ctl = run_leg(
        scn, scn["chaos_spec"], guarded=True, tracer=guarded_tracer
    )
    print("[3/4] unguarded ablation under the same chaos")
    unguarded_result, unguarded_ctl = run_leg(
        scn, scn["chaos_spec"], guarded=False
    )
    print("[4/4] guarded run again with --fast-forward")
    ff_tracer = Tracer(run_id="guarded")
    run_leg(
        scn, scn["chaos_spec"], guarded=True, fast_forward=True,
        tracer=ff_tracer,
    )

    reference = control_plane_records(guarded_tracer)
    assert reference == control_plane_records(ff_tracer), (
        "guarded control-plane trace must be byte-identical under "
        "fast-forward"
    )
    safe_mode_spans = [
        r for r in reference if r["name"] == "controller.safe_mode"
    ]
    assert safe_mode_spans, "watchdog safe-mode span must be in the trace"

    guard = guarded_ctl.last_guard
    assert guard is not None and unguarded_ctl.last_guard is None
    legs = {
        "clean": clean_result,
        "guarded": guarded_result,
        "unguarded": unguarded_result,
    }
    bp = {
        name: post_fault_backpressure_s(result, fault_at)
        for name, result in legs.items()
    }
    rows = [
        [name, round(bp[name], 1), legs[name].rescale_count()]
        for name in legs
    ]
    print()
    print(
        format_table(
            ["leg", "post-fault backpressure (s)", "rescales"],
            rows,
            title=(
                f"control-plane resilience (telemetry corrupt from "
                f"{fault_at:.0f} s, deploy failures at the next rescale)"
            ),
        )
    )
    payload = {
        "smoke": args.smoke,
        "chaos": scn["chaos_spec"],
        "post_fault_backpressure_s": bp,
        "rescales": {n: legs[n].rescale_count() for n in legs},
        "guard": {
            "rejections_total": guard.total_rejections,
            "safe_mode_entries": guard.safe_mode_entries,
            "rounds": dict(guard.rounds),
        },
        "fast_forward_identical": True,
    }
    path = merge_bench_json(
        "fault_recovery", "control_resilience", payload,
        directory=args.out_dir,
    )
    print(f"wrote {path}")

    # The guard earns its keep: degraded telemetry barely moves the
    # guarded run, while the unguarded controller propagates the lie.
    assert bp["guarded"] <= 2.0 * bp["clean"], (
        f"guarded leg too slow: {bp['guarded']:.1f} vs clean {bp['clean']:.1f}"
    )
    assert bp["unguarded"] >= 5.0 * bp["clean"], (
        f"unguarded leg unexpectedly healthy: {bp['unguarded']:.1f} "
        f"vs clean {bp['clean']:.1f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
