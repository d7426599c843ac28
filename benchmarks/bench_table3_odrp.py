"""Table 3: comparison with the ODRP joint replication+placement ILP.

Paper section 6.3, on Q3-inf over 4 c5d.4xlarge workers (8 slots each):
CAPSys reaches the target throughput with low backpressure in ~0.2 s of
decision time, while ODRP's configurations either under-provision
(Default/Weighted: low throughput, high backpressure) or over-provision
(Latency: near-target throughput at the highest slot count), and the
ILP takes orders of magnitude longer to solve as the instance grows.
"""

import sys
import time

sys.path.insert(0, "benchmarks")
from _helpers import DURATION_S, WARMUP_S, profiled_controller, run_once

from repro.dataflow.cluster import C5D_4XLARGE, Cluster
from repro.experiments import make_odrp_cluster
from repro.experiments.reporting import format_percent, format_table
from repro.placement.caps import PLACEMENT_MEMO
from repro.placement.odrp import OdrpConfig, OdrpSolver
from repro.simulator.engine import FluidSimulation
from repro.workloads import q3_inf

TARGET = 4000.0


def test_table3_odrp_comparison(benchmark):
    cluster = make_odrp_cluster()

    def study():
        graph = q3_inf()
        controller = profiled_controller(graph, cluster)
        unit_costs = controller.profile()
        rows = []

        # Time a computed decision, not a hit on one an earlier bench stored.
        PLACEMENT_MEMO.clear()
        started = time.monotonic()
        deployment = controller.deploy({"source": TARGET})
        caps_decision = time.monotonic() - started
        summary = deployment.engine.run(DURATION_S, warmup_s=WARMUP_S).only
        rows.append(("CAPSys", summary, deployment.total_tasks, caps_decision))

        by_name = {key[1]: uc for key, uc in unit_costs.items()}
        for config in (OdrpConfig.default(), OdrpConfig.weighted(), OdrpConfig.latency()):
            solver = OdrpSolver(
                graph,
                cluster,
                by_name,
                {"source": TARGET},
                config=config,
                max_parallelism=16,
                fixed_parallelism={"source": 1},
            )
            result = solver.solve()
            sim = FluidSimulation(
                result.physical, cluster, result.plan,
                {("Q3-inf", "source"): TARGET},
            )
            summary = sim.run(DURATION_S, warmup_s=WARMUP_S).only
            rows.append(
                (config.label, summary, result.slots_used, result.decision_time_s)
            )
        return rows

    rows = run_once(benchmark, study)

    print()
    print(
        format_table(
            [
                "policy", "backpressure", "throughput (rec/s)",
                "avg latency (s)", "resources (#slots)", "decision time (s)",
            ],
            [
                [
                    label,
                    format_percent(s.backpressure),
                    round(s.throughput),
                    round(s.latency_s, 3),
                    slots,
                    round(decision, 3),
                ]
                for label, s, slots, decision in rows
            ],
            title=f"Table 3 -- ODRP comparison on Q3-inf (target {TARGET:.0f} rec/s)",
        )
    )

    by_label = {label: (s, slots, t) for label, s, slots, t in rows}
    caps, caps_slots, _ = by_label["CAPSys"]
    default, default_slots, _ = by_label["ODRP-Default"]
    weighted, _, _ = by_label["ODRP-Weighted"]
    latency, latency_slots, _ = by_label["ODRP-Latency"]

    # CAPSys is the only policy that reaches the target
    assert caps.meets_target()
    assert not default.meets_target()
    # Default under-provisions hard: high backpressure, few slots
    assert default.backpressure > 0.5
    assert default_slots < caps_slots
    # Weighted sits between Default and Latency
    assert default.throughput < weighted.throughput < caps.throughput + 1e-9
    # Latency over-provisions: the most slots of the ODRP configs
    assert latency_slots >= default_slots
    # CAPSys achieves multiple times ODRP-Default's throughput (paper: ~6x)
    assert caps.throughput > default.throughput * 3


def test_table3_odrp_decision_time_scaling(benchmark):
    """ODRP's decision time grows quickly with the instance size, while
    CAPS placement stays sub-second (the paper's scalability critique,
    section 2.2 / 6.3)."""

    def study():
        graph = q3_inf()
        rows = []
        for workers, k_max in ((4, 8), (4, 16), (8, 16), (8, 24)):
            cluster = Cluster.homogeneous(C5D_4XLARGE.with_slots(8), count=workers)
            controller = profiled_controller(graph, cluster)
            by_name = {key[1]: uc for key, uc in controller.profile().items()}
            solver = OdrpSolver(
                graph, cluster, by_name, {"source": TARGET},
                config=OdrpConfig.default(),
                max_parallelism=k_max,
                fixed_parallelism={"source": 1},
                time_limit_s=300.0,
            )
            result = solver.solve()
            # (4, 8) and (4, 16) place the same problem: time both.
            PLACEMENT_MEMO.clear()
            started = time.monotonic()
            controller.deploy({"source": TARGET})
            caps_time = time.monotonic() - started
            rows.append((workers, k_max, result.decision_time_s, caps_time))
        return rows

    rows = run_once(benchmark, study)
    print()
    print(
        format_table(
            ["workers", "max parallelism", "ODRP decision (s)", "CAPSys decision (s)"],
            [[w, k, round(t, 3), round(c, 3)] for w, k, t, c in rows],
            title="Table 3 (supplement) -- decision-time scaling",
        )
    )
    # the largest ODRP instance costs more than the smallest
    assert rows[-1][2] > rows[0][2]
