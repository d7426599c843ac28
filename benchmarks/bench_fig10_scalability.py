"""Figure 10: CAPS placement-search and auto-tuning scalability.

Paper section 6.5, with Q2-join:

- (a) time for CAPS to find the *first* plan satisfying three
  empirically chosen threshold vectors, with the problem size growing
  from 16 to 256 tasks (paper: tens of milliseconds, <= 100 ms);
- (b) threshold auto-tuning runtime across worker/slot combinations
  (paper: ~1 s for small deployments to ~125 s at 1024 tasks on their
  20-core machine; our single-threaded Python build runs the same
  sweep at reduced maximum scale and reports the same growth shape).
  Each config's runtime, probe count and thresholds go to
  ``BENCH_perf.json`` section ``fig10_autotune`` with the commit that
  produced them and, under ``previous``, the last result of another
  commit (run it at a parent and then at its change for a
  before/after pair).

Its assertions are about shape only, so host speed does not matter:

    PYTHONPATH=src python -m pytest benchmarks/bench_fig10_scalability.py -q -s
"""

import sys
import time

sys.path.insert(0, "benchmarks")
from _helpers import current_commit, merge_bench_section_with_previous, run_once

from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.dataflow.physical import PhysicalGraph
from repro.core.autotune import ThresholdAutoTuner
from repro.core.greedy import greedy_threshold_seed
from repro.core.cost_model import CostModel, TaskCosts
from repro.core.search import CapsSearch, SearchLimits
from repro.experiments.reporting import format_table
from repro.workloads import q2_join

# The paper times three empirically obtained threshold vectors of
# increasing looseness (alpha_1 tightest). Their absolute values are
# specific to the authors' Q2 instance; we derive the same three
# granularity levels empirically for ours, anchored on the cost of a
# feasible balanced plan (margin 2% / 30% / 100%), so every probe has a
# satisfying plan to find — as in the paper's setup.
ALPHA_MARGINS = (("alpha_1", 0.02), ("alpha_2", 0.30), ("alpha_3", 1.00))


def scaled_q2(total_tasks: int):
    """Q2-join scaled so the physical graph has ``total_tasks`` tasks.

    Structure: 2 sources + 2x maps + join; the join takes half the
    tasks and the maps share the rest, mirroring the paper's scaling of
    slots alongside tasks.
    """
    join_p = max(1, total_tasks // 2)
    map_p = max(1, (total_tasks - join_p - 2) // 2)
    remainder = total_tasks - join_p - 2 * map_p - 2
    join_p += remainder
    graph = q2_join(
        source_parallelism=1, map_parallelism=map_p, join_parallelism=join_p
    )
    assert graph.total_tasks() == total_tasks
    return graph


#: Per-source driving rate per task: high enough that the join tasks'
#: I/O utilisation makes the state-access dimension performance-
#: sensitive (worst-case co-location oversubscribes a disk), so the
#: auto-tuner has real thresholds to find at every problem size.
RATE_PER_TASK = 2600.0


def make_model(total_tasks: int, slots_per_worker: int = 16):
    workers = max(2, -(-total_tasks // slots_per_worker))
    cluster = Cluster.homogeneous(
        R5D_XLARGE.with_slots(slots_per_worker), count=workers
    )
    graph = scaled_q2(total_tasks)
    physical = PhysicalGraph.expand(graph)
    rate = RATE_PER_TASK * total_tasks
    costs = TaskCosts.from_specs(
        physical,
        {("Q2-join", op): rate for op in graph.sources()},
    )
    return CostModel(physical, cluster, costs)


def test_fig10a_first_plan_search_time(benchmark):
    sizes = (16, 32, 64, 128, 256)

    def study():
        rows = []
        for total in sizes:
            model = make_model(total)
            timings = []
            for _label, margin in ALPHA_MARGINS:
                alpha = greedy_threshold_seed(model, margin=margin)
                search = CapsSearch(model, thresholds=alpha, collect_pareto=False)
                started = time.monotonic()
                result = search.run(
                    SearchLimits(first_satisfying=True, timeout_s=30.0)
                )
                timings.append((time.monotonic() - started, result.found))
            rows.append((total, timings))
        return rows

    rows = run_once(benchmark, study)

    print()
    print(
        format_table(
            ["tasks", "alpha_1 (ms)", "alpha_2 (ms)", "alpha_3 (ms)"],
            [
                [total] + [round(t * 1000.0, 1) for t, _found in timings]
                for total, timings in rows
            ],
            title="Figure 10a -- time to first satisfying plan (Q2-join)",
        )
    )

    for total, timings in rows:
        for elapsed, found in timings:
            assert found, f"no plan found for {total} tasks"
            # paper: <= 100 ms; allow headroom for the Python substrate
            assert elapsed < 5.0


def test_fig10b_autotune_runtime(benchmark):
    combos = [
        (8, 4), (8, 8), (8, 16),
        (12, 8), (16, 8), (16, 16),
    ]

    def study():
        rows = []
        for workers, slots in combos:
            total = workers * slots
            cluster = Cluster.homogeneous(
                R5D_XLARGE.with_slots(slots), count=workers
            )
            graph = scaled_q2(total)
            physical = PhysicalGraph.expand(graph)
            rate = RATE_PER_TASK * total
            costs = TaskCosts.from_specs(
                physical, {("Q2-join", op): rate for op in graph.sources()}
            )
            model = CostModel(physical, cluster, costs)
            tuner = ThresholdAutoTuner(
                model,
                timeout_s=180.0,
                # near-boundary infeasibility probes are the cost driver;
                # bound each so the sweep's growth reflects problem size,
                # not a single probe's exhaustion
                search_timeout_s=1.0,
                probe_max_nodes=200_000,
            )
            result = tuner.tune()
            rows.append((workers, slots, total, result))
        return rows

    rows = run_once(benchmark, study)

    print()
    print(
        format_table(
            ["workers", "slots/worker", "tasks", "runtime (s)", "iterations", "thresholds"],
            [
                [
                    w, s, total, round(r.duration_s, 2), r.iterations,
                    f"({r.thresholds.cpu:.2f}, {r.thresholds.io:.2f}, "
                    f"{r.thresholds.net:.2f})",
                ]
                for w, s, total, r in rows
            ],
            title="Figure 10b -- threshold auto-tuning runtime (Q2-join)",
        )
    )

    merge_bench_section_with_previous(
        "perf",
        "fig10_autotune",
        {
            "commit": current_commit(),
            "smoke": False,
            "workload": "Q2-join scaled to workers x slots/worker, autotuned",
            "configs": {
                f"{w}x{s}": {
                    "duration_s": round(r.duration_s, 3),
                    "probes": r.iterations,
                    "thresholds": list(r.thresholds.as_tuple()),
                }
                for w, s, _total, r in rows
            },
        },
    )

    # runtime grows with the problem size (the paper's shape)
    smallest = rows[0][3].duration_s
    largest = rows[-1][3].duration_s
    assert largest >= smallest
    for _w, _s, _total, result in rows:
        assert result.feasible
    # the tuner found real (non-degenerate) bounds wherever a dimension
    # is performance-sensitive (the small configs are insensitive across
    # the board: even full co-location cannot saturate a worker there)
    tuned = [r for *_k, r in rows if min(r.thresholds.as_tuple()) < 1.0]
    assert len(tuned) >= 3
