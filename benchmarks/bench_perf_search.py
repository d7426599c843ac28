"""Performance-layer benchmark: search speedups and plan-eval caching.

A standalone script (not a pytest-benchmark module) that times the three
optimisations of the performance layer and verifies each one produces
results identical to the unoptimised path:

a. **Incremental DFS bookkeeping** — the optimised sequential
   :class:`~repro.core.search.CapsSearch` against the frozen
   pre-optimisation copy in :mod:`repro.core.search_reference`, on the
   Table 2 pruning workload (Q3-inf on 8 r5d.xlarge workers).
b. **Partitioned search** — the sequential search vs a process pool
   (``jobs`` > 1) on a full-pareto search, with bit-exact front
   equality. Process-pool speedup is only meaningful on multicore
   hosts; below 4 cores the criterion is recorded as not applicable.
c. **Plan-evaluation cache** — a Figure 7-style repeated-run sweep
   (deterministic CAPS placement simulated ``RUNS`` times) cold
   (``cache=None``) vs warm (a fresh cache), with byte-identical
   summaries.

Results are printed and merged into ``BENCH_perf.json`` in the working
directory as three sections, each labelled with the commit and the
smoke flag; the last result from another commit stays under
``previous``, and the file's other sections are kept. ``--smoke``
shrinks every workload so the whole script finishes well under a
minute for CI.

Usage:
    PYTHONPATH=src python benchmarks/bench_perf_search.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _helpers import current_commit, merge_bench_section_with_previous

from repro.core.cost_model import CostModel, TaskCosts
from repro.core.parallel import ProcessCapsSearch
from repro.core.search import CapsSearch, SearchLimits
from repro.core.search_reference import ReferenceCapsSearch
from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.dataflow.physical import PhysicalGraph
from repro.experiments.runner import strategy_box_runs
from repro.placement import CapsStrategy
from repro.simulator.plan_cache import PlanEvaluationCache
from repro.workloads import q3_inf, query_by_name

#: Table 2 workload (benchmarks/bench_table2_pruning.py): Q3-inf on
#: 8 r5d.xlarge workers with 4 slots each. ``--smoke`` scales the query
#: down from 24 to 18 tasks so section (a) runs in a few seconds.
SEARCH_CLUSTER = dict(spec=R5D_XLARGE, slots=4, count=8)
FULL_QUERY = dict(source=2, decode=5, inference=12, sink=5)
SMOKE_QUERY = dict(source=2, decode=4, inference=8, sink=4)
PRUNING_ALPHAS = [0.5, 0.3, 0.2]
SOURCE_RATE = 3000.0


def table2_model(smoke: bool) -> CostModel:
    shape = SMOKE_QUERY if smoke else FULL_QUERY
    graph = q3_inf(shape["source"], shape["decode"], shape["inference"], shape["sink"])
    cluster = Cluster.homogeneous(
        SEARCH_CLUSTER["spec"].with_slots(SEARCH_CLUSTER["slots"]),
        count=SEARCH_CLUSTER["count"],
    )
    physical = PhysicalGraph.expand(graph)
    costs = TaskCosts.from_specs(physical, {("Q3-inf", "source"): SOURCE_RATE})
    return CostModel(physical, cluster, costs)


def _stats_key(stats):
    return (
        stats.nodes,
        stats.plans_found,
        stats.pruned_slots,
        stats.pruned_cpu,
        stats.pruned_io,
        stats.pruned_net,
    )


def _front_key(result):
    return sorted(
        (cost.as_tuple(), tuple(sorted(plan.assignment.items())))
        for cost, plan in result.pareto.entries()
    )


def _timed(fn):
    """Time ``fn()`` in a fresh thread and return ``(seconds, value)``.

    The thread is not for parallelism — it pins the measurement to a
    reproducible stack alignment. CPython 3.11 allocates the frame
    ("data") stack in fixed-size chunks per thread; when a deep
    recursion oscillates across a chunk boundary, every call at the
    boundary pays an mmap/munmap, which can inflate a DFS run ~3x.
    Whether a boundary lands inside the recursion depends on the call
    depth at which the search *starts*, so timing the same search from
    ``main()`` vs module level can differ wildly. A fresh thread starts
    every candidate at the same shallow depth in its own first chunk,
    making timings comparable and stable regardless of the caller.
    """
    out = {}

    def work():
        start = time.perf_counter()
        out["value"] = fn()
        out["s"] = time.perf_counter() - start

    worker = threading.Thread(target=work)
    worker.start()
    worker.join()
    if "s" not in out:
        raise RuntimeError("timed candidate raised; see traceback above")
    return out["s"], out["value"]


def bench_incremental(smoke: bool) -> dict:
    """(a) optimised vs reference sequential search, identical counters."""
    model = table2_model(smoke)
    alphas = PRUNING_ALPHAS[:1] if smoke else PRUNING_ALPHAS
    rows = []
    for alpha in alphas:
        ref_s, ref = _timed(
            lambda: ReferenceCapsSearch(
                model, thresholds={"cpu": alpha}, reorder=True, collect_pareto=False
            ).run()
        )
        opt_s, opt = _timed(
            lambda: CapsSearch(
                model, thresholds={"cpu": alpha}, reorder=True, collect_pareto=False
            ).run()
        )
        assert _stats_key(ref.stats) == _stats_key(opt.stats), (
            f"optimised search diverged from reference at alpha={alpha}"
        )
        rows.append(
            {
                "alpha_cpu": alpha,
                "nodes": opt.stats.nodes,
                "plans": opt.stats.plans_found,
                "reference_s": round(ref_s, 4),
                "optimized_s": round(opt_s, 4),
                "speedup": round(ref_s / opt_s, 3) if opt_s > 0 else None,
            }
        )
        print(
            f"  alpha={alpha}: reference {ref_s:.3f}s, optimized {opt_s:.3f}s "
            f"({ref_s / opt_s:.2f}x), {opt.stats.nodes} nodes, identical stats"
        )
    total_ref = sum(r["reference_s"] for r in rows)
    total_opt = sum(r["optimized_s"] for r in rows)
    speedup = total_ref / total_opt if total_opt > 0 else None
    print(f"  overall sequential speedup: {speedup:.2f}x (target >= 1.5x)")
    return {
        "workload": "table2_pruning" + ("_smoke" if smoke else ""),
        "alphas": rows,
        "speedup": round(speedup, 3),
        "meets_1_5x": speedup >= 1.5,
        "results_identical": True,
    }


def bench_backends(smoke: bool) -> dict:
    """(b) sequential vs process-pool full-pareto search."""
    shape = dict(source=2, decode=3, inference=5, sink=3) if smoke else dict(
        source=2, decode=4, inference=7, sink=4
    )
    graph = q3_inf(shape["source"], shape["decode"], shape["inference"], shape["sink"])
    cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(4), count=6)
    physical = PhysicalGraph.expand(graph)
    costs = TaskCosts.from_specs(physical, {("Q3-inf", "source"): SOURCE_RATE})
    model = CostModel(physical, cluster, costs)

    def make():
        return CapsSearch(model, thresholds={"cpu": 0.5}, reorder=True)

    jobs = max(2, os.cpu_count() or 1)
    seq_s, seq = _timed(lambda: make().run())
    proc_s, proc = _timed(lambda: ProcessCapsSearch(make(), jobs=jobs).run())

    assert _stats_key(proc.stats) == _stats_key(seq.stats)
    assert _front_key(proc) == _front_key(seq), (
        "process-pool pareto front differs from sequential"
    )
    cores = os.cpu_count() or 1
    process_speedup = seq_s / proc_s if proc_s > 0 else None
    applicable = cores >= 4
    print(
        f"  sequential {seq_s:.3f}s, process({jobs}) {proc_s:.3f}s "
        f"on {cores} core(s); fronts bit-identical"
    )
    if not applicable:
        print(
            f"  process-speedup criterion n/a: {cores} core(s) < 4 "
            "(the pool cannot outrun one core here)"
        )
    return {
        "workload": f"q3_inf full pareto, {sum(shape.values())} tasks, 6 workers",
        "jobs": jobs,
        "cpu_count": cores,
        "sequential_s": round(seq_s, 4),
        "process_s": round(proc_s, 4),
        "process_speedup": round(process_speedup, 3),
        "meets_2x_on_4_cores": (process_speedup >= 2.0) if applicable else "n/a",
        "results_identical": True,
    }


def bench_plan_cache(smoke: bool) -> dict:
    """(c) Fig. 7-style repeated-run sweep, cold vs warm."""
    runs = 4 if smoke else 10
    duration = 120.0 if smoke else 300.0
    warmup = 50.0 if smoke else 120.0
    preset = query_by_name("Q1-sliding")
    cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(4), count=4)
    graph = preset.build()
    rate = preset.target_rate
    rates = {(graph.job_id, op): rate for op in graph.sources()}

    def sweep(cache):
        strategy = CapsStrategy(rates)
        return strategy_box_runs(
            graph, cluster, strategy, rate,
            runs=runs, duration_s=duration, warmup_s=warmup, cache=cache,
        )

    cold_s, cold = _timed(lambda: sweep(None))
    warm_cache = PlanEvaluationCache()
    warm_s, warm = _timed(lambda: sweep(warm_cache))

    assert [r.only for r in warm] == [r.only for r in cold], (
        "warm-cache summaries differ from fresh simulations"
    )
    speedup = cold_s / warm_s if warm_s > 0 else None
    print(
        f"  {runs}-run sweep: cold {cold_s:.3f}s, warm {warm_s:.3f}s "
        f"({speedup:.2f}x, {warm_cache.hits} hits/{warm_cache.misses} misses); "
        "summaries byte-identical"
    )
    return {
        "workload": f"{preset.name} x{runs} runs, {duration:.0f}s simulated",
        "runs": runs,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 3),
        "cache_hits": warm_cache.hits,
        "cache_misses": warm_cache.misses,
        "meets_5x": speedup >= 5.0,
        "results_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrunken workloads for CI (finishes in well under a minute)",
    )
    parser.add_argument(
        "--out-dir", default=".", help="directory for BENCH_perf.json"
    )
    args = parser.parse_args(argv)

    print("[a] incremental DFS bookkeeping (sequential, vs frozen reference)")
    incremental = bench_incremental(args.smoke)
    print("[b] partitioned search (sequential vs process pool)")
    backends = bench_backends(args.smoke)
    print("[c] plan-evaluation cache (cold vs warm sweep)")
    cache = bench_plan_cache(args.smoke)

    label = {"commit": current_commit(), "smoke": args.smoke}
    for section, payload in (
        ("incremental_search", incremental),
        ("search_backends", backends),
        ("plan_cache", cache),
    ):
        path = merge_bench_section_with_previous(
            "perf", section, {**label, **payload}, directory=args.out_dir
        )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
