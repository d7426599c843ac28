"""Performance-layer benchmark: search speedups and plan-eval caching.

A standalone script (not a pytest-benchmark module) that times the three
optimisations of the performance layer and verifies each one produces
results identical to the unoptimised path:

a. **Incremental DFS bookkeeping** — the optimised sequential
   :class:`~repro.core.search.CapsSearch` against the frozen
   pre-optimisation copy in :mod:`repro.core.search_reference`, on the
   Table 2 pruning workload (Q3-inf on 8 r5d.xlarge workers). Each
   alpha times both searches ``REPEATS`` times, alternating, and
   records their medians with their min-max ranges.
b. **Partitioned search** — the sequential search vs a process pool
   (``jobs`` > 1) on a full-pareto search, with bit-exact front
   equality, timed the same way. Process-pool speedup is only
   meaningful on multicore hosts; below 4 cores the criterion is
   recorded as not applicable.
c. **Plan-evaluation cache** — a Figure 7-style repeated-run sweep
   (deterministic CAPS placement simulated ``runs`` times) cold
   (``DEFAULT_CACHE`` cleared before every run) vs warm (cleared once,
   before the sweep), with byte-identical summaries. Cold also computes
   one simulation fingerprint per run (ten in the full sweep), which
   the cache-off switch of earlier commits skipped. The placement memo
   is cleared before each sweep, so both pay for one CAPS search and
   the section times the plan cache alone. Each side is timed
   ``REPEATS`` times, cold and warm alternating, and recorded as its
   median with its min-max range.

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
import statistics
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
from repro.placement.caps import PLACEMENT_MEMO
from repro.simulator.plan_cache import DEFAULT_CACHE
from repro.workloads import q3_inf, query_by_name

#: Table 2 workload (benchmarks/bench_table2_pruning.py): Q3-inf on
#: 8 r5d.xlarge workers with 4 slots each. ``--smoke`` scales the query
#: down from 24 to 18 tasks so section (a) runs in a few seconds.
SEARCH_CLUSTER = dict(spec=R5D_XLARGE, slots=4, count=8)
FULL_QUERY = dict(source=2, decode=5, inference=12, sink=5)
SMOKE_QUERY = dict(source=2, decode=4, inference=8, sink=4)
PRUNING_ALPHAS = [0.5, 0.3, 0.2]
SOURCE_RATE = 3000.0
#: Timed runs per side in every section, the sides alternating.
REPEATS = 5


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


def _alternating(candidates: dict, check) -> tuple:
    """Time each candidate ``REPEATS`` times, in turn.

    ``candidates`` maps a name to a zero-argument callable; every round
    runs each once, in order, and ``check(results)`` compares a round's
    results. Returns each name's seconds (one per round) and the last
    round's results.
    """
    times = {name: [] for name in candidates}
    for _ in range(REPEATS):
        results = {}
        for name, fn in candidates.items():
            seconds, results[name] = _timed(fn)
            times[name].append(seconds)
        check(results)
    return times, results


def _median_and_range(seconds: list) -> tuple:
    return (
        round(statistics.median(seconds), 4),
        [round(min(seconds), 4), round(max(seconds), 4)],
    )


def bench_incremental(smoke: bool) -> dict:
    """(a) optimised vs reference sequential search, identical counters,
    medians of ``REPEATS`` alternating runs each."""
    model = table2_model(smoke)
    alphas = PRUNING_ALPHAS[:1] if smoke else PRUNING_ALPHAS
    rows = []
    for alpha in alphas:

        def check(results, alpha=alpha):
            ref, opt = results["reference"], results["optimized"]
            assert _stats_key(ref.stats) == _stats_key(opt.stats), (
                f"optimised search diverged from reference at alpha={alpha}"
            )

        times, last = _alternating(
            {
                "reference": lambda: ReferenceCapsSearch(
                    model, thresholds={"cpu": alpha}, reorder=True,
                    collect_pareto=False,
                ).run(),
                "optimized": lambda: CapsSearch(
                    model, thresholds={"cpu": alpha}, reorder=True,
                    collect_pareto=False,
                ).run(),
            },
            check,
        )
        opt = last["optimized"]
        ref_s, ref_range = _median_and_range(times["reference"])
        opt_s, opt_range = _median_and_range(times["optimized"])
        rows.append(
            {
                "alpha_cpu": alpha,
                "nodes": opt.stats.nodes,
                "plans": opt.stats.plans_found,
                "reference_s": ref_s,
                "reference_range_s": ref_range,
                "optimized_s": opt_s,
                "optimized_range_s": opt_range,
                "speedup": round(ref_s / opt_s, 3) if opt_s > 0 else None,
            }
        )
        print(
            f"  alpha={alpha}, median of {REPEATS}: reference {ref_s:.3f}s "
            f"({ref_range[0]:.3f}-{ref_range[1]:.3f}), optimized {opt_s:.3f}s "
            f"({opt_range[0]:.3f}-{opt_range[1]:.3f}), {ref_s / opt_s:.2f}x, "
            f"{opt.stats.nodes} nodes, identical stats"
        )
    total_ref = sum(r["reference_s"] for r in rows)
    total_opt = sum(r["optimized_s"] for r in rows)
    speedup = total_ref / total_opt if total_opt > 0 else None
    print(f"  overall sequential speedup: {speedup:.2f}x (target >= 1.5x)")
    return {
        "workload": "table2_pruning" + ("_smoke" if smoke else ""),
        "repeats": REPEATS,
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

    def check(results):
        seq, proc = results["sequential"], results["process"]
        assert _stats_key(proc.stats) == _stats_key(seq.stats)
        assert _front_key(proc) == _front_key(seq), (
            "process-pool pareto front differs from sequential"
        )

    times, _ = _alternating(
        {
            "sequential": lambda: make().run(),
            "process": lambda: ProcessCapsSearch(make(), jobs=jobs).run(),
        },
        check,
    )
    seq_s, seq_range = _median_and_range(times["sequential"])
    proc_s, proc_range = _median_and_range(times["process"])
    cores = os.cpu_count() or 1
    process_speedup = seq_s / proc_s if proc_s > 0 else None
    applicable = cores >= 4
    print(
        f"  median of {REPEATS}: sequential {seq_s:.3f}s "
        f"({seq_range[0]:.3f}-{seq_range[1]:.3f}), process({jobs}) {proc_s:.3f}s "
        f"({proc_range[0]:.3f}-{proc_range[1]:.3f}) on {cores} core(s); "
        "fronts bit-identical"
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
        "repeats": REPEATS,
        "sequential_s": seq_s,
        "sequential_range_s": seq_range,
        "process_s": proc_s,
        "process_range_s": proc_range,
        "process_speedup": round(process_speedup, 3),
        "meets_2x_on_4_cores": (process_speedup >= 2.0) if applicable else "n/a",
        "results_identical": True,
    }


def bench_plan_cache(smoke: bool) -> dict:
    """(c) Fig. 7-style repeated-run sweep, cold vs warm, medians of
    ``REPEATS`` alternating sweeps each."""
    runs = 4 if smoke else 10
    duration = 120.0 if smoke else 300.0
    warmup = 50.0 if smoke else 120.0
    preset = query_by_name("Q1-sliding")
    cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(4), count=4)
    graph = preset.build()
    rate = preset.target_rate
    rates = {(graph.job_id, op): rate for op in graph.sources()}

    def sweep(cold):
        # Each sweep pays for one CAPS search, so the two differ only in
        # the plan cache: cold empties it before every run, warm once.
        PLACEMENT_MEMO.clear()
        DEFAULT_CACHE.clear()
        strategy = CapsStrategy(rates)
        box = dict(duration_s=duration, warmup_s=warmup)
        if not cold:
            return strategy_box_runs(
                graph, cluster, strategy, rate, runs=runs, **box
            )
        out = []
        for run_index in range(runs):
            DEFAULT_CACHE.clear()
            out += strategy_box_runs(
                graph, cluster, strategy, rate, runs=1, base_seed=run_index,
                **box,
            )
        return out

    expected = []

    def check(results):
        # every sweep, cold or warm, gives the first sweep's summaries
        for result in results.values():
            summaries = [r.only for r in result]
            if not expected:
                expected.extend(summaries)
            assert summaries == expected, (
                "warm-cache summaries differ from fresh simulations"
            )

    times, _ = _alternating(
        {"cold": lambda: sweep(True), "warm": lambda: sweep(False)}, check
    )
    # the last sweep was warm
    hits, misses = DEFAULT_CACHE.hits, DEFAULT_CACHE.misses
    cold_s, cold_range = _median_and_range(times["cold"])
    warm_s, warm_range = _median_and_range(times["warm"])
    speedup = cold_s / warm_s if warm_s > 0 else None
    print(
        f"  {runs}-run sweep, median of {REPEATS}: cold {cold_s:.3f}s "
        f"({cold_range[0]:.3f}-{cold_range[1]:.3f}), warm {warm_s:.3f}s "
        f"({warm_range[0]:.3f}-{warm_range[1]:.3f}), {speedup:.2f}x, "
        f"{hits} hits/{misses} misses; summaries byte-identical"
    )
    return {
        "workload": f"{preset.name} x{runs} runs, {duration:.0f}s simulated",
        "runs": runs,
        "repeats": REPEATS,
        "cold_s": cold_s,
        "cold_range_s": cold_range,
        "warm_s": warm_s,
        "warm_range_s": warm_range,
        "speedup": round(speedup, 3),
        "cache_hits": hits,
        "cache_misses": misses,
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
