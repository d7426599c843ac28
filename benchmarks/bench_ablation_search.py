"""Ablation benchmarks for the CAPS design choices (DESIGN.md section 5).

Not a paper table — these quantify how much each mechanism contributes:

- exploration reordering (section 4.4.2): node expansions saved under a
  tight threshold;
- systematic search vs the greedy warm start: plan-cost improvement;
- CAPS vs naive random sampling at an equal candidate budget;
- partitioned search: correctness-preserving process-pool scaling.
"""

import sys
import time

sys.path.insert(0, "benchmarks")
from _helpers import run_once

from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.dataflow.physical import PhysicalGraph
from repro.core.cost_model import CostModel, TaskCosts
from repro.core.greedy import greedy_balanced_plan
from repro.core.parallel import ProcessCapsSearch
from repro.core.search import CapsSearch, SearchLimits
from repro.experiments.reporting import format_table
from repro.placement.random_search import random_feasible_plan
from repro.workloads import q2_join, q3_inf

import random


def q3_model(slots=4, workers=8, rate=3000.0, parallelism=(2, 5, 12, 5)):
    graph = q3_inf(*parallelism)
    cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(slots), count=workers)
    physical = PhysicalGraph.expand(graph)
    costs = TaskCosts.from_specs(physical, {("Q3-inf", "source"): rate})
    return physical, cluster, CostModel(physical, cluster, costs)


def test_ablation_reordering(benchmark):
    """Node expansions with and without exploration reordering."""
    _, _, model = q3_model()

    def study():
        rows = []
        for alpha in (0.3, 0.2, 0.15):
            plain = CapsSearch(
                model, thresholds={"cpu": alpha}, reorder=False, collect_pareto=False
            ).run()
            reordered = CapsSearch(
                model, thresholds={"cpu": alpha}, reorder=True, collect_pareto=False
            ).run()
            rows.append((alpha, plain.stats.nodes, reordered.stats.nodes))
        return rows

    rows = run_once(benchmark, study)
    print()
    print(
        format_table(
            ["alpha_cpu", "#nodes", "#nodes w/ reordering", "saved"],
            [
                [a, n, nr, f"{(1 - nr / max(1, n)):.0%}"]
                for a, n, nr in rows
            ],
            title="Ablation -- exploration reordering (Q3-inf, 24 tasks)",
        )
    )
    assert all(nr <= n for _, n, nr in rows)


def test_ablation_search_vs_greedy(benchmark):
    """How much does systematic search improve on the greedy seed?"""
    physical, cluster, model = q3_model()
    weights = {"cpu": 1.0, "io": 1.0, "net": 1.0}

    def study():
        greedy_cost = model.cost(greedy_balanced_plan(model, weights))
        search = CapsSearch(model, thresholds={"cpu": 0.3}, selection_weights=weights)
        result = search.run(SearchLimits(timeout_s=10.0))
        return greedy_cost, result.best_cost

    greedy_cost, search_cost = run_once(benchmark, study)
    print()
    print(
        format_table(
            ["method", "C_cpu", "C_io", "C_net", "weighted total"],
            [
                ["greedy", round(greedy_cost.cpu, 3), round(greedy_cost.io, 3),
                 round(greedy_cost.net, 3), round(greedy_cost.weighted_total(weights), 3)],
                ["CAPS search", round(search_cost.cpu, 3), round(search_cost.io, 3),
                 round(search_cost.net, 3), round(search_cost.weighted_total(weights), 3)],
            ],
            title="Ablation -- greedy warm start vs systematic search",
        )
    )
    assert search_cost.weighted_total(weights) <= greedy_cost.weighted_total(weights) + 1e-9


def test_ablation_caps_vs_random_sampling(benchmark):
    """CAPS vs best-of-N random plans at a matched candidate budget."""
    physical, cluster, model = q3_model()

    def study():
        search = CapsSearch(model, thresholds={"cpu": 0.3}, collect_pareto=True)
        result = search.run(SearchLimits(timeout_s=10.0))
        budget = max(1, result.stats.plans_found)
        rng = random.Random(0)
        best_random = None
        for _ in range(min(budget, 5000)):
            plan = random_feasible_plan(physical, cluster, rng)
            cost = model.cost(plan)
            if best_random is None or cost.total() < best_random.total():
                best_random = cost
        return result.best_cost, best_random, budget

    caps_cost, random_cost, budget = run_once(benchmark, study)
    print()
    print(
        format_table(
            ["method", "candidates", "total cost"],
            [
                ["CAPS", budget, round(caps_cost.total(), 3)],
                ["random sampling", min(budget, 5000), round(random_cost.total(), 3)],
            ],
            title="Ablation -- CAPS vs random sampling at equal budget",
        )
    )
    assert caps_cost.total() <= random_cost.total() + 1e-9


def test_ablation_parallel_jobs(benchmark):
    """Process-pool scaling of the partitioned search (correctness and
    work partitioning are the point; speedup needs free cores)."""
    def study():
        rows = []
        for jobs in (1, 2, 4):
            _, _, model = q3_model(parallelism=(1, 3, 6, 3))
            search = CapsSearch(model, thresholds={"cpu": 0.5}, collect_pareto=True)
            started = time.monotonic()
            result = ProcessCapsSearch(search, jobs=jobs).run()
            rows.append(
                (jobs, time.monotonic() - started,
                 result.stats.plans_found, result.best_cost.total())
            )
        return rows

    rows = run_once(benchmark, study)
    print()
    print(
        format_table(
            ["jobs", "time (s)", "plans", "best total cost"],
            [[j, round(el, 3), plans, round(cost, 4)] for j, el, plans, cost in rows],
            title="Ablation -- partitioned search on a process pool",
        )
    )
    # identical result quality regardless of the worker count
    costs = {round(cost, 9) for _, _, _, cost in rows}
    assert len(costs) == 1
    plans = {p for _, _, p, _ in rows}
    assert len(plans) == 1
