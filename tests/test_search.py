"""Unit tests for the CAPS outer/inner DFS search (paper sections 4.3-4.4).

The enumeration correctness tests compare the search's duplicate-
eliminated plan set against a brute-force enumeration collapsed by the
worker-permutation-invariant canonical signature.
"""

import itertools
import math

import pytest

from repro.dataflow.cluster import Cluster, Worker, WorkerSpec
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.core.cost_model import CostModel, CostVector, TaskCosts
from repro.core.plan import PlacementPlan
from repro.core.search import CapsSearch, SearchLimits

SPEC = WorkerSpec(cpu_capacity=4.0, disk_bandwidth=1e8, network_bandwidth=1e9, slots=3)


def make_problem(parallelisms=(2, 3), workers=3, slots=3, io_heavy_last=True):
    g = LogicalGraph("g")
    names = []
    for i, p in enumerate(parallelisms):
        name = f"op{i}"
        names.append(name)
        is_last = i == len(parallelisms) - 1
        g.add_operator(
            OperatorSpec(
                name,
                cpu_per_record=1e-4 * (i + 1),
                io_bytes_per_record=5_000.0 if (is_last and io_heavy_last) else 0.0,
                out_record_bytes=100.0,
                is_source=(i == 0),
            ),
            parallelism=p,
        )
        if i > 0:
            g.add_edge(names[i - 1], name, Partitioning.HASH)
    physical = PhysicalGraph.expand(g)
    cluster = Cluster.homogeneous(SPEC.with_slots(slots), count=workers)
    costs = TaskCosts.from_specs(physical, {("g", "op0"): 1000.0})
    return physical, cluster, CostModel(physical, cluster, costs)


def brute_force_signatures(physical, cluster):
    """All feasible plans collapsed by canonical signature."""
    workers = [w.worker_id for w in cluster.workers]
    slots = {w.worker_id: w.slots for w in cluster.workers}
    tasks = list(physical.tasks)
    signatures = set()
    for combo in itertools.product(workers, repeat=len(tasks)):
        usage = {}
        for w in combo:
            usage[w] = usage.get(w, 0) + 1
        if any(usage[w] > slots[w] for w in usage):
            continue
        plan = PlacementPlan({t.uid: w for t, w in zip(tasks, combo)})
        signatures.add(plan.canonical_signature(physical))
    return signatures


class TestEnumerationCorrectness:
    @pytest.mark.parametrize(
        "parallelisms,workers,slots",
        [
            ((2, 3), 3, 3),
            ((1, 2, 2), 3, 2),
            ((3,), 2, 3),
            ((2, 2), 2, 4),
        ],
    )
    def test_matches_brute_force(self, parallelisms, workers, slots):
        physical, cluster, model = make_problem(parallelisms, workers, slots)
        search = CapsSearch(model, collect_all=True, collect_pareto=False, reorder=False)
        result = search.run()
        expected = brute_force_signatures(physical, cluster)
        found = {
            plan.canonical_signature(physical) for _, plan in result.all_plans
        }
        assert found == expected
        # duplicate elimination: each signature discovered exactly once
        assert len(result.all_plans) == len(expected)

    def test_all_discovered_plans_are_valid(self):
        physical, cluster, model = make_problem((2, 3), 3, 3)
        result = CapsSearch(model, collect_all=True).run()
        for _, plan in result.all_plans:
            plan.validate(physical, cluster)

    def test_reordering_preserves_plan_set(self):
        physical, cluster, model = make_problem((2, 3, 2), 3, 3)
        plain = CapsSearch(model, collect_all=True, reorder=False).run()
        reordered = CapsSearch(model, collect_all=True, reorder=True).run()
        sig = lambda res: {
            plan.canonical_signature(physical) for _, plan in res.all_plans
        }
        assert sig(plain) == sig(reordered)

    def test_costs_match_cost_model(self):
        physical, cluster, model = make_problem((2, 2), 2, 4)
        result = CapsSearch(model, collect_all=True).run()
        for cost, plan in result.all_plans:
            reference = model.cost(plan)
            assert cost.cpu == pytest.approx(reference.cpu, abs=1e-9)
            assert cost.io == pytest.approx(reference.io, abs=1e-9)
            assert cost.net == pytest.approx(reference.net, abs=1e-9)


class TestThresholdPruning:
    def test_all_returned_plans_satisfy_thresholds(self):
        physical, cluster, model = make_problem((2, 3), 3, 3)
        thresholds = {"cpu": 0.5, "io": 0.5, "net": 1.0}
        result = CapsSearch(model, thresholds=thresholds, collect_all=True).run()
        bound = CostVector(cpu=0.5, io=0.5, net=1.0)
        assert result.stats.plans_found > 0
        for cost, _ in result.all_plans:
            assert cost.within(bound, eps=1e-6)

    def test_pruning_never_loses_satisfying_plans(self):
        physical, cluster, model = make_problem((2, 3), 3, 3)
        unpruned = CapsSearch(model, collect_all=True).run()
        thresholds = CostVector(cpu=0.4, io=0.4, net=0.9)
        pruned = CapsSearch(model, thresholds=thresholds, collect_all=True).run()
        expected = {
            plan.canonical_signature(physical)
            for cost, plan in unpruned.all_plans
            if cost.within(thresholds, eps=1e-9)
        }
        found = {plan.canonical_signature(physical) for _, plan in pruned.all_plans}
        assert found == expected

    def test_tighter_threshold_prunes_more_nodes(self):
        physical, cluster, model = make_problem((3, 3, 2), 4, 3)
        loose = CapsSearch(model, thresholds={"io": 0.8}, collect_pareto=False).run()
        tight = CapsSearch(model, thresholds={"io": 0.1}, collect_pareto=False).run()
        assert tight.stats.nodes <= loose.stats.nodes
        assert tight.stats.plans_found <= loose.stats.plans_found

    def test_zero_threshold_on_all_dims_usually_empty(self):
        physical, cluster, model = make_problem((2, 3), 3, 3)
        result = CapsSearch(
            model, thresholds={"cpu": 0.0, "io": 0.0, "net": 0.0}, collect_all=True
        ).run()
        for cost, _ in result.all_plans:
            assert cost.cpu <= 1e-9 and cost.io <= 1e-9 and cost.net <= 1e-9

    def test_negative_threshold_rejected(self):
        _, _, model = make_problem()
        with pytest.raises(ValueError):
            CapsSearch(model, thresholds={"cpu": -0.1})
        with pytest.raises(ValueError):
            CapsSearch(model).set_thresholds({"io": -0.1})

    def test_rebound_search_matches_a_fresh_one(self):
        """set_thresholds leaves no trace of the previous vector."""
        _, _, model = make_problem((3, 3, 2), 4, 3)
        search = CapsSearch(model, thresholds={"io": 0.1}, collect_all=True)
        search.run()
        for thresholds in ({"io": 0.8}, {"cpu": 0.3, "io": 0.5}, None):
            search.set_thresholds(thresholds)
            rebound = search.run()
            fresh = CapsSearch(model, thresholds=thresholds, collect_all=True).run()
            assert rebound.stats.nodes == fresh.stats.nodes
            assert rebound.stats.pruned_total == fresh.stats.pruned_total
            assert [
                (cost.as_tuple(), plan.assignment) for cost, plan in rebound.all_plans
            ] == [(cost.as_tuple(), plan.assignment) for cost, plan in fresh.all_plans]


class TestLimits:
    def test_first_satisfying_stops_early(self):
        physical, cluster, model = make_problem((2, 3), 3, 3)
        full = CapsSearch(model, collect_pareto=False).run()
        first = CapsSearch(model).run(SearchLimits(first_satisfying=True))
        assert first.found
        assert first.stats.plans_found == 1
        assert first.stats.nodes <= full.stats.nodes
        first.best_plan.validate(physical, cluster)

    def test_max_plans_limit(self):
        _, _, model = make_problem((2, 3), 3, 3)
        result = CapsSearch(model, collect_pareto=False).run(SearchLimits(max_plans=5))
        assert result.stats.plans_found == 5
        assert not result.stats.exhausted

    def test_max_nodes_limit(self):
        _, _, model = make_problem((2, 3), 3, 3)
        result = CapsSearch(model, collect_pareto=False).run(SearchLimits(max_nodes=10))
        assert result.stats.nodes == 10
        assert not result.stats.exhausted

    def test_exhausted_flag_set_on_complete_run(self):
        _, _, model = make_problem((2, 2), 2, 4)
        assert CapsSearch(model).run().stats.exhausted


class TestResultSelection:
    def test_best_plan_is_on_pareto_front(self):
        physical, cluster, model = make_problem((2, 3), 3, 3)
        result = CapsSearch(model).run()
        assert result.found
        front_costs = [c.as_tuple() for c, _ in result.pareto.entries()]
        assert result.best_cost.as_tuple() in front_costs

    def test_best_plan_minimises_weighted_total(self):
        physical, cluster, model = make_problem((2, 3), 3, 3)
        weights = {"cpu": 1.0, "io": 1.0, "net": 0.0}
        result = CapsSearch(model, selection_weights=weights).run()
        best = result.best_cost.weighted_total(weights)
        for cost, _ in result.pareto.entries():
            assert best <= cost.weighted_total(weights) + 1e-12

    def test_best_cost_not_dominated_by_any_plan(self):
        physical, cluster, model = make_problem((2, 2), 2, 4)
        result = CapsSearch(model, collect_all=True).run()
        for cost, _ in result.all_plans:
            assert not cost.dominates(result.best_cost)


class TestHeterogeneousClusters:
    def test_heterogeneous_workers_not_deduplicated(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("s", is_source=True, cpu_per_record=1e-4), 2)
        physical = PhysicalGraph.expand(g)
        big = WorkerSpec(cpu_capacity=8, disk_bandwidth=1e8, network_bandwidth=1e9, slots=2)
        small = WorkerSpec(cpu_capacity=2, disk_bandwidth=1e8, network_bandwidth=1e9, slots=2)
        cluster = Cluster([Worker(0, big), Worker(1, small)])
        costs = TaskCosts.from_specs(physical, {("g", "s"): 100.0})
        model = CostModel(physical, cluster, costs)
        result = CapsSearch(model, collect_all=True).run()
        # (2,0), (1,1), (0,2): workers differ, so (2,0) != (0,2)
        assert len(result.all_plans) == 3


class TestSkewPlacementGroups:
    def test_skewed_operator_splits_into_layers(self):
        """Tasks of one operator with different utilisations become
        separate placement groups (paper section 5.2)."""
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("s", is_source=True, cpu_per_record=1e-4), 4)
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC.with_slots(2), count=3)
        # Hand-build skewed costs: two hot tasks, two cold ones.
        u_cpu = {"g/s[0]": 1.0, "g/s[1]": 1.0, "g/s[2]": 0.1, "g/s[3]": 0.1}
        zeros = {t.uid: 0.0 for t in physical.tasks}
        costs = TaskCosts(physical, u_cpu, dict(zeros), dict(zeros))
        model = CostModel(physical, cluster, costs)
        search = CapsSearch(model)
        assert len(search.layers) == 2
        result = search.run()
        assert result.found
        # The best plan separates the two hot tasks.
        hot_workers = {
            result.best_plan.worker_of_uid("g/s[0]"),
            result.best_plan.worker_of_uid("g/s[1]"),
        }
        assert len(hot_workers) == 2


class TestErrors:
    def test_too_many_tasks_rejected(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("s", is_source=True), 10)
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC.with_slots(2), count=2)
        costs = TaskCosts.from_specs(physical, {("g", "s"): 1.0})
        # CostModel itself is fine; the search rejects.
        model = CostModel(physical, cluster, costs)
        with pytest.raises(ValueError):
            CapsSearch(model)

    def test_invalid_explicit_order_rejected(self):
        physical, cluster, model = make_problem((2, 2), 2, 4)
        with pytest.raises(ValueError):
            CapsSearch(model, order=[("g", "op0")])
