"""Unit tests for the partitioned process-pool search (paper section 5.1)."""

import pytest

from repro.dataflow.cluster import Cluster, WorkerSpec
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.core.cost_model import CostModel, TaskCosts
from repro.core.parallel import ProcessCapsSearch, enumerate_seeds
from repro.core.search import CapsSearch, SearchLimits

SPEC = WorkerSpec(cpu_capacity=4.0, disk_bandwidth=1e8, network_bandwidth=1e9, slots=3)


def make_search(**kwargs):
    g = LogicalGraph("g")
    g.add_operator(OperatorSpec("a", is_source=True, cpu_per_record=1e-4), 2)
    g.add_operator(OperatorSpec("b", cpu_per_record=2e-4, io_bytes_per_record=5_000.0), 3)
    g.add_operator(OperatorSpec("c", cpu_per_record=1e-4), 2)
    g.add_edge("a", "b", Partitioning.HASH)
    g.add_edge("b", "c", Partitioning.HASH)
    physical = PhysicalGraph.expand(g)
    cluster = Cluster.homogeneous(SPEC, count=3)
    costs = TaskCosts.from_specs(physical, {("g", "a"): 1000.0})
    model = CostModel(physical, cluster, costs)
    return physical, cluster, CapsSearch(model, **kwargs)


class TestLayerEnumeration:
    def test_assignments_cover_layer_count(self):
        _, _, search = make_search()
        seeds = enumerate_seeds(search).seeds
        assert seeds
        layer = search.layers[0]
        for seed in seeds:
            assert sum(seed) == layer.count
            assert all(c >= 0 for c in seed)

    def test_assignments_are_duplicate_free(self):
        _, _, search = make_search()
        seeds = enumerate_seeds(search).seeds
        assert len({tuple(s) for s in seeds}) == len(seeds)
        # homogeneous workers with empty history: canonical vectors are
        # non-increasing
        for seed in seeds:
            assert list(seed) == sorted(seed, reverse=True)


class TestParallelEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_same_plan_count_as_sequential(self, jobs):
        physical, cluster, search = make_search(collect_pareto=False)
        sequential = search.run()
        _, _, search2 = make_search(collect_pareto=False)
        parallel = ProcessCapsSearch(search2, jobs=jobs).run()
        assert parallel.stats.plans_found == sequential.stats.plans_found

    def test_same_best_cost_as_sequential(self):
        physical, cluster, search = make_search()
        sequential = search.run()
        _, _, search2 = make_search()
        parallel = ProcessCapsSearch(search2, jobs=3).run()
        assert parallel.found
        assert parallel.best_cost.total() == pytest.approx(
            sequential.best_cost.total(), abs=1e-9
        )
        parallel.best_plan.validate(physical, cluster)

    def test_pareto_fronts_match(self):
        _, _, search = make_search()
        sequential = search.run()
        _, _, search2 = make_search()
        parallel = ProcessCapsSearch(search2, jobs=2).run()
        seq_costs = sorted(c.as_tuple() for c, _ in sequential.pareto.entries())
        par_costs = sorted(c.as_tuple() for c, _ in parallel.pareto.entries())
        assert seq_costs == par_costs

    def test_first_satisfying_mode(self):
        _, _, search = make_search()
        result = ProcessCapsSearch(search, jobs=2).run(
            SearchLimits(first_satisfying=True)
        )
        assert result.found

    def test_respects_thresholds(self):
        _, _, search = make_search(thresholds={"cpu": 0.3, "io": 0.3})
        result = ProcessCapsSearch(search, jobs=2).run()
        for cost, _ in result.pareto.entries():
            assert cost.cpu <= 0.3 + 1e-6
            assert cost.io <= 0.3 + 1e-6
