"""Unit tests for skew-aware placement groups (paper section 5.2)."""

import pytest

from repro.dataflow.cluster import Cluster, WorkerSpec
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.core.cost_model import CostModel, UnitCosts
from repro.core.search import CapsSearch
from repro.core.skew import (
    bucket_shares,
    skewed_task_costs,
    zipf_shares,
)

SPEC = WorkerSpec(cpu_capacity=4.0, disk_bandwidth=1e8, network_bandwidth=1e9, slots=4)


def setup(window_p=4):
    g = LogicalGraph("g")
    g.add_operator(OperatorSpec("src", is_source=True, cpu_per_record=1e-6), 1)
    g.add_operator(
        OperatorSpec("win", cpu_per_record=1e-4, io_bytes_per_record=10_000.0),
        window_p,
    )
    g.add_edge("src", "win", Partitioning.HASH)
    physical = PhysicalGraph.expand(g)
    unit_costs = {
        ("g", op): UnitCosts.from_spec(g.operator(op)) for op in g.topological_order()
    }
    return g, physical, unit_costs


class TestZipfShares:
    def test_normalised(self):
        shares = zipf_shares(5, 1.0)
        assert sum(shares) == pytest.approx(1.0)
        assert shares == sorted(shares, reverse=True)

    def test_zero_exponent_is_uniform(self):
        shares = zipf_shares(4, 0.0)
        assert all(s == pytest.approx(0.25) for s in shares)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_shares(0)
        with pytest.raises(ValueError):
            zipf_shares(3, exponent=-0.5)


class TestBucketShares:
    def test_quantises_to_group_means(self):
        raw = [0.5, 0.3, 0.1, 0.1]
        bucketed = bucket_shares(raw, groups=2)
        assert sum(bucketed) == pytest.approx(1.0)
        assert bucketed[0] == pytest.approx(bucketed[1])  # top bucket
        assert bucketed[2] == pytest.approx(bucketed[3])  # bottom bucket
        assert len(set(round(b, 12) for b in bucketed)) == 2

    def test_single_group_is_uniform(self):
        bucketed = bucket_shares([0.7, 0.2, 0.1], groups=1)
        assert all(b == pytest.approx(1.0 / 3.0) for b in bucketed)

    def test_validation(self):
        with pytest.raises(ValueError):
            bucket_shares([], groups=1)
        with pytest.raises(ValueError):
            bucket_shares([1.0], groups=0)


class TestSkewedTaskCosts:
    def test_uniform_when_no_skew(self):
        _, physical, unit_costs = setup()
        costs = skewed_task_costs(
            physical, unit_costs, {("g", "src"): 1000.0}, {}
        )
        wins = physical.operator_tasks("g", "win")
        values = {costs.u_cpu[t.uid] for t in wins}
        assert len(values) == 1

    def test_skewed_split_preserves_total(self):
        _, physical, unit_costs = setup()
        shares = bucket_shares(zipf_shares(4, 1.0), groups=2)
        costs = skewed_task_costs(
            physical, unit_costs, {("g", "src"): 1000.0},
            {("g", "win"): shares},
        )
        wins = physical.operator_tasks("g", "win")
        total = sum(costs.in_rates[t.uid] for t in wins)
        assert total == pytest.approx(1000.0)
        hot = costs.u_cpu[wins[0].uid]
        cold = costs.u_cpu[wins[-1].uid]
        assert hot > cold

    def test_share_validation(self):
        _, physical, unit_costs = setup()
        with pytest.raises(ValueError):
            skewed_task_costs(
                physical, unit_costs, {("g", "src"): 1000.0},
                {("g", "win"): [0.5, 0.5]},  # wrong length
            )
        with pytest.raises(ValueError):
            skewed_task_costs(
                physical, unit_costs, {("g", "src"): 1000.0},
                {("g", "win"): [0.5, 0.5, 0.5, 0.5]},  # sums to 2
            )


class TestPlacementGroups:
    def test_groups_match_buckets(self):
        """Two demand buckets give two placement-group layers that hold
        all four tasks of the operator."""
        _, physical, unit_costs = setup()
        cluster = Cluster.homogeneous(SPEC, count=3)
        shares = bucket_shares(zipf_shares(4, 1.0), groups=2)
        costs = skewed_task_costs(
            physical, unit_costs, {("g", "src"): 1000.0},
            {("g", "win"): shares},
        )
        search = CapsSearch(CostModel(physical, cluster, costs))
        groups = [l for l in search.layers if l.key == ("g", "win")]
        assert len(groups) == 2
        assert sum(len(l.task_uids) for l in groups) == 4

    def test_search_explores_groups_as_layers(self):
        """The end-to-end section 5.2 behaviour: skewed costs make the
        search split the operator into placement-group layers and
        separate the hot tasks."""
        _, physical, unit_costs = setup()
        cluster = Cluster.homogeneous(SPEC, count=3)
        shares = bucket_shares(zipf_shares(4, 1.5), groups=2)
        costs = skewed_task_costs(
            physical, unit_costs, {("g", "src"): 3000.0},
            {("g", "win"): shares},
        )
        model = CostModel(physical, cluster, costs)
        search = CapsSearch(model)
        win_layers = [l for l in search.layers if l.key == ("g", "win")]
        assert len(win_layers) == 2
        result = search.run()
        assert result.found
        # the two hot tasks land on different workers
        wins = physical.operator_tasks("g", "win")
        hot_uids = [t.uid for t in wins[:2]]
        workers = {result.best_plan.worker_of_uid(uid) for uid in hot_uids}
        assert len(workers) == 2
