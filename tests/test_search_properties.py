"""Property-based tests (hypothesis) for the CAPS search.

Random small placement problems are generated and the search's plan set
is checked against a brute-force enumeration; plan validity and cost
bookkeeping are verified on every discovered plan.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.cluster import Cluster, WorkerSpec
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.core.autotune import ThresholdAutoTuner
from repro.core.cost_model import DIMENSIONS, CostModel, CostVector, TaskCosts
from repro.core.plan import PlacementPlan
from repro.core.search import CapsSearch, SearchLimits


@st.composite
def placement_problems(draw):
    """A random chain query plus a cluster that can host it."""
    n_ops = draw(st.integers(min_value=1, max_value=3))
    parallelisms = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n_ops)]
    total = sum(parallelisms)
    workers = draw(st.integers(min_value=1, max_value=3))
    min_slots = -(-total // workers)  # ceil
    slots = draw(st.integers(min_value=min_slots, max_value=min_slots + 2))

    g = LogicalGraph("g")
    prev = None
    for i, p in enumerate(parallelisms):
        cpu = draw(st.sampled_from([1e-5, 1e-4, 5e-4]))
        io = draw(st.sampled_from([0.0, 1_000.0, 20_000.0]))
        out = draw(st.sampled_from([50.0, 500.0]))
        sel = draw(st.sampled_from([0.5, 1.0]))
        g.add_operator(
            OperatorSpec(
                f"op{i}",
                cpu_per_record=cpu,
                io_bytes_per_record=io,
                out_record_bytes=out,
                selectivity=sel,
                is_source=(i == 0),
            ),
            parallelism=p,
        )
        if prev is not None:
            partitioning = draw(
                st.sampled_from([Partitioning.HASH, Partitioning.REBALANCE])
            )
            g.add_edge(prev, f"op{i}", partitioning)
        prev = f"op{i}"
    physical = PhysicalGraph.expand(g)
    spec = WorkerSpec(
        cpu_capacity=4.0, disk_bandwidth=1e8, network_bandwidth=1e9, slots=slots
    )
    cluster = Cluster.homogeneous(spec, count=workers)
    rate = draw(st.sampled_from([100.0, 1000.0]))
    costs = TaskCosts.from_specs(physical, {("g", "op0"): rate})
    return physical, cluster, CostModel(physical, cluster, costs)


def brute_force_signatures(physical, cluster):
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


@settings(max_examples=40, deadline=None)
@given(placement_problems())
def test_enumeration_matches_brute_force(problem):
    physical, cluster, model = problem
    result = CapsSearch(model, collect_all=True, collect_pareto=False).run()
    expected = brute_force_signatures(physical, cluster)
    found = {plan.canonical_signature(physical) for _, plan in result.all_plans}
    assert found == expected
    assert len(result.all_plans) == len(expected)


@settings(max_examples=40, deadline=None)
@given(placement_problems())
def test_every_plan_valid_and_cost_consistent(problem):
    physical, cluster, model = problem
    result = CapsSearch(model, collect_all=True).run()
    for cost, plan in result.all_plans:
        plan.validate(physical, cluster)
        reference = model.cost(plan)
        assert abs(cost.cpu - reference.cpu) < 1e-9
        assert abs(cost.io - reference.io) < 1e-9
        assert abs(cost.net - reference.net) < 1e-9


@settings(max_examples=30, deadline=None)
@given(placement_problems(), st.floats(min_value=0.05, max_value=1.0))
def test_pruning_is_sound_and_complete(problem, alpha):
    """Pruned search finds exactly the plans whose cost satisfies alpha."""
    physical, cluster, model = problem
    unpruned = CapsSearch(model, collect_all=True, collect_pareto=False).run()
    thresholds = CostVector(cpu=alpha, io=alpha, net=alpha)
    pruned = CapsSearch(
        model, thresholds=thresholds, collect_all=True, collect_pareto=False
    ).run()
    expected = {
        plan.canonical_signature(physical)
        for cost, plan in unpruned.all_plans
        if cost.within(thresholds, eps=1e-9)
    }
    found = {plan.canonical_signature(physical) for _, plan in pruned.all_plans}
    assert found == expected
    assert pruned.stats.nodes <= unpruned.stats.nodes


def _one_operator_model(workers, slots):
    """Three equal source tasks at 100 records/s on a homogeneous cluster."""
    g = LogicalGraph("g")
    g.add_operator(
        OperatorSpec("op0", cpu_per_record=1e-5, out_record_bytes=50.0, is_source=True),
        parallelism=3,
    )
    physical = PhysicalGraph.expand(g)
    spec = WorkerSpec(
        cpu_capacity=4.0, disk_bandwidth=1e8, network_bandwidth=1e9, slots=slots
    )
    cluster = Cluster.homogeneous(spec, count=workers)
    costs = TaskCosts.from_specs(physical, {("g", "op0"): 100.0})
    return CostModel(physical, cluster, costs)


def test_pruning_tolerance_scales_with_the_load_spread():
    """A cpu spread of 1.7e-4 CPU must not widen alpha: the one plan (2/1)
    costs exactly 1 in cpu, so alpha = 1 - 1e-5 finds nothing."""
    model = _one_operator_model(workers=2, slots=2)
    assert model.l_max("cpu") - model.l_min("cpu") < 2e-4

    def plan_costs(alpha):
        thresholds = CostVector(cpu=alpha, io=alpha, net=alpha)
        search = CapsSearch(model, thresholds=thresholds, collect_all=True)
        return [cost.cpu for cost, _ in search.run().all_plans]

    assert plan_costs(1.0) == [pytest.approx(1.0)]
    assert plan_costs(1.0 - 1e-5) == []


def test_a_flat_dimension_is_not_bounded():
    """Three equal tasks on three one-slot workers: each worker's cpu load
    is one ulp above L_min = 3u / 3, yet every plan costs 0 in cpu, so
    alpha = 0 keeps the plan."""
    model = _one_operator_model(workers=3, slots=1)
    assert model.is_flat("cpu")
    assert model.l_max("cpu") > model.l_min("cpu")
    search = CapsSearch(
        model, thresholds=CostVector(cpu=0.0, io=0.0, net=0.0), collect_all=True
    )
    assert search.bounds["cpu"] == math.inf
    result = search.run()
    assert [cost.as_tuple() for cost, _ in result.all_plans] == [(0.0, 0.0, 0.0)]


@settings(max_examples=30, deadline=None)
@given(placement_problems())
def test_reordering_is_plan_set_invariant(problem):
    physical, cluster, model = problem
    plain = CapsSearch(model, collect_all=True, reorder=False).run()
    reordered = CapsSearch(model, collect_all=True, reorder=True).run()
    sig = lambda res: {plan.canonical_signature(physical) for _, plan in res.all_plans}
    assert sig(plain) == sig(reordered)


@settings(max_examples=30, deadline=None)
@given(placement_problems())
def test_best_plan_not_dominated(problem):
    physical, cluster, model = problem
    result = CapsSearch(model, collect_all=True).run()
    assert result.found
    for cost, _ in result.all_plans:
        assert not cost.dominates(result.best_cost)


def _feasible(model, thresholds):
    """A fresh, unbudgeted first-plan probe."""
    search = CapsSearch(model, thresholds=thresholds, collect_pareto=False)
    return search.run(SearchLimits(first_satisfying=True)).found


def _isolated(dim, alpha):
    thresholds = {d: math.inf for d in DIMENSIONS}
    thresholds[dim] = alpha
    return thresholds


@settings(max_examples=30, deadline=None)
@given(placement_problems())
def test_autotune_bisection_equals_the_scan(problem):
    """Bisection returns the first feasible candidate of the in-order scan
    over the same sequences, whenever no probe is truncated."""
    _physical, _cluster, model = problem
    # A tiny kappa tunes every loaded dimension; no node or probe budget.
    tuner = ThresholdAutoTuner(
        model, timeout_s=600.0, probe_max_nodes=None, sensitivity_kappa=1e-12
    )
    result = tuner.tune()
    assert not result.timed_out
    assert result.truncated_probes == 0

    grid = tuner.phase1_candidates()
    minima = {}
    for dim in DIMENSIONS:
        if dim in tuner.insensitive:
            minima[dim] = 1.0
            continue
        scan = [alpha for alpha in grid if _feasible(model, _isolated(dim, alpha))]
        minima[dim] = scan[0] if scan else 1.0
        assert result.phase1_minima[dim] == minima[dim]
        # the candidate before the returned one (the grid's last point
        # when nothing on the grid was feasible) is infeasible
        returned = grid.index(minima[dim]) if scan else len(grid)
        if returned > 0:
            assert not _feasible(model, _isolated(dim, grid[returned - 1]))
    assert result.phase1_minima.as_tuple() == CostVector(**minima).as_tuple()

    vectors = tuner.phase2_candidates(minima)
    scan = [v for v in vectors[:-1] if _feasible(model, v)]
    expected = scan[0] if scan else vectors[-1]
    assert result.thresholds.as_tuple() == CostVector(**expected).as_tuple()
    returned = vectors.index(expected)
    if returned > 0:
        assert not _feasible(model, vectors[returned - 1])
