"""Sequential-vs-pool equivalence and the process-pool search driver.

The sequential DFS and the multiprocessing pool both run path-pure load
bookkeeping, so on the same instance they must agree *bit-exactly*:
identical counters, identical pareto fronts (costs and plans), identical
best cost, and in first-satisfying mode the identical winning seed and
plan. These are stronger assertions than the reference-equivalence
suite makes (see ``test_search_incremental.py``) because no float
round-off separates the live search from its partitions.
"""

import os
import pickle

import pytest

from repro.controller.capsys import CAPSysController, ControllerConfig
from repro.core.cost_model import CostModel, TaskCosts
from repro.core.parallel import ProcessCapsSearch, run_search
from repro.core.search import CapsSearch, SearchLimits
from repro.dataflow.cluster import Cluster, M5D_2XLARGE, R5D_XLARGE
from repro.dataflow.physical import PhysicalGraph
from repro.observability import Tracer
from repro.placement import CapsStrategy
from repro.workloads import q2_join, q3_inf, query_by_name


def q3_model(source=2, decode=3, inference=4, sink=3, workers=6, slots=3):
    graph = q3_inf(source, decode, inference, sink)
    cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(slots), count=workers)
    physical = PhysicalGraph.expand(graph)
    costs = TaskCosts.from_specs(physical, {("Q3-inf", "source"): 3000.0})
    return CostModel(physical, cluster, costs)


def q2_model(workers=5, slots=3):
    graph = q2_join(2, 3, 4)
    cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(slots), count=workers)
    physical = PhysicalGraph.expand(graph)
    rates = {
        ("Q2-join", "source_persons"): 1000.0,
        ("Q2-join", "source_auctions"): 1000.0,
    }
    costs = TaskCosts.from_specs(physical, rates)
    return CostModel(physical, cluster, costs)


def stats_key(stats):
    return (
        stats.nodes,
        stats.plans_found,
        stats.pruned_slots,
        stats.pruned_cpu,
        stats.pruned_io,
        stats.pruned_net,
        stats.exhausted,
    )


def front_key(result):
    """Bit-exact pareto front: float cost tuples plus assignments."""
    return sorted(
        (cost.as_tuple(), tuple(sorted(plan.assignment.items())))
        for cost, plan in result.pareto.entries()
    )


def run_sequential_and_pool(make_model, limits=None, jobs=3, **search_kwargs):
    """The same search at ``jobs=1`` and on a ``jobs``-process pool."""
    return tuple(
        run_search(
            CapsSearch(make_model(), **search_kwargs), limits=limits, jobs=j
        )
        for j in (1, jobs)
    )


class TestSequentialPoolEquivalence:
    @pytest.mark.parametrize("thresholds", [None, {"cpu": 0.5}])
    def test_q3_bit_exact(self, thresholds):
        seq, pool = run_sequential_and_pool(
            q3_model, thresholds=thresholds, reorder=True
        )
        assert stats_key(pool.stats) == stats_key(seq.stats)
        assert front_key(pool) == front_key(seq)
        if seq.best_cost is None:
            assert pool.best_cost is None
        else:
            assert pool.best_cost.as_tuple() == seq.best_cost.as_tuple()

    def test_q2_bit_exact(self):
        seq, pool = run_sequential_and_pool(
            q2_model, thresholds={"cpu": 0.5}, reorder=True
        )
        assert stats_key(pool.stats) == stats_key(seq.stats)
        assert front_key(pool) == front_key(seq)

    def test_first_satisfying_deterministic(self):
        limits = SearchLimits(first_satisfying=True)
        seq, pool = run_sequential_and_pool(
            q3_model, limits=limits, thresholds={"cpu": 0.5}, reorder=True
        )
        assert seq.found
        assert pool.found
        assert pool.best_plan.assignment == seq.best_plan.assignment
        assert pool.best_cost.as_tuple() == seq.best_cost.as_tuple()
        assert pool.stats.first_seed == seq.stats.first_seed

    def test_collect_all_plan_multisets_match(self):
        seq, pool = run_sequential_and_pool(
            q3_model, collect_all=True, collect_pareto=False, reorder=True
        )
        seq_plans, pool_plans = (
            sorted(
                (cost.as_tuple(), tuple(sorted(plan.assignment.items())))
                for cost, plan in result.all_plans
            )
            for result in (seq, pool)
        )
        assert pool_plans == seq_plans


class TestProcessDriver:
    def test_jobs_one_runs_inline(self):
        search = CapsSearch(q3_model(), reorder=True)
        result = ProcessCapsSearch(search, jobs=1).run()
        sequential = CapsSearch(q3_model(), reorder=True).run()
        assert stats_key(result.stats) == stats_key(sequential.stats)
        assert front_key(result) == front_key(sequential)
        assert result.stats.partitions == 1

    def test_partitions_reported(self):
        search = CapsSearch(q3_model(), reorder=True)
        result = ProcessCapsSearch(search, jobs=3).run()
        assert result.stats.partitions > 1

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ProcessCapsSearch(CapsSearch(q3_model()), jobs=0)

    def test_run_search_dispatches_on_jobs(self):
        seq = run_search(CapsSearch(q3_model(), reorder=True))
        pool = run_search(CapsSearch(q3_model(), reorder=True), jobs=2)
        assert seq.stats.partitions == 1
        assert pool.stats.partitions == 2
        assert stats_key(pool.stats) == stats_key(seq.stats)

    def test_max_plans_respected_per_partition(self):
        limits = SearchLimits(max_plans=5)
        search = CapsSearch(q3_model(), reorder=True)
        result = ProcessCapsSearch(search, jobs=3).run(limits)
        # each partition may find up to max_plans before stopping
        assert result.stats.plans_found <= 5 * result.stats.partitions
        assert not result.stats.exhausted


class TestPickledSearch:
    def test_round_trip_rebuilds_equivalent_search(self):
        # Without fork, the pool initializer ships the search pickled.
        original = CapsSearch(
            q3_model(),
            thresholds={"cpu": 0.5, "io": 0.8},
            reorder=True,
            collect_pareto=True,
            selection_weights={"cpu": 2.0, "io": 1.0, "net": 1.0},
        )
        rebuilt = pickle.loads(pickle.dumps(original))
        assert rebuilt.thresholds == original.thresholds
        assert rebuilt._order == original._order
        assert rebuilt.collect_pareto == original.collect_pareto
        assert rebuilt.selection_weights == original.selection_weights
        a = original.run()
        b = rebuilt.run()
        assert stats_key(a.stats) == stats_key(b.stats)
        assert front_key(a) == front_key(b)


class TestJobsKnob:
    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="search_jobs"):
            ControllerConfig(search_jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            CapsStrategy({}, jobs=0)

    def test_search_jobs_reaches_the_pool(self):
        # Q5-aggregate as `place` sizes it by default: DS2 on 4x8 m5d
        # at the isolation rate, which leaves two first-layer seeds.
        preset = query_by_name("Q5-aggregate")
        cluster = Cluster.homogeneous(M5D_2XLARGE.with_slots(8), count=4)
        rates = {op: preset.isolation_rate for op in preset.build().sources()}
        placed = {}
        for jobs in (1, 2):
            tracer = Tracer()
            controller = CAPSysController(
                preset.build(), cluster,
                config=ControllerConfig(search_jobs=jobs), tracer=tracer,
            )
            controller.profile()
            plan = controller.deploy(rates).plan
            span = next(
                r for r in tracer.stream("wall") if r["name"] == "caps.search"
            )
            placed[jobs] = (span["args"]["partitions"], plan.assignment)
            assert span["args"]["jobs"] == jobs
        assert placed[1][0] == 1
        assert placed[2][0] > 1
        assert placed[2][1] == placed[1][1]


def _exit_abruptly(task):
    # Simulates a hard worker death (OOM kill / segfault): os._exit
    # skips all cleanup, so the executor sees the process vanish and
    # raises BrokenProcessPool.
    os._exit(1)


class TestBrokenPoolFallback:
    def test_broken_pool_degrades_to_sequential(self, monkeypatch):
        import repro.core.parallel as pp
        from repro.observability import MetricRegistry

        # fork start method propagates the monkeypatched module global
        # into the children, so every partition task kills its worker.
        monkeypatch.setattr(pp, "_run_partition", _exit_abruptly)
        registry = MetricRegistry()
        search = CapsSearch(q3_model())
        driver = ProcessCapsSearch(search, jobs=2, registry=registry)
        with pytest.warns(RuntimeWarning, match="degrading to the sequential"):
            broken = driver.run(SearchLimits())

        fallbacks = [
            m["value"]
            for m in registry.snapshot()["metrics"]
            if m["name"] == "search_backend_fallback_total"
        ]
        assert fallbacks == [1.0]

        # The degraded result is the same merged result the healthy
        # pool would have produced.
        healthy = CapsSearch(q3_model()).run(SearchLimits())
        assert stats_key(broken.stats) == stats_key(healthy.stats)
        assert broken.best_cost.as_tuple() == healthy.best_cost.as_tuple()
