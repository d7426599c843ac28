"""The process-wide CAPS placement memo (``repro.placement.caps``).

A repeated placement problem must return exactly what a fresh
computation returns, without tuning or searching; any change to an
input the decision reads must miss; decisions a wall-clock budget cut
are never stored; and the memo stays within its LRU bound.
"""

import dataclasses
import math

import pytest

from repro.controller.capsys import CAPSysController
from repro.core.autotune import AutoTuneResult, ThresholdAutoTuner
from repro.core.cost_model import CostVector, UnitCosts
from repro.core.search import CapsSearch
from repro.dataflow.cluster import M5D_2XLARGE, R5D_XLARGE, Cluster, Worker
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.observability import MetricRegistry, Tracer
from repro.placement import caps
from repro.placement.caps import PLACEMENT_MEMO, CapsStrategy
from repro.simulator.plan_cache import MEMO_CAPACITY, placement_fingerprint
from repro.workloads import ALL_QUERIES
from tests.test_plan_cache import (
    flip_reroutable,
    nudge_share,
    reindex_last_task,
    rewired,
)


@pytest.fixture
def search_runs(monkeypatch):
    """Counts every ``CapsSearch.run`` (autotune probes and final search)."""
    calls = []
    real = CapsSearch.run

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CapsSearch, "run", counted)
    return calls


def _decision(strategy, plan):
    """Everything ``place`` reports, with the search's wall time zeroed."""
    return (
        plan.assignment,
        strategy.last_thresholds,
        strategy.last_explanation,
        strategy.last_fallback,
        dataclasses.replace(strategy.last_search_stats, duration_s=0.0),
    )


def _ds2_sized(preset, cluster):
    """A preset sized by DS2 at its isolation rate, ready for CAPS."""
    graph = preset.build()
    controller = CAPSysController(graph, cluster)
    unit_costs = controller.profile()
    rates = {op: preset.isolation_rate for op in graph.sources()}
    scaled = graph.with_parallelism(controller.initial_parallelism(rates))
    source_rates = {(scaled.job_id, op): rate for op, rate in rates.items()}
    return PhysicalGraph.expand(scaled), source_rates, unit_costs


class TestHitEqualsFreshComputation:
    @pytest.mark.parametrize("preset", ALL_QUERIES, ids=lambda p: p.name)
    def test_hit_returns_the_fresh_decision_without_searching(
        self, preset, search_runs
    ):
        cluster = Cluster.homogeneous(M5D_2XLARGE.with_slots(8), count=4)
        physical, rates, unit_costs = _ds2_sized(preset, cluster)

        def strategy():
            return CapsStrategy(rates, unit_costs_provider=lambda p: unit_costs)

        first = strategy()
        stored = _decision(first, first.place(physical, cluster))
        assert search_runs, "the first placement must compute"

        search_runs.clear()
        second = strategy()
        hit = _decision(second, second.place(physical, cluster))
        assert search_runs == []
        assert second.last_cost_model is not None

        PLACEMENT_MEMO.clear()
        fresh = strategy()
        recomputed = _decision(fresh, fresh.place(physical, cluster))
        assert search_runs, "a cleared memo must compute again"
        assert hit == recomputed == stored

    def test_hit_hands_out_its_own_search_stats(self):
        physical, cluster, strategy = _problem()
        strategy.place(physical, cluster)
        strategy.place(physical, cluster)
        strategy.last_search_stats.nodes = -1
        strategy.place(physical, cluster)
        assert strategy.last_search_stats.nodes >= 0


# ----------------------------------------------------------------------
# Sensitivity: a change to any one key input misses.
# ----------------------------------------------------------------------
def _two_stage(job_id="g", skew=None):
    graph = LogicalGraph(job_id)
    graph.add_operator(
        OperatorSpec("src", is_source=True, cpu_per_record=2e-4), 2
    )
    graph.add_operator(
        OperatorSpec("win", cpu_per_record=1e-3, io_bytes_per_record=120_000.0),
        2,
    )
    graph.add_edge("src", "win", Partitioning.HASH)
    return PhysicalGraph.expand(graph, skew=skew)


def _unit_costs(physical):
    return {
        key: UnitCosts.from_spec(physical.spec_of(physical.operator_tasks(*key)[0]))
        for key in physical.operator_keys()
    }


BASE_RATES = {("g", "src"): 1000.0}


def _problem(
    physical=None, cluster=None, unit_costs=None, rates=BASE_RATES, **strategy_kwargs
):
    """The base problem, with the inputs given by keyword changed."""
    physical = physical or _two_stage()
    cluster = cluster or Cluster(
        [Worker(0, M5D_2XLARGE.with_slots(4)), Worker(1, R5D_XLARGE)]
    )
    unit_costs = unit_costs or _unit_costs(physical)
    strategy = CapsStrategy(
        rates, unit_costs_provider=lambda p: unit_costs, **strategy_kwargs
    )
    return physical, cluster, strategy


def _nudged_unit_costs():
    unit_costs = _unit_costs(_two_stage())
    win = unit_costs[("g", "win")]
    unit_costs[("g", "win")] = dataclasses.replace(
        win, cpu_per_record=math.nextafter(win.cpu_per_record, math.inf)
    )
    return unit_costs


VARIANTS = {
    "unit_cost_1ulp": lambda: _problem(unit_costs=_nudged_unit_costs()),
    "source_rate": lambda: _problem(rates={("g", "src"): 1000.5}),
    "worker_spec": lambda: _problem(
        cluster=Cluster(
            [
                Worker(0, M5D_2XLARGE.with_slots(4)),
                Worker(1, R5D_XLARGE.with_network_bandwidth(1e8)),
            ]
        )
    ),
    "worker_order": lambda: _problem(
        cluster=Cluster(
            [Worker(0, R5D_XLARGE), Worker(1, M5D_2XLARGE.with_slots(4))]
        )
    ),
    "skew_shares": lambda: _problem(physical=_two_stage(skew={"win": [0.7, 0.3]})),
    "channel_share_1ulp": lambda: _problem(
        physical=rewired(_two_stage(), nudge_share)
    ),
    "channel_reroutable": lambda: _problem(
        physical=rewired(_two_stage(), flip_reroutable)
    ),
    "task_index": lambda: _problem(
        physical=rewired(_two_stage(), reindex_last_task)
    ),
    "thresholds": lambda: _problem(thresholds=CostVector(1.0, 1.0, 1.0)),
    "reorder": lambda: _problem(reorder=False),
    "jobs": lambda: _problem(jobs=2),
    "autotune_timeout_s": lambda: _problem(autotune_timeout_s=6.0),
    "autotune_probe_timeout_s": lambda: _problem(autotune_probe_timeout_s=0.4),
    "autotune_task_limit": lambda: _problem(autotune_task_limit=2),
    "search_timeout_s": lambda: _problem(search_timeout_s=6.0),
}


def _key(physical, cluster, strategy):
    return placement_fingerprint(
        physical,
        cluster,
        strategy._task_costs(physical),
        thresholds=strategy.thresholds,
        reorder=strategy.reorder,
        jobs=strategy.jobs,
        autotune_timeout_s=strategy.autotune_timeout_s,
        autotune_probe_timeout_s=strategy.autotune_probe_timeout_s,
        autotune_task_limit=strategy.autotune_task_limit,
        search_timeout_s=strategy.search_timeout_s,
    )


class TestSensitivity:
    def test_the_base_problem_hits(self, search_runs):
        physical, cluster, strategy = _problem()
        strategy.place(physical, cluster)
        search_runs.clear()
        physical, cluster, strategy = _problem()
        strategy.place(physical, cluster)
        assert search_runs == []
        assert _key(*_problem()) == _key(*_problem()) is not None

    def test_the_nudged_unit_cost_reaches_the_task_costs(self):
        base = _problem()
        nudged = VARIANTS["unit_cost_1ulp"]()
        assert (
            base[2]._task_costs(base[0]).u_cpu
            != nudged[2]._task_costs(nudged[0]).u_cpu
        )

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_a_changed_input_misses(self, name, search_runs):
        physical, cluster, strategy = _problem()
        strategy.place(physical, cluster)
        base_key = _key(physical, cluster, strategy)
        search_runs.clear()
        physical, cluster, strategy = VARIANTS[name]()
        assert _key(physical, cluster, strategy) != base_key
        if name == "jobs":
            return  # the pool runs CapsSearch.run in its worker processes
        strategy.place(physical, cluster)
        assert search_runs, f"changing {name} returned the stored decision"

    @pytest.mark.parametrize("reordered", ["tasks", "channels"])
    def test_task_and_channel_order_are_part_of_the_key(self, reordered):
        # Same content, one sequence permuted: the search reads both
        # orders (exploration order, tie-breaks, summation order).
        physical, cluster, strategy = _problem()
        tasks, channels = list(physical.tasks), list(physical.channels)
        if reordered == "tasks":
            tasks[0], tasks[1] = tasks[1], tasks[0]
        else:
            channels.reverse()
        permuted = PhysicalGraph(tasks, channels, physical.logical_graphs)
        assert _key(permuted, cluster, strategy) != _key(physical, cluster, strategy)


# ----------------------------------------------------------------------
# Store rule: only decisions no wall-clock budget cut are stored.
# ----------------------------------------------------------------------
def _tuned(timed_out, truncated_probes):
    def tune(self):
        relaxed = CostVector(1.0, 1.0, 1.0)
        return AutoTuneResult(
            thresholds=relaxed,
            phase1_minima=relaxed,
            iterations=1,
            duration_s=0.0,
            timed_out=timed_out,
            truncated_probes=truncated_probes,
        )

    return tune


class TestStoreRule:
    def test_an_uncut_decision_is_stored(self):
        physical, cluster, strategy = _problem()
        strategy.place(physical, cluster)
        assert len(PLACEMENT_MEMO) == 1

    @pytest.mark.parametrize(
        "timed_out, truncated", [(True, 0), (False, 1), (True, 2)]
    )
    def test_a_cut_autotune_is_not_stored(self, monkeypatch, timed_out, truncated):
        monkeypatch.setattr(ThresholdAutoTuner, "tune", _tuned(timed_out, truncated))
        physical, cluster, strategy = _problem()
        strategy.place(physical, cluster)
        assert len(PLACEMENT_MEMO) == 0

    def test_an_unexhausted_final_search_is_not_stored(self, monkeypatch):
        real = caps.run_search

        def cut(*args, **kwargs):
            result = real(*args, **kwargs)
            result.stats.exhausted = False
            return result

        monkeypatch.setattr(caps, "run_search", cut)
        physical, cluster, strategy = _problem()
        strategy.place(physical, cluster)
        assert len(PLACEMENT_MEMO) == 0

    def test_a_greedy_fallback_is_stored_and_replayed(self, monkeypatch):
        real = caps.run_search

        def empty(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, best_plan=None, best_cost=None)

        monkeypatch.setattr(caps, "run_search", empty)
        registry = MetricRegistry()
        physical, cluster, strategy = _problem(registry=registry)
        first = strategy.place(physical, cluster)
        assert strategy.last_fallback == "greedy"
        assert len(PLACEMENT_MEMO) == 1
        assert strategy.place(physical, cluster).assignment == first.assignment
        assert strategy.last_fallback == "greedy"
        fallbacks = registry.counter(
            "caps_placement_fallback_total", labels={"stage": "greedy"}
        )
        assert fallbacks.value == 2
        assert registry.counter("caps_search_runs_total").value == 1


class TestBound:
    def test_the_lru_never_exceeds_its_capacity(self):
        physical = _two_stage()
        cluster = Cluster.homogeneous(M5D_2XLARGE.with_slots(4), count=2)

        def strategy(i):
            # explicit thresholds skip the autotune, so each place is cheap
            return CapsStrategy(
                {("g", "src"): 1000.0 + i}, thresholds=CostVector(1.0, 1.0, 1.0)
            )

        keys = []
        for i in range(MEMO_CAPACITY + 8):
            strategy(i).place(physical, cluster)
            keys.append(_key(physical, cluster, strategy(i)))
            assert len(PLACEMENT_MEMO) <= MEMO_CAPACITY
            if i == MEMO_CAPACITY // 2:
                strategy(0).place(physical, cluster)  # a hit refreshes it
                assert PLACEMENT_MEMO.hits == 1
        assert len(PLACEMENT_MEMO) == MEMO_CAPACITY
        assert PLACEMENT_MEMO.evictions == 8
        assert PLACEMENT_MEMO.lookup(keys[0]) is not None
        assert all(PLACEMENT_MEMO.lookup(key) is None for key in keys[1:9])
        assert all(PLACEMENT_MEMO.lookup(key) is not None for key in keys[9:])


class TestObservability:
    def test_a_hit_emits_one_memo_event_and_no_search_spans(self):
        tracer = Tracer()
        registry = MetricRegistry()
        physical, cluster, strategy = _problem(tracer=tracer, registry=registry)
        strategy.place(physical, cluster)
        computed = [r["name"] for r in tracer.stream("wall")]
        assert "caps.search" in computed and "caps.memo" not in computed

        del tracer.records[:]
        strategy.place(physical, cluster)
        names = [r["name"] for r in tracer.stream("wall")]
        assert names == ["caps.memo"]
        assert registry.counter("caps_search_runs_total").value == 1
        assert registry.counter("caps_placement_memo_hits_total").value == 1

    def test_a_registry_that_sees_no_hit_has_no_hit_counter(self):
        registry = MetricRegistry()
        physical, cluster, strategy = _problem(registry=registry)
        strategy.place(physical, cluster)
        assert "caps_placement_memo_hits_total" not in registry.to_json()
