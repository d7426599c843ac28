"""CAPS as a drop-in placement strategy.

Wraps the full CAPS pipeline — cost model, threshold auto-tuning, and
the pruned DFS search — behind the same interface as the baselines, so
the experiment harness can swap strategies freely. This is the
"placement controller" role of the CAPSys architecture (paper Figure 6,
step 4) minus the DS2 coupling, which lives in
:class:`repro.controller.capsys.CAPSysController`.

A decision depends only on the placement problem: the physical graph,
the cluster, the task costs and the strategy's parameters. The paper
(section 5.2) therefore precomputes tuned thresholds for candidate
scaling scenarios and looks them up at rescale time. This module
memoises whole decisions for the life of the process instead: a
problem placed before, keyed by
:func:`repro.simulator.plan_cache.placement_fingerprint`, returns the
stored plan, thresholds, explanation and fallback stage without tuning
or searching again. Only decisions that no wall-clock budget cut are
stored, so a hit returns what a recompute on an unloaded host would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Tuple, Union

from repro.dataflow.cluster import Cluster
from repro.dataflow.physical import PhysicalGraph
from repro.core.autotune import ThresholdAutoTuner
from repro.core.greedy import greedy_balanced_plan, greedy_threshold_seed
from repro.core.cost_model import CostModel, CostVector, TaskCosts
from repro.core.parallel import run_search
from repro.core.plan import PlacementPlan
from repro.core.search import CapsSearch, SearchLimits, SearchStats
from repro.diagnosis.explain import Explanation, explain_placement
from repro.observability import MetricRegistry, NULL_TRACER, Tracer, clock
from repro.placement.base import PlacementStrategy
from repro.placement.flink_evenly import FlinkEvenlyStrategy
from repro.simulator.plan_cache import Memo, placement_fingerprint

RateMap = Mapping[Tuple[str, str], float]


@dataclass(frozen=True)
class _Decision:
    """One memoised placement and the diagnostics ``place`` reports with it."""

    plan: PlacementPlan
    thresholds: CostVector
    fallback: Optional[str]
    explanation: Explanation
    search_stats: SearchStats


#: Process-wide placement memo, fingerprint -> :class:`_Decision`.
PLACEMENT_MEMO = Memo()


class CapsStrategy(PlacementStrategy):
    """Contention-aware placement with auto-tuned thresholds.

    Args:
        source_rates: Target rate per (job_id, source operator); used to
            derive task costs the way CAPSys does on reconfiguration.
        thresholds: Explicit pruning factors. When omitted, thresholds
            are auto-tuned per placement problem (paper section 5.2).
        unit_costs_provider: Optional callable returning profiled unit
            costs for a physical graph; defaults to ground-truth specs.
        jobs: Worker processes for the final search: 1 runs the
            sequential DFS in process, more partition it over a process
            pool (:func:`repro.core.parallel.run_search`).
        autotune_timeout_s: Budget for the auto-tuning phase.
        search_timeout_s: Budget for the final pareto search.
        tracer: Optional :class:`~repro.observability.Tracer`; each
            computed placement emits wall-domain ``caps.autotune`` and
            ``caps.search`` spans plus one ``caps.search.layer`` event
            per search depth (completions and net prunes from
            :class:`~repro.core.search.SearchStats`); a placement
            answered from the memo emits one ``caps.memo`` event.
        registry: Optional :class:`~repro.observability.MetricRegistry`
            accumulating search work counters across placements. Pool
            workers ship their counters back through the
            :class:`~repro.core.search.SearchStats` merge, so the
            registry sees exact totals whatever ``jobs`` is. Memo hits
            do no search work; ``caps_placement_memo_hits_total`` counts
            them.
    """

    name = "caps"

    def __init__(
        self,
        source_rates: RateMap,
        thresholds: Optional[Union[CostVector, Mapping[str, float]]] = None,
        unit_costs_provider: Optional[Callable[[PhysicalGraph], Mapping]] = None,
        jobs: int = 1,
        autotune_timeout_s: float = 5.0,
        autotune_probe_timeout_s: float = 0.3,
        autotune_task_limit: int = 48,
        search_timeout_s: float = 5.0,
        reorder: bool = True,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.source_rates = dict(source_rates)
        self.thresholds = thresholds
        self.unit_costs_provider = unit_costs_provider
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.autotune_timeout_s = autotune_timeout_s
        self.autotune_probe_timeout_s = autotune_probe_timeout_s
        self.autotune_task_limit = autotune_task_limit
        self.search_timeout_s = search_timeout_s
        self.reorder = reorder
        self.tracer = tracer
        self.registry = registry
        #: Diagnostics from the most recent placement call.
        self.last_cost_model: Optional[CostModel] = None
        self.last_thresholds: Optional[CostVector] = None
        #: Stats of the final search behind the most recent decision. On
        #: a memo hit, a copy of those of the search that produced the
        #: stored decision: no search ran for the hit itself.
        self.last_search_stats: Optional[SearchStats] = None
        #: Fallback stage taken by the most recent placement call:
        #: ``None`` (search or warm start produced the plan normally),
        #: ``"greedy"`` (search found zero satisfying plans — timed out
        #: or infeasible thresholds — so the greedy warm start was the
        #: best-so-far), or ``"evenly"`` (even greedy failed; the plan
        #: is a deterministic flink_evenly spread).
        self.last_fallback: Optional[str] = None
        #: Structured :class:`~repro.diagnosis.explain.Explanation` of
        #: the most recent placement decision (trigger is filled in by
        #: the controller, which knows why it asked for a plan).
        self.last_explanation: Optional[Explanation] = None

    def _task_costs(self, physical: PhysicalGraph) -> TaskCosts:
        rates = {
            key: self.source_rates[key]
            for key in self.source_rates
            if any(
                graph.job_id == key[0] and key[1] in graph
                for graph in physical.logical_graphs
            )
        }
        if self.unit_costs_provider is not None:
            unit_costs = self.unit_costs_provider(physical)
            return TaskCosts.from_unit_costs(physical, unit_costs, rates)
        return TaskCosts.from_specs(physical, rates)

    def place(self, physical: PhysicalGraph, cluster: Cluster) -> PlacementPlan:
        self.last_fallback = None
        self.last_explanation = None
        costs = self._task_costs(physical)
        cost_model = CostModel(physical, cluster, costs)
        self.last_cost_model = cost_model
        tr = self.tracer if self.tracer is not None else NULL_TRACER
        key = placement_fingerprint(
            physical,
            cluster,
            costs,
            thresholds=self.thresholds,
            reorder=self.reorder,
            jobs=self.jobs,
            autotune_timeout_s=self.autotune_timeout_s,
            autotune_probe_timeout_s=self.autotune_probe_timeout_s,
            autotune_task_limit=self.autotune_task_limit,
            search_timeout_s=self.search_timeout_s,
        )
        stored = PLACEMENT_MEMO.lookup(key)
        if stored is not None:
            self._replay(stored, tr)
            return stored.plan
        plan, budget_cut = self._decide(physical, cluster, cost_model, tr)
        if not budget_cut:
            PLACEMENT_MEMO.store(
                key,
                _Decision(
                    plan=plan,
                    thresholds=self.last_thresholds,
                    fallback=self.last_fallback,
                    explanation=self.last_explanation,
                    search_stats=replace(self.last_search_stats),
                ),
            )
        return plan

    def _replay(self, stored: _Decision, tr: Tracer) -> None:
        """Report a memoised decision: its outcome, not the work behind it.

        The fallback observation runs again, because
        ``caps_placement_fallback_total`` counts placements by outcome.
        The autotune and search spans, the layer events and the
        ``caps_search_*_total`` counters do not: they count work done.
        """
        self.last_thresholds = stored.thresholds
        self.last_search_stats = replace(stored.search_stats)
        self.last_explanation = stored.explanation
        if tr.enabled:
            tr.event(
                "wall",
                "caps.memo",
                clock.monotonic(),
                cat="search",
                args={"chosen": stored.explanation.chosen},
            )
        if self.registry is not None:
            self.registry.counter(
                "caps_placement_memo_hits_total",
                help="Placements answered from the placement memo.",
            ).inc()
        if stored.fallback is not None:
            self._observe_fallback(stored.fallback, tr)

    def _decide(
        self,
        physical: PhysicalGraph,
        cluster: Cluster,
        cost_model: CostModel,
        tr: Tracer,
    ) -> Tuple[PlacementPlan, bool]:
        """Tune, search and pick a plan; also whether a budget cut the work.

        The flag is set when the autotune timed out or truncated a probe
        (a node-capped probe counts too), or when the final search did
        not exhaust its space: such a decision may depend on host speed.
        """
        budget_cut = False
        insensitive = set(cost_model.insensitive_dimensions())
        weights = {d: (0.01 if d in insensitive else 1.0) for d in ("cpu", "io", "net")}

        # Greedy warm start: a feasible balanced plan that (a) seeds the
        # pruning thresholds when auto-tuning is skipped or times out,
        # and (b) bounds the final result from below — the strategy
        # never returns a plan worse than greedy balance. The paper's
        # 20-thread Java search explores the same space orders of
        # magnitude faster than a Python DFS; the warm start keeps the
        # result quality honest at multi-tenant scale within an online
        # time budget. It may fail on a tight (e.g. fault-degraded)
        # cluster; the search and the evenly fallback below still run.
        try:
            greedy_plan = greedy_balanced_plan(cost_model, weights)
            greedy_cost = cost_model.cost(greedy_plan)
        except RuntimeError:
            greedy_plan = None
            greedy_cost = None

        thresholds = self.thresholds
        if thresholds is None and greedy_plan is not None:
            seed = greedy_threshold_seed(cost_model)
            if len(physical.tasks) <= self.autotune_task_limit:
                tuner = ThresholdAutoTuner(
                    cost_model,
                    timeout_s=self.autotune_timeout_s,
                    search_timeout_s=self.autotune_probe_timeout_s,
                    reorder=self.reorder,
                )
                with tr.wall_span("caps.autotune", cat="search") as span:
                    tuned = tuner.tune()
                    span.set(
                        iterations=tuned.iterations,
                        truncated_probes=tuned.truncated_probes,
                        timed_out=tuned.timed_out,
                        feasible=tuned.feasible,
                    )
                budget_cut = tuned.timed_out or tuned.truncated_probes > 0
                if tuned.timed_out:
                    thresholds = seed
                else:
                    # Use whichever feasible vector is tighter overall.
                    thresholds = (
                        tuned.thresholds
                        if tuned.thresholds.weighted_total(weights)
                        <= seed.weighted_total(weights)
                        else seed
                    )
            else:
                thresholds = seed
        self.last_thresholds = (
            thresholds
            if isinstance(thresholds, CostVector)
            else CostVector(**{d: thresholds.get(d, float("inf")) for d in ("cpu", "io", "net")})
        )

        search = CapsSearch(
            cost_model,
            thresholds=thresholds,
            reorder=self.reorder,
            selection_weights=weights,
        )
        limits = SearchLimits(timeout_s=self.search_timeout_s)
        with tr.wall_span("caps.search", cat="search", jobs=self.jobs) as span:
            result = run_search(
                search, limits, jobs=self.jobs, registry=self.registry
            )
            stats = result.stats
            span.set(
                nodes=stats.nodes,
                plans=stats.plans_found,
                pruned_slots=stats.pruned_slots,
                pruned_cpu=stats.pruned_cpu,
                pruned_io=stats.pruned_io,
                pruned_net=stats.pruned_net,
                exhausted=stats.exhausted,
                partitions=stats.partitions,
            )
        self.last_search_stats = stats
        self._observe_search(search, stats, tr)
        budget_cut = budget_cut or not stats.exhausted
        if result.best_plan is not None and result.best_cost is not None:
            if greedy_plan is None or result.best_cost.weighted_total(
                weights
            ) < greedy_cost.weighted_total(weights):
                self.last_explanation = explain_placement(
                    "search",
                    weights,
                    cost=result.best_cost,
                    runner_up="greedy" if greedy_plan is not None else None,
                    runner_up_cost=greedy_cost,
                    thresholds=self.last_thresholds,
                    plans_explored=stats.plans_found,
                    reason=(
                        "pareto search beat the greedy warm start"
                        if greedy_plan is not None
                        else "pareto search found the only feasible plan"
                    ),
                )
                return result.best_plan, budget_cut
            self.last_explanation = explain_placement(
                "greedy",
                weights,
                cost=greedy_cost,
                runner_up="search",
                runner_up_cost=result.best_cost,
                thresholds=self.last_thresholds,
                plans_explored=stats.plans_found,
                reason="greedy warm start was no worse than the best search plan",
            )
            return greedy_plan, budget_cut
        # Fallback chain: the search found zero satisfying plans (timed
        # out, or the thresholds are infeasible on this — possibly
        # fault-degraded — cluster). Degrade to the best-so-far greedy
        # warm start; if even greedy could not fit, fall back to a
        # deterministic evenly spread so the controller always gets a
        # deployable plan.
        if greedy_plan is not None:
            self._observe_fallback("greedy", tr)
            self.last_explanation = explain_placement(
                "greedy",
                weights,
                cost=greedy_cost,
                thresholds=self.last_thresholds,
                plans_explored=stats.plans_found,
                fallback_stage="greedy",
                reason="search found no satisfying plan within budget",
            )
            return greedy_plan, budget_cut
        self._observe_fallback("evenly", tr)
        plan = FlinkEvenlyStrategy(seed=0).place(physical, cluster)
        try:
            evenly_cost: Optional[CostVector] = cost_model.cost(plan)
        except Exception:
            evenly_cost = None
        self.last_explanation = explain_placement(
            "evenly",
            weights,
            cost=evenly_cost,
            thresholds=self.last_thresholds,
            plans_explored=stats.plans_found,
            fallback_stage="evenly",
            reason="neither search nor greedy produced a feasible plan",
        )
        return plan, budget_cut

    def _observe_fallback(self, stage: str, tr: Tracer) -> None:
        self.last_fallback = stage
        if tr.enabled:
            tr.event(
                "wall",
                "caps.fallback",
                clock.monotonic(),
                cat="search",
                args={"stage": stage},
            )
        if self.registry is not None:
            self.registry.counter(
                "caps_placement_fallback_total",
                labels={"stage": stage},
                help="Placements that fell back past the pareto search.",
            ).inc()

    def _observe_search(self, search: CapsSearch, stats, tr: Tracer) -> None:
        """Per-depth layer events and registry counters for one search.

        The per-depth counters come from the merged
        :class:`~repro.core.search.SearchStats` (``None`` when the
        reference implementation ran), so one event per depth suffices —
        no per-node work happened to produce them.
        """
        if tr.enabled and stats.layer_completions is not None:
            t = clock.monotonic()
            for depth, layer in enumerate(search.layers):
                tr.event(
                    "wall",
                    "caps.search.layer",
                    t,
                    cat="search",
                    args={
                        "depth": depth,
                        "job": str(layer.key[0]),
                        "operator": str(layer.key[1]),
                        "tasks": len(layer.task_uids),
                        "completions": stats.layer_completions[depth],
                        "net_prunes": stats.layer_net_prunes[depth],
                    },
                )
        registry = self.registry
        if registry is not None:
            registry.counter(
                "caps_search_runs_total", help="Placement searches executed."
            ).inc()
            registry.counter(
                "caps_search_nodes_total", help="DFS nodes expanded."
            ).inc(stats.nodes)
            registry.counter(
                "caps_search_plans_total", help="Satisfying plans discovered."
            ).inc(stats.plans_found)
            for dim in ("slots", "cpu", "io", "net"):
                registry.counter(
                    "caps_search_pruned_total",
                    labels={"dim": dim},
                    help="Branches pruned, by bounding dimension.",
                ).inc(getattr(stats, f"pruned_{dim}"))
