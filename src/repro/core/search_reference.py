"""Frozen reference implementation of the CAPS DFS (pre-optimisation).

This module preserves the original, straightforward inner-search state
of :mod:`repro.core.search` exactly as it was before the incremental-
bookkeeping optimisation:

- worker equivalence groups are recomputed at every outer layer from the
  full per-worker assignment *history* tuples;
- the per-worker lower bound is found by linearly scanning candidate
  counts;
- load bounds and per-layer unit costs are re-read from dictionaries
  inside the inner loop.

It exists for two reasons. First, the equivalence test-suite pits the
optimised search against this one on seeded instances: both must visit
the same number of nodes, prune the same branches, and discover the
identical plan set. Second, ``benchmarks/bench_perf_search.py`` times
the two implementations side by side to quantify (and regression-guard)
the speedup of the incremental bookkeeping.

Do not "improve" this file; its value is that it does not change.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.observability import clock

from repro.core.cost_model import CostVector
from repro.core.pareto import ParetoFront
from repro.core.plan import PlacementPlan
from repro.core.search import (
    CapsSearch,
    SearchLimits,
    SearchResult,
    SearchStats,
    _DEADLINE_CHECK_INTERVAL,
    _Layer,
    _StopSearch,
)


class ReferenceCapsSearch(CapsSearch):
    """A :class:`CapsSearch` that runs the pre-optimisation DFS state.

    Construction (layer building, bounds, ordering) is shared with the
    optimised search, so any difference in behaviour is attributable to
    the inner-search bookkeeping alone.
    """

    def run(self, limits: Optional[SearchLimits] = None) -> SearchResult:
        limits = limits or SearchLimits()
        state = _ReferenceSearchState(self, limits)
        started = clock.monotonic()
        try:
            state.descend_layer(0)
        except _StopSearch:
            state.stats.exhausted = False
        state.stats.duration_s = clock.elapsed_since(started)

        best_plan: Optional[PlacementPlan] = None
        best_cost: Optional[CostVector] = None
        if state.first_plan is not None:
            best_plan, best_cost = state.first_plan
        best_entry = state.front.best(self.selection_weights)
        if best_entry is not None:
            best_cost, best_plan = best_entry
        if best_plan is None and state.all_plans:
            best_cost, best_plan = min(
                state.all_plans,
                key=lambda entry: entry[0].weighted_total(self.selection_weights),
            )
        return SearchResult(
            best_plan=best_plan,
            best_cost=best_cost,
            pareto=state.front,
            stats=state.stats,
            all_plans=state.all_plans,
        )


class _ReferenceSearchState:
    """The original mutable DFS state, recomputing group ids per node."""

    def __init__(self, search: CapsSearch, limits: SearchLimits) -> None:
        self.search = search
        self.limits = limits
        self.stats = SearchStats()
        self.front: ParetoFront[PlacementPlan] = ParetoFront(
            capacity=search.pareto_capacity
        )
        self.first_plan: Optional[Tuple[PlacementPlan, CostVector]] = None
        self.all_plans: List[Tuple[CostVector, PlacementPlan]] = []

        worker_count = len(search.worker_ids)
        self.free: List[int] = list(search._slots)
        self.load_cpu: List[float] = [0.0] * worker_count
        self.load_io: List[float] = [0.0] * worker_count
        self.load_net: List[float] = [0.0] * worker_count
        self.counts: List[Optional[List[int]]] = [None] * len(search.layers)
        self.base_groups: List[int] = list(search._spec_group)
        self.histories: List[Tuple[int, ...]] = [() for _ in range(worker_count)]
        self._deadline = (
            clock.deadline(limits.timeout_s) if limits.timeout_s else None
        )
        self._node_tick = 0
        self.stop_event = None

    # ------------------------------------------------------------------
    def _note_node(self) -> None:
        self.stats.nodes += 1
        limits = self.limits
        if limits.max_nodes is not None and self.stats.nodes >= limits.max_nodes:
            raise _StopSearch
        self._node_tick += 1
        if self._node_tick >= _DEADLINE_CHECK_INTERVAL:
            self._node_tick = 0
            if self._deadline is not None and clock.monotonic() > self._deadline:
                raise _StopSearch
            if self.stop_event is not None and self.stop_event.is_set():
                raise _StopSearch

    # ------------------------------------------------------------------
    def descend_layer(self, layer_idx: int) -> None:
        if layer_idx == len(self.search.layers):
            self._on_complete_plan()
            return
        layer = self.search.layers[layer_idx]
        group_ids: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        groups: List[int] = []
        for w, history in enumerate(self.histories):
            key = (self.base_groups[w], history)
            group_ids.setdefault(key, len(group_ids))
            groups.append(group_ids[key])
        counts = [0] * len(self.free)
        last_in_group: Dict[int, int] = {}
        self._place_worker(layer_idx, layer, 0, layer.count, counts, groups, last_in_group)

    def _place_worker(
        self,
        layer_idx: int,
        layer: _Layer,
        position: int,
        remaining: int,
        counts: List[int],
        groups: List[int],
        last_in_group: Dict[int, int],
    ) -> None:
        workers = self.search.worker_ids
        if position == len(workers):
            if remaining == 0:
                self._on_layer_complete(layer_idx, layer, counts)
            return
        free = self.free[position]
        group = groups[position]

        ub = min(free, remaining)
        if group in last_in_group:
            ub = min(ub, last_in_group[group])
        bounds = self.search._bounds
        if layer.u_cpu > 0 and not math.isinf(bounds["cpu"]):
            headroom = bounds["cpu"] - self.load_cpu[position]
            cap = int(math.floor(headroom / layer.u_cpu)) if headroom > 0 else -1
            if cap < ub:
                self.stats.pruned_cpu += 1
                ub = cap
        if layer.u_io > 0 and not math.isinf(bounds["io"]):
            headroom = bounds["io"] - self.load_io[position]
            cap = int(math.floor(headroom / layer.u_io)) if headroom > 0 else -1
            if cap < ub:
                self.stats.pruned_io += 1
                ub = cap
        if ub < 0:
            return

        same_group_after = 0
        absorb_other = 0
        for later in range(position + 1, len(workers)):
            later_group = groups[later]
            if later_group == group:
                same_group_after += 1
            else:
                cap = self.free[later]
                if later_group in last_in_group:
                    cap = min(cap, last_in_group[later_group])
                absorb_other += cap
        lb = 0
        while lb <= ub:
            absorbable = absorb_other + same_group_after * min(self.free[position], lb)
            if lb + absorbable >= remaining:
                break
            lb += 1
        if lb > ub:
            self.stats.pruned_slots += 1
            return

        for c in range(lb, ub + 1):
            self._note_node()
            counts[position] = c
            self.free[position] -= c
            self.load_cpu[position] += c * layer.u_cpu
            self.load_io[position] += c * layer.u_io
            had_last = group in last_in_group
            prev_last = last_in_group.get(group)
            last_in_group[group] = c
            try:
                self._place_worker(
                    layer_idx, layer, position + 1, remaining - c, counts, groups, last_in_group
                )
            finally:
                if had_last:
                    last_in_group[group] = prev_last  # type: ignore[assignment]
                else:
                    del last_in_group[group]
                self.load_cpu[position] -= c * layer.u_cpu
                self.load_io[position] -= c * layer.u_io
                self.free[position] += c
                counts[position] = 0

    # ------------------------------------------------------------------
    def _on_layer_complete(
        self, layer_idx: int, layer: _Layer, counts: List[int]
    ) -> None:
        snapshot = list(counts)
        self.counts[layer_idx] = snapshot
        net_deltas = self._resolve_net(layer_idx, layer, snapshot)
        bound_net = self.search._bounds["net"]
        violated = any(
            self.load_net[w] > bound_net for w, _ in net_deltas
        )
        old_histories = self.histories
        if not violated:
            self.histories = [
                history + (snapshot[w],) for w, history in enumerate(old_histories)
            ]
            try:
                self.descend_layer(layer_idx + 1)
            finally:
                self.histories = old_histories
        else:
            self.stats.pruned_net += 1
        for w, delta in net_deltas:
            self.load_net[w] -= delta
        self.counts[layer_idx] = None

    def _resolve_net(
        self, layer_idx: int, layer: _Layer, counts: List[int]
    ) -> List[Tuple[int, float]]:
        deltas: List[Tuple[int, float]] = []
        layers = self.search.layers
        for other_idx, direction, forward in layer.resolutions:
            other = layers[other_idx]
            other_counts = self.counts[other_idx]
            if other_counts is None:  # pragma: no cover - defensive
                continue
            if direction == "out":
                emitter, emitter_counts = other, other_counts
                receiver, receiver_counts = layer, counts
            else:
                emitter, emitter_counts = layer, counts
                receiver, receiver_counts = other, other_counts
            if emitter.d_total == 0 or emitter.u_net == 0.0:
                continue
            p_receiver = receiver.count
            for w in range(len(counts)):
                c_e = emitter_counts[w]
                if c_e == 0:
                    continue
                if forward:
                    cross_links = max(0, c_e - receiver_counts[w])
                    load = emitter.u_net * cross_links / emitter.d_total
                else:
                    cross_links = p_receiver - receiver_counts[w]
                    load = (
                        emitter.u_net * c_e * cross_links / emitter.d_total
                    )
                if load > 0.0:
                    self.load_net[w] += load
                    deltas.append((w, load))
        return deltas

    # ------------------------------------------------------------------
    def _on_complete_plan(self) -> None:
        self.stats.plans_found += 1
        cost = self.search.cost_model.cost_from_loads(
            {
                "cpu": max(self.load_cpu),
                "io": max(self.load_io),
                "net": max(self.load_net),
            }
        )
        if self.limits.first_satisfying and self.first_plan is None:
            self.first_plan = (self._build_plan(), cost)
            raise _StopSearch
        if self.search.collect_all:
            self.all_plans.append((cost, self._build_plan()))
        if self.search.collect_pareto and self.front.would_accept(cost):
            self.front.insert(cost, self._build_plan())
        if (
            self.limits.max_plans is not None
            and self.stats.plans_found >= self.limits.max_plans
        ):
            raise _StopSearch

    def _build_plan(self) -> PlacementPlan:
        assignment: Dict[str, int] = {}
        workers = self.search.worker_ids
        for layer_idx, layer in enumerate(self.search.layers):
            counts = self.counts[layer_idx]
            assert counts is not None
            cursor = 0
            for position, count in enumerate(counts):
                for _ in range(count):
                    assignment[layer.task_uids[cursor]] = workers[position]
                    cursor += 1
        return PlacementPlan(assignment)
