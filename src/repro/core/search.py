"""Contention-Aware Placement Search (paper sections 4.3-4.4).

The search space of feasible plans is a tree navigated depth-first:

- the **outer search** explores one operator per layer of the tree, in
  either topological order or the cost-ranked order of
  :mod:`repro.core.reorder`;
- the **inner search** expands each node worker by worker, assigning a
  count of the operator's (identical) tasks to each worker;
- **duplicate elimination** treats workers with identical partial
  assignments as interchangeable: within each equivalence group, task
  counts are forced to be non-increasing, so each equivalence class of
  plans is enumerated exactly once (paper Figure 4c);
- **threshold pruning** (section 4.4.1) cuts a branch as soon as any
  worker's accumulated load exceeds the Eq. 10 bound
  ``L_min + alpha (L_max - L_min)`` in any dimension, which is safe
  because per-worker loads grow monotonically down the tree.

Network loads are resolved incrementally: a physical edge contributes to
worker loads at the layer where its *second* endpoint operator is
placed, at which point the number of cross-worker links is known. The
resolved load is a monotone lower bound of the final network load, so
pruning on it is safe.

Skew extension (paper section 5.2 "Addressing data skew"): tasks of one
operator with *different* utilisations (e.g. produced by a skew-aware
partitioner) are automatically split into separate *placement groups*,
each explored as its own outer layer.

Performance note (the incremental-bookkeeping layer): the DFS state
maintains per-worker cpu/io/net partial loads *and* worker equivalence
groups as mutating arrays updated in O(1) per place/unplace step.
Equivalence groups are refined incrementally at each layer boundary from
``(previous group, placed count)`` pairs instead of re-hashing the full
per-worker assignment-history tuples, and the per-layer invariants (unit
costs, load limits, activity flags) are precomputed once per search so
the inner loop touches only local scalars. Partial loads are restored by
assignment rather than subtraction, which makes every plan's cost a pure
function of its own placement path: the pre-optimisation code's
undo-by-subtraction leaked last-bit float noise from already-explored
subtrees into later costs, so a plan's reported cost depended on the
exploration history. Path-pure costs are also what make the partitioned
process-pool search bit-identical to the sequential one. The
pre-optimisation implementation is preserved verbatim in
:mod:`repro.core.search_reference`; the equivalence suite and
``benchmarks/bench_perf_search.py`` hold the two to identical node
counts, prune counters, and plan sequences (costs agree to float
round-off).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.observability import clock
from repro.core.cost_model import ALPHA_EPS, CostModel, CostVector, DIMENSIONS
from repro.core.pareto import ParetoFront
from repro.core.plan import PlacementPlan
from repro.core.reorder import exploration_order

OperatorKey = Tuple[str, str]

_DEADLINE_CHECK_INTERVAL = 4096


@dataclass
class SearchLimits:
    """Resource limits for one search invocation.

    Attributes:
        max_nodes: Stop after expanding this many inner-search nodes.
        max_plans: Stop after discovering this many satisfying plans.
        timeout_s: Wall-clock budget; the search returns its best-so-far.
        first_satisfying: Return as soon as one satisfying plan is found
            (the mode timed by Figure 10a).
    """

    max_nodes: Optional[int] = None
    max_plans: Optional[int] = None
    timeout_s: Optional[float] = None
    first_satisfying: bool = False


@dataclass
class SearchStats:
    """Counters describing one search run (the quantities of Table 2).

    Counter semantics are identical for the sequential search and the
    partitioned process-pool search: each counter counts the same
    events, and for a run that explores its whole space
    (``exhausted=True``) both report the exact same totals (the pool
    driver accounts the first-layer seed enumeration once and sums
    per-partition counters). In ``first_satisfying`` mode the *returned
    plan* and ``first_seed`` are deterministic and independent of the
    worker count, while the work counters reflect the work actually
    performed before cancellation, which for a pool is
    timing-dependent. ``max_nodes``/``max_plans``/``timeout_s`` budgets
    apply globally in sequential mode and per-partition in the pool.
    """

    nodes: int = 0
    plans_found: int = 0
    pruned_slots: int = 0
    pruned_cpu: int = 0
    pruned_io: int = 0
    pruned_net: int = 0
    duration_s: float = 0.0
    exhausted: bool = True
    #: In ``first_satisfying`` mode: index (in first-layer enumeration
    #: order) of the outer-layer seed assignment whose subtree produced
    #: the returned plan. Independent of the worker count; the pool
    #: driver derives the winning partition as ``first_seed % partitions``
    #: under its round-robin deal.
    first_seed: Optional[int] = None
    #: Number of parallel search partitions that contributed (1 for a
    #: sequential run).
    partitions: int = 1
    #: Per-depth completion counts: ``layer_completions[d]`` is the
    #: number of net-feasible assignments of outer layer ``d`` the DFS
    #: finished (= expansions into depth ``d+1``, or completed plans for
    #: the last layer). Populated by the incremental search only
    #: (``None`` from the reference implementation); accounted at layer
    #: completion, never per node, so the hot path stays flat. The
    #: tracer turns these into per-depth sub-spans of the search span.
    layer_completions: Optional[Tuple[int, ...]] = None
    #: Per-depth network-threshold prunes (the ``pruned_net`` counter,
    #: attributed to the layer whose resolution violated the bound).
    layer_net_prunes: Optional[Tuple[int, ...]] = None

    @property
    def pruned_total(self) -> int:
        return self.pruned_slots + self.pruned_cpu + self.pruned_io + self.pruned_net

    def add(self, other: "SearchStats") -> None:
        """Accumulate another run's work counters into this one.

        Used by the pool driver to merge per-partition stats;
        ``duration_s``, ``first_seed`` and ``partitions`` are driver-owned
        and not touched here.
        """
        self.nodes += other.nodes
        self.plans_found += other.plans_found
        self.pruned_slots += other.pruned_slots
        self.pruned_cpu += other.pruned_cpu
        self.pruned_io += other.pruned_io
        self.pruned_net += other.pruned_net
        self.exhausted = self.exhausted and other.exhausted
        if other.layer_completions is not None:
            if self.layer_completions is None:
                self.layer_completions = other.layer_completions
            else:
                self.layer_completions = tuple(
                    a + b
                    for a, b in zip(self.layer_completions, other.layer_completions)
                )
        if other.layer_net_prunes is not None:
            if self.layer_net_prunes is None:
                self.layer_net_prunes = other.layer_net_prunes
            else:
                self.layer_net_prunes = tuple(
                    a + b
                    for a, b in zip(self.layer_net_prunes, other.layer_net_prunes)
                )


@dataclass
class SearchResult:
    """Outcome of a search: the chosen plan, its cost, and diagnostics."""

    best_plan: Optional[PlacementPlan]
    best_cost: Optional[CostVector]
    pareto: ParetoFront
    stats: SearchStats
    #: Every satisfying plan with its cost, populated only when the
    #: search ran with ``collect_all=True`` (exhaustive studies).
    all_plans: List[Tuple[CostVector, PlacementPlan]] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.best_plan is not None


def select_result(
    stats: SearchStats,
    front: ParetoFront,
    first_plan: Optional[Tuple[PlacementPlan, CostVector]],
    all_plans: List[Tuple[CostVector, PlacementPlan]],
    selection_weights: Optional[Mapping[str, float]],
) -> SearchResult:
    """Pick the plan a search returns and wrap it in a SearchResult.

    The one selection rule of the sequential run and the partition
    merge: the weighted pareto best when the front holds a plan, else
    the first satisfying plan, else the cheapest collected plan.
    """
    best_plan: Optional[PlacementPlan] = None
    best_cost: Optional[CostVector] = None
    if first_plan is not None:
        best_plan, best_cost = first_plan
    best_entry = front.best(selection_weights)
    if best_entry is not None:
        best_cost, best_plan = best_entry
    if best_plan is None and all_plans:
        best_cost, best_plan = min(
            all_plans,
            key=lambda entry: entry[0].weighted_total(selection_weights),
        )
    return SearchResult(
        best_plan=best_plan,
        best_cost=best_cost,
        pareto=front,
        stats=stats,
        all_plans=all_plans,
    )


@dataclass
class _Layer:
    """One outer-search layer: a group of identical tasks to place."""

    key: OperatorKey
    task_uids: List[str]
    u_cpu: float
    u_io: float
    u_net: float
    d_total: int  # |D(t)| of each task in this layer
    # Net-resolution entries: edges whose other endpoint layer is already
    # placed when this layer completes. Each entry is
    # (other_layer_index, direction, forward) where direction is "out" if
    # this layer's tasks are the emitters.
    resolutions: List[Tuple[int, str, bool]] = field(default_factory=list)
    # Hoisted per-layer invariants, filled in once by CapsSearch: whether
    # the cpu/io load bound actively caps this layer (non-zero unit cost
    # and a finite bound) and the bound value inclusive of the Eq. 9
    # tolerance, so the inner loop never re-derives them per node.
    cap_cpu: bool = False
    cap_io: bool = False
    limit_cpu: float = math.inf
    limit_io: float = math.inf

    @property
    def count(self) -> int:
        return len(self.task_uids)


class _StopSearch(Exception):
    """Internal control-flow signal: a limit fired, unwind the DFS."""


def _as_cost_vector(
    thresholds: Union[CostVector, Mapping[str, float], None]
) -> CostVector:
    if thresholds is None:
        return CostVector.unbounded()
    if isinstance(thresholds, CostVector):
        return thresholds
    return CostVector(
        cpu=float(thresholds.get("cpu", math.inf)),
        io=float(thresholds.get("io", math.inf)),
        net=float(thresholds.get("net", math.inf)),
    )


class CapsSearch:
    """A configured CAPS search over one (physical graph, cluster) pair.

    Args:
        cost_model: The cost model binding graph, cluster, and task costs.
        thresholds: The pruning factor vector (paper Eq. 9). Missing or
            infinite entries disable pruning for that dimension. Rebind
            it with :meth:`set_thresholds` to run the same prepared
            search under another vector.
        reorder: Apply exploration reordering (section 4.4.2).
        order: Explicit operator exploration order (overrides reorder).
        collect_pareto: Maintain the satisfying-plan pareto front. Turn
            off for pure counting runs (Table 2) to avoid plan
            construction overhead.
        pareto_capacity: Bound on the retained front size.
    """

    def __init__(
        self,
        cost_model: CostModel,
        thresholds: Union[CostVector, Mapping[str, float], None] = None,
        reorder: bool = True,
        order: Optional[Sequence[OperatorKey]] = None,
        collect_pareto: bool = True,
        pareto_capacity: int = 64,
        collect_all: bool = False,
        selection_weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.cost_model = cost_model
        self.collect_pareto = collect_pareto
        self.pareto_capacity = pareto_capacity
        self.collect_all = collect_all
        #: Per-dimension weights for picking one plan off the pareto
        #: front; insensitive dimensions get near-zero weight (see
        #: CostModel.insensitive_dimensions).
        self.selection_weights = dict(selection_weights) if selection_weights else None

        physical = cost_model.physical
        if order is None:
            order = exploration_order(cost_model.costs, reorder=reorder)
        else:
            expected = set(physical.operator_keys())
            if set(order) != expected or len(order) != len(expected):
                raise ValueError("explicit order must be a permutation of operators")
        self._order: List[OperatorKey] = list(order)
        self._layers: List[_Layer] = self._build_layers()

        cluster = cost_model.cluster
        self._worker_ids: List[int] = [w.worker_id for w in cluster.workers]
        self._slots: List[int] = [w.slots for w in cluster.workers]
        self._spec_group: List[int] = self._spec_groups()
        total_tasks = sum(layer.count for layer in self._layers)
        if total_tasks > sum(self._slots):
            raise ValueError(
                f"{total_tasks} tasks exceed the cluster's {sum(self._slots)} slots"
            )
        self.set_thresholds(thresholds)

    def set_thresholds(
        self, thresholds: Union[CostVector, Mapping[str, float], None]
    ) -> None:
        """Rebind the pruning factor vector; the next :meth:`run` uses it.

        Only the Eq. 10 load bounds and the per-layer limits derived from
        them depend on the thresholds, so a caller probing many vectors
        over one (graph, cluster) pair — the auto-tuner — prepares the
        layers once and rebinds the bounds per probe.
        """
        vector = _as_cost_vector(thresholds)
        for dim in DIMENSIONS:
            if vector[dim] < 0:
                raise ValueError(f"threshold alpha_{dim} must be >= 0")
        self.thresholds = vector
        # Each load bound is Eq. 10 at alpha + ALPHA_EPS, the tolerance
        # CostVector.within grants a normalised cost. The slack thus
        # scales with the dimension's spread L_max - L_min, so the pruned
        # search keeps the plans within() accepts at any load magnitude
        # (up to the rounding of alpha + ALPHA_EPS itself), and a plan at
        # alpha exactly is not lost to the last bit of a float sum. A flat
        # dimension costs 0 for every plan, so no alpha can cut it.
        self._bounds: Dict[str, float] = {}
        for dim in DIMENSIONS:
            if self.cost_model.is_flat(dim):
                self._bounds[dim] = math.inf
            else:
                self._bounds[dim] = self.cost_model.load_bound(
                    dim, vector[dim] + ALPHA_EPS
                )
        # Hoist the per-layer pruning invariants out of the inner loop.
        limit_cpu = self._bounds["cpu"]
        limit_io = self._bounds["io"]
        self._limit_net: float = self._bounds["net"]
        for layer in self._layers:
            layer.cap_cpu = layer.u_cpu > 0 and not math.isinf(limit_cpu)
            layer.cap_io = layer.u_io > 0 and not math.isinf(limit_io)
            layer.limit_cpu = limit_cpu
            layer.limit_io = limit_io

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_layers(self) -> List[_Layer]:
        physical = self.cost_model.physical
        costs = self.cost_model.costs
        layers: List[_Layer] = []
        layer_of_operator: Dict[OperatorKey, List[int]] = {}
        for key in self._order:
            tasks = physical.operator_tasks(*key)
            # Split the operator into placement groups of identical tasks
            # (usually a single group; several under data skew).
            groups: Dict[Tuple[float, float, float, int], List[str]] = {}
            for task in tasks:
                sig = (
                    costs.u_cpu[task.uid],
                    costs.u_io[task.uid],
                    costs.u_net[task.uid],
                    physical.downstream_degree(task),
                )
                groups.setdefault(sig, []).append(task.uid)
            layer_of_operator[key] = []
            for sig in sorted(groups):
                u_cpu, u_io, u_net, d_total = sig
                layers.append(
                    _Layer(
                        key=key,
                        task_uids=sorted(groups[sig]),
                        u_cpu=u_cpu,
                        u_io=u_io,
                        u_net=u_net,
                        d_total=d_total,
                    )
                )
                layer_of_operator[key].append(len(layers) - 1)

        # Register net-resolution entries: each physical edge (as an
        # operator pair) resolves at the later-placed layer. An operator
        # pair is a FORWARD edge iff it carries exactly one channel per
        # endpoint task (one-to-one pairing).
        channel_count: Dict[Tuple[OperatorKey, OperatorKey], int] = {}
        for channel in physical.channels:
            src_key = (channel.src.job_id, channel.src.operator)
            dst_key = (channel.dst.job_id, channel.dst.operator)
            pair = (src_key, dst_key)
            channel_count[pair] = channel_count.get(pair, 0) + 1
        seen_edges: Dict[Tuple[OperatorKey, OperatorKey], bool] = {}
        for (src_key, dst_key), n_channels in channel_count.items():
            p_src = len(physical.operator_tasks(*src_key))
            p_dst = len(physical.operator_tasks(*dst_key))
            seen_edges[(src_key, dst_key)] = n_channels == p_src == p_dst
        for (src_key, dst_key), forward in seen_edges.items():
            for src_idx in layer_of_operator[src_key]:
                for dst_idx in layer_of_operator[dst_key]:
                    later = max(src_idx, dst_idx)
                    other = min(src_idx, dst_idx)
                    direction = "out" if later == dst_idx else "in"
                    # direction describes the OTHER layer's role relative
                    # to the later layer: "out" means the earlier layer
                    # emits into the later one.
                    layers[later].resolutions.append((other, direction, forward))
        return layers

    def _spec_groups(self) -> List[int]:
        """Initial equivalence-group id per worker (identical specs)."""
        cluster = self.cost_model.cluster
        spec_ids: Dict[object, int] = {}
        groups: List[int] = []
        for worker in cluster.workers:
            spec_ids.setdefault(worker.spec, len(spec_ids))
            groups.append(spec_ids[worker.spec])
        return groups

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def run(self, limits: Optional[SearchLimits] = None) -> SearchResult:
        """Execute the DFS and return the (pareto-)best satisfying plan."""
        limits = limits or SearchLimits()
        state = _SearchState(self, limits)
        started = clock.monotonic()
        try:
            state.descend_layer(0)
        except _StopSearch:
            state.exhausted = False
        stats = state.stats()
        stats.duration_s = clock.elapsed_since(started)
        return select_result(
            stats,
            state.front,
            state.first_plan,
            state.all_plans,
            self.selection_weights,
        )

    # Exposed for the parallel driver -----------------------------------
    @property
    def layers(self) -> List[_Layer]:
        return self._layers

    @property
    def bounds(self) -> Dict[str, float]:
        return dict(self._bounds)

    @property
    def worker_ids(self) -> List[int]:
        return list(self._worker_ids)

    def make_state(self, limits: SearchLimits) -> "_SearchState":
        return _SearchState(self, limits)


class _SearchState:
    """Mutable DFS state: per-worker loads, groups, counts, statistics.

    This is the optimised (incremental-bookkeeping) implementation:

    - statistics are plain ``int`` attributes (assembled into a
      :class:`SearchStats` by :meth:`stats`) so the hot path pays
      attribute arithmetic, not dataclass field access;
    - worker equivalence groups live in :attr:`groups` and are *refined*
      at each completed layer from ``(previous group, placed count)``
      pairs — an O(workers) step per layer node instead of re-hashing
      full per-worker history tuples at every layer entry;
    - the per-worker lower bound is computed in closed form;
    - per-layer invariants (unit costs, activity flags, tolerant load
      limits) are read off the :class:`_Layer`, precomputed at search
      construction.

    It also carries the seed bookkeeping of the partitioned search:
    :attr:`seed_collector` switches the DFS into first-layer enumeration
    mode, :meth:`run_seed` explores the subtree under one pre-enumerated
    first-layer assignment, and :attr:`first_seed` deterministically
    identifies which first-layer assignment produced the plan returned
    in ``first_satisfying`` mode.
    """

    def __init__(self, search: CapsSearch, limits: SearchLimits) -> None:
        self.search = search
        self.limits = limits
        self.front: ParetoFront[PlacementPlan] = ParetoFront(
            capacity=search.pareto_capacity
        )
        self.first_plan: Optional[Tuple[PlacementPlan, CostVector]] = None
        self.all_plans: List[Tuple[CostVector, PlacementPlan]] = []

        # Statistics as plain attributes (see stats()).
        self.nodes = 0
        self.plans_found = 0
        self.pruned_slots = 0
        self.pruned_cpu = 0
        self.pruned_io = 0
        self.pruned_net = 0
        self.exhausted = True
        self.first_seed: Optional[int] = None
        # Per-depth counters, bumped only at layer-completion events
        # (one increment per completed layer assignment, never per
        # node), so enabling them costs the hot loop nothing.
        n_layers = len(search._layers)
        self.layer_completions = [0] * n_layers
        self.layer_net_prunes = [0] * n_layers

        #: Whether plan completions need their cost vector at all; in pure
        #: counting runs (Table 2) the cost is dead and skipped entirely.
        self._need_cost = (
            limits.first_satisfying or search.collect_all or search.collect_pareto
        )
        #: max_nodes as a sentinel so the per-node check is one compare.
        self._max_nodes = (
            limits.max_nodes if limits.max_nodes is not None else sys.maxsize
        )

        worker_count = len(search._worker_ids)
        self.n_workers = worker_count
        self.free: List[int] = list(search._slots)
        self.load_cpu: List[float] = [0.0] * worker_count
        self.load_io: List[float] = [0.0] * worker_count
        self.load_net: List[float] = [0.0] * worker_count
        # counts[layer][worker] once a layer is placed
        self.counts: List[Optional[List[int]]] = [None] * len(search._layers)
        # Current worker equivalence-group ids, refined per placed layer:
        # workers are interchangeable iff they share a spec group and an
        # identical assignment history, and the refinement by
        # (previous group, count) pairs preserves exactly that partition.
        self.groups: List[int] = list(search._spec_group)
        # Preallocated undo scratch for the fused last-layer completion:
        # one (worker, previous net load) pair per resolution edge per
        # worker at most.
        max_res = max((len(l.resolutions) for l in search._layers), default=0)
        self._undo_w: List[int] = [0] * (max_res * worker_count)
        self._undo_delta: List[float] = [0.0] * (max_res * worker_count)
        self._deadline = (
            clock.deadline(limits.timeout_s) if limits.timeout_s else None
        )
        self._node_tick = 0
        #: Optional cancellation flag (any object with an ``is_set()``
        #: method; set by the partitioned search in first-satisfying
        #: mode).
        self.stop_event = None
        #: When not None, the DFS runs in *seed enumeration* mode: every
        #: net-feasible completion of layer 0 is appended here (in DFS
        #: order) instead of being descended into. Node/prune counters
        #: for layer 0 accumulate exactly as in a full run.
        self.seed_collector: Optional[List[List[int]]] = None
        #: Index, in first-layer DFS enumeration order, of the next
        #: net-feasible layer-0 assignment.
        self.layer0_index = 0
        #: Seed index of the layer-0 assignment currently descended into.
        self._seed_index: Optional[int] = None

    def stats(self) -> SearchStats:
        """Assemble the counter attributes into a SearchStats."""
        return SearchStats(
            nodes=self.nodes,
            plans_found=self.plans_found,
            pruned_slots=self.pruned_slots,
            pruned_cpu=self.pruned_cpu,
            pruned_io=self.pruned_io,
            pruned_net=self.pruned_net,
            exhausted=self.exhausted,
            first_seed=self.first_seed,
            layer_completions=tuple(self.layer_completions),
            layer_net_prunes=tuple(self.layer_net_prunes),
        )

    # ------------------------------------------------------------------
    def _check_deadline(self) -> None:
        """Slow-path limit check, every _DEADLINE_CHECK_INTERVAL nodes."""
        self._node_tick = 0
        if self._deadline is not None and clock.monotonic() > self._deadline:
            raise _StopSearch
        if self.stop_event is not None and self.stop_event.is_set():
            raise _StopSearch

    # ------------------------------------------------------------------
    def descend_layer(self, layer_idx: int) -> None:
        if layer_idx == len(self.search._layers):
            self._on_complete_plan()
            return
        layer = self.search._layers[layer_idx]
        counts = [0] * self.n_workers
        self._place_worker(
            layer_idx, layer, 0, layer.count, counts, self.groups, {}
        )

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
        n = self.n_workers
        if position == n:
            if remaining == 0:
                self._on_layer_complete(layer_idx, layer, counts)
            return
        free_arr = self.free
        free = free_arr[position]
        group = groups[position]

        # Upper bound: slots, remaining tasks, duplicate-elimination cap,
        # and the cpu/io load bounds of Eq. 10.
        ub = free if free < remaining else remaining
        prev_last = last_in_group.get(group)
        if prev_last is not None and prev_last < ub:
            ub = prev_last
        u_cpu = layer.u_cpu
        u_io = layer.u_io
        load_cpu = self.load_cpu
        load_io = self.load_io
        base_cpu = load_cpu[position]
        base_io = load_io[position]
        if layer.cap_cpu:
            headroom = layer.limit_cpu - base_cpu
            cap = int(headroom / u_cpu) if headroom > 0 else -1
            if cap < ub:
                self.pruned_cpu += 1
                ub = cap
        if layer.cap_io:
            headroom = layer.limit_io - base_io
            cap = int(headroom / u_io) if headroom > 0 else -1
            if cap < ub:
                self.pruned_io += 1
                ub = cap
        if ub < 0:
            return

        # Lower bound: the workers after this one must be able to absorb
        # the leftover tasks given slot capacities and duplicate caps.
        # Of `remaining` tasks, other-group workers can take at most
        # `absorb_other`; each of the `same_group_after` workers in this
        # worker's group can take at most the count placed here. The
        # smallest feasible count is therefore the closed form
        # ceil(need / (same_group_after + 1)) for need > 0 — identical to
        # scanning candidate counts upward, since absorbable capacity is
        # monotone in the count.
        same_group_after = 0
        absorb_other = 0
        for later in range(position + 1, n):
            later_group = groups[later]
            if later_group == group:
                same_group_after += 1
            else:
                cap = free_arr[later]
                later_last = last_in_group.get(later_group)
                if later_last is not None and later_last < cap:
                    cap = later_last
                absorb_other += cap
        need = remaining - absorb_other
        if need <= 0:
            lb = 0
        else:
            lb = -(-need // (same_group_after + 1))
            if lb > ub:
                self.pruned_slots += 1
                return

        # NB: loads are set to ``base + c*u`` and restored to the saved
        # base by *assignment*, never by subtracting the placed amount.
        # ``(x + c*u) - c*u`` can differ from ``x`` in the last bit, so
        # the reference implementation's undo-by-subtraction leaked
        # last-bit noise from already-explored sibling subtrees into
        # later plan costs, making a plan's reported cost depend on the
        # exploration history (and hence on search partitioning).
        # Assignment restore keeps loads a pure function of the current
        # path, which is what makes the partitioned search bit-identical
        # to the sequential one.
        max_nodes = self._max_nodes
        next_position = position + 1
        if next_position == n:
            # Last worker of the layer: with no workers left to absorb
            # tasks, the closed-form bound gives lb == remaining, so the
            # first count completes the layer and every higher count is a
            # dead-end node (its recursion would return immediately on
            # ``remaining != 0``). Complete once, then batch-account the
            # dead nodes instead of recursing per count.
            self.nodes += 1
            if self.nodes >= max_nodes:
                raise _StopSearch
            self._node_tick += 1
            if self._node_tick >= _DEADLINE_CHECK_INTERVAL:
                self._check_deadline()
            counts[position] = lb
            free_arr[position] = free - lb
            load_cpu[position] = base_cpu + lb * u_cpu
            load_io[position] = base_io + lb * u_io
            last_in_group[group] = lb
            self._on_layer_complete(layer_idx, layer, counts)
            dead = ub - lb
            if dead:
                if self.nodes + dead >= max_nodes:
                    # The reference counts these one at a time and stops
                    # the moment the counter reaches the budget.
                    self.nodes = max_nodes
                    raise _StopSearch
                self.nodes += dead
                self._node_tick += dead
                if self._node_tick >= _DEADLINE_CHECK_INTERVAL:
                    self._check_deadline()
        else:
            for c in range(lb, ub + 1):
                # Inlined node accounting (the former _note_node).
                self.nodes += 1
                if self.nodes >= max_nodes:
                    raise _StopSearch
                self._node_tick += 1
                if self._node_tick >= _DEADLINE_CHECK_INTERVAL:
                    self._check_deadline()
                counts[position] = c
                free_arr[position] = free - c
                load_cpu[position] = base_cpu + c * u_cpu
                load_io[position] = base_io + c * u_io
                last_in_group[group] = c
                self._place_worker(
                    layer_idx, layer, next_position, remaining - c,
                    counts, groups, last_in_group,
                )
        # Restore once after the loop: every iteration overwrites these
        # slots before recursing, so per-iteration undo is wasted work.
        # (On a _StopSearch unwind the state is abandoned, matching the
        # previous implementation's semantics.)
        counts[position] = 0
        free_arr[position] = free
        load_cpu[position] = base_cpu
        load_io[position] = base_io
        if prev_last is not None:
            last_in_group[group] = prev_last
        else:
            del last_in_group[group]

    # ------------------------------------------------------------------
    def _refined_groups(self, snapshot: List[int]) -> List[int]:
        """Split each equivalence group by the counts just assigned."""
        old_groups = self.groups
        group_ids: Dict[Tuple[int, int], int] = {}
        new_groups: List[int] = []
        for w in range(self.n_workers):
            key = (old_groups[w], snapshot[w])
            gid = group_ids.get(key)
            if gid is None:
                gid = len(group_ids)
                group_ids[key] = gid
            new_groups.append(gid)
        return new_groups

    def _on_layer_complete(
        self, layer_idx: int, layer: _Layer, counts: List[int]
    ) -> None:
        # ``counts`` is stable for the lifetime of this frame (deeper
        # layers allocate their own arrays; the caller only mutates it
        # after we return), so it is stored by reference — no snapshot
        # copy. Only the seed collector, which outlives the frame, copies.
        if layer_idx + 1 == len(self.search._layers) and (
            layer_idx != 0 or self.seed_collector is None
        ):
            self._complete_last_layer(layer_idx, layer, counts)
            return
        self.counts[layer_idx] = counts
        net_deltas = self._resolve_net(layer_idx, layer, counts)
        limit_net = self.search._limit_net
        load_net = self.load_net
        violated = False
        for w, _ in net_deltas:
            if load_net[w] > limit_net:
                violated = True
                break
        if violated:
            self.pruned_net += 1
            self.layer_net_prunes[layer_idx] += 1
        elif layer_idx == 0 and self.seed_collector is not None:
            # Seed-enumeration mode: record, don't descend. Layer-0
            # node/prune/completion counters accumulate exactly as in a
            # full run (run_seed skips them, so the parallel merge
            # counts each seed's completion exactly once).
            self.layer_completions[0] += 1
            self.seed_collector.append(list(counts))
            self.layer0_index += 1
        else:
            if layer_idx == 0:
                self._seed_index = self.layer0_index
                self.layer0_index += 1
            self.layer_completions[layer_idx] += 1
            old_groups = self.groups
            self.groups = self._refined_groups(counts)
            try:
                self.descend_layer(layer_idx + 1)
            finally:
                self.groups = old_groups
        for w, previous in reversed(net_deltas):
            load_net[w] = previous
        self.counts[layer_idx] = None

    def _complete_last_layer(
        self, layer_idx: int, layer: _Layer, counts: List[int]
    ) -> None:
        """Fused completion of the final layer (the hottest event).

        Equivalent to :meth:`_on_layer_complete` minus everything the
        plan level never reads: no group refinement, no snapshot copy,
        and net resolution records its (worker, previous value) undo log
        in preallocated scratch arrays instead of building a list per
        completion. Float operations are applied in exactly the same
        order as :meth:`_resolve_net` so loads stay bit-identical.
        """
        self.counts[layer_idx] = counts
        load_net = self.load_net
        undo_w = self._undo_w
        undo_delta = self._undo_delta
        k = 0
        layers = self.search._layers
        counts_arr = self.counts
        for other_idx, direction, forward in layer.resolutions:
            other = layers[other_idx]
            other_counts = counts_arr[other_idx]
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
            u_net = emitter.u_net
            d_total = emitter.d_total
            for w in range(len(counts)):
                c_e = emitter_counts[w]
                if c_e == 0:
                    continue
                if forward:
                    cross_links = c_e - receiver_counts[w]
                    load = u_net * cross_links / d_total if cross_links > 0 else 0.0
                else:
                    cross_links = p_receiver - receiver_counts[w]
                    load = u_net * c_e * cross_links / d_total
                if load > 0.0:
                    undo_w[k] = w
                    undo_delta[k] = load_net[w]
                    load_net[w] += load
                    k += 1
        limit_net = self.search._limit_net
        violated = False
        for i in range(k):
            if load_net[undo_w[i]] > limit_net:
                violated = True
                break
        if violated:
            self.pruned_net += 1
            self.layer_net_prunes[layer_idx] += 1
        else:
            if layer_idx == 0:
                self._seed_index = self.layer0_index
                self.layer0_index += 1
            self.layer_completions[layer_idx] += 1
            self._on_complete_plan()
        for i in range(k - 1, -1, -1):
            load_net[undo_w[i]] = undo_delta[i]
        self.counts[layer_idx] = None

    # ------------------------------------------------------------------
    def run_seed(self, seed_index: int, seed_counts: Sequence[int]) -> None:
        """Explore the subtree under one pre-enumerated layer-0 assignment.

        Used by the partitioned search: applies the (net-feasible, already
        accounted) first-layer assignment without re-counting its nodes,
        descends from layer 1, and restores the state so consecutive
        seeds can run on the same instance. ``seed_index`` is the seed's
        global first-layer enumeration index, recorded as
        :attr:`first_seed` if this subtree yields the first satisfying
        plan.
        """
        search = self.search
        if not search._layers:
            raise ValueError("run_seed requires at least one layer")
        layer = search._layers[0]
        free_arr = self.free
        load_cpu = self.load_cpu
        load_io = self.load_io
        for w, c in enumerate(seed_counts):
            if c:
                free_arr[w] -= c
                load_cpu[w] += c * layer.u_cpu
                load_io[w] += c * layer.u_io
        self._seed_index = seed_index
        snapshot = list(seed_counts)
        self.counts[0] = snapshot
        net_deltas = self._resolve_net(0, layer, snapshot)
        old_groups = self.groups
        self.groups = self._refined_groups(snapshot)
        try:
            self.descend_layer(1)
        finally:
            self.groups = old_groups
        for w, previous in reversed(net_deltas):
            self.load_net[w] = previous
        self.counts[0] = None
        for w, c in enumerate(seed_counts):
            if c:
                free_arr[w] += c
                load_cpu[w] -= c * layer.u_cpu
                load_io[w] -= c * layer.u_io

    def _resolve_net(
        self, layer_idx: int, layer: _Layer, counts: List[int]
    ) -> List[Tuple[int, float]]:
        """Add the network load of edges whose second endpoint just placed.

        Returns a (worker, previous value) undo log; callers restore in
        reverse order by assignment so the restored loads are bit-exact
        (undo-by-subtraction would leave last-bit float noise behind and
        make later costs depend on exploration history).
        """
        undo: List[Tuple[int, float]] = []
        layers = self.search._layers
        load_net = self.load_net
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
            u_net = emitter.u_net
            d_total = emitter.d_total
            for w in range(len(counts)):
                c_e = emitter_counts[w]
                if c_e == 0:
                    continue
                # NB: keep the multiply-then-divide order — the same
                # expression as search_reference, so per-edge loads match
                # the pre-optimisation code bit for bit.
                if forward:
                    cross_links = c_e - receiver_counts[w]
                    load = u_net * cross_links / d_total if cross_links > 0 else 0.0
                else:
                    cross_links = p_receiver - receiver_counts[w]
                    load = u_net * c_e * cross_links / d_total
                if load > 0.0:
                    undo.append((w, load_net[w]))
                    load_net[w] += load
        return undo

    # ------------------------------------------------------------------
    def _on_complete_plan(self) -> None:
        self.plans_found += 1
        if self._need_cost:
            cost = self.search.cost_model.cost_from_loads(
                {
                    "cpu": max(self.load_cpu),
                    "io": max(self.load_io),
                    "net": max(self.load_net),
                }
            )
            if self.limits.first_satisfying and self.first_plan is None:
                self.first_plan = (self._build_plan(), cost)
                self.first_seed = self._seed_index
                raise _StopSearch
            if self.search.collect_all:
                self.all_plans.append((cost, self._build_plan()))
            if self.search.collect_pareto and self.front.would_accept(cost):
                self.front.insert(cost, self._build_plan())
        if (
            self.limits.max_plans is not None
            and self.plans_found >= self.limits.max_plans
        ):
            raise _StopSearch

    def _build_plan(self) -> PlacementPlan:
        assignment: Dict[str, int] = {}
        workers = self.search._worker_ids
        for layer_idx, layer in enumerate(self.search._layers):
            counts = self.counts[layer_idx]
            assert counts is not None
            cursor = 0
            for position, count in enumerate(counts):
                for _ in range(count):
                    assignment[layer.task_uids[cursor]] = workers[position]
                    cursor += 1
        return PlacementPlan(assignment)
