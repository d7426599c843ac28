"""Partitioned placement search on a process pool (paper section 5.1).

"CAPS parallelizes the search by leveraging a configurable thread pool.
Each thread is initially assigned to a random partition of the search
space ... Threads cache any satisfactory plan they identify locally.
When the search space has been fully explored, threads merge their
results and return the pareto-optimal solution."

CPython threads serialise pure-Python work on the GIL, so the
partitions run on a ``multiprocessing`` pool of OS processes instead.
The worker count is the only knob: :func:`run_search` runs the
sequential :meth:`CapsSearch.run` for ``jobs == 1`` and
:class:`ProcessCapsSearch` for ``jobs > 1``.

We partition the search space by the first outer layer: the feasible
assignments of the first layer's tasks are enumerated up front by the
sequential DFS itself (in *seed collector* mode, so node and prune
counters for layer 0 accumulate exactly once) and dealt round-robin to
partitions. Each partition runs the full DFS beneath its seeds and
maintains a private pareto front; fronts are merged deterministically
at the end.

Mechanics:

- each pool worker receives the pickled :class:`CapsSearch` once,
  through the pool initializer, and runs :func:`run_seed_partition`
  on the partitions it is handed;
- partition results (stats, pareto front, plans) pickle back to the
  driver, which merges them with :func:`merge_partition_results`;
- with a single non-empty partition the driver runs it inline — no
  pool, no pickling — with identical results, and a pool whose worker
  died is rerun inline the same way.

Stats semantics (see :class:`repro.core.search.SearchStats`): for a run
that explores its whole space, merged counters equal the sequential
counters exactly — the seed enumeration accounts the first layer once
and each partition accounts its subtrees. ``max_nodes``/``max_plans``/
``timeout_s`` apply per partition.

First-satisfying mode is deterministic: seeds carry their global
first-layer enumeration index, a shared *beacon* (a
``multiprocessing.Value`` across the pool) records the lowest index
that produced a plan, and a partition abandons a seed (or its in-flight
subtree) only when the seed's index exceeds the beacon's. Because the
plan under the lowest plan-bearing seed is exactly the one the
sequential DFS would reach first, the pool returns the identical plan,
reported as ``SearchStats.first_seed``.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.observability import MetricRegistry, clock
from repro.core.cost_model import CostVector
from repro.core.pareto import ParetoFront
from repro.core.plan import PlacementPlan
from repro.core.search import (
    CapsSearch,
    SearchLimits,
    SearchResult,
    SearchStats,
    _StopSearch,
    select_result,
)

#: A first-layer seed: (global enumeration index, per-worker counts).
IndexedSeed = Tuple[int, List[int]]


def run_search(
    search: CapsSearch,
    limits: Optional[SearchLimits] = None,
    jobs: int = 1,
    registry: Optional[MetricRegistry] = None,
) -> SearchResult:
    """Run a configured search on ``jobs`` worker processes.

    The single dispatch point used by :class:`CapsStrategy`, the
    controller, and the CLI: ``jobs == 1`` runs the sequential DFS in
    this process, ``jobs > 1`` the partitioned search on a process pool.
    ``registry`` accumulates the ``search_backend_fallback_total``
    counter when a broken pool degrades the search to the inline path.
    """
    if jobs == 1:
        return search.run(limits)
    return ProcessCapsSearch(search, jobs=jobs, registry=registry).run(limits)


@dataclass
class SeedEnumeration:
    """The first-layer seeds plus the DFS counters spent finding them."""

    seeds: List[List[int]]
    stats: SearchStats


def enumerate_seeds(search: CapsSearch) -> SeedEnumeration:
    """Enumerate feasible first-layer assignments via the DFS itself.

    Runs the sequential inner search over layer 0 in collector mode:
    the returned seeds appear in exactly the order the sequential DFS
    would descend into them (which makes seed indices a deterministic
    tiebreaker), and the returned stats carry the layer-0 node/prune
    counters so the merge can account them exactly once.
    """
    state = search.make_state(SearchLimits())
    state.seed_collector = []
    try:
        state.descend_layer(0)
    except _StopSearch:  # pragma: no cover - no limits are set
        state.exhausted = False
    return SeedEnumeration(seeds=state.seed_collector, stats=state.stats())


def partition_seeds(
    seeds: Sequence[List[int]], partitions: int
) -> List[List[IndexedSeed]]:
    """Deal seeds round-robin, preserving their global indices."""
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    dealt: List[List[IndexedSeed]] = [[] for _ in range(partitions)]
    for index, seed in enumerate(seeds):
        dealt[index % partitions].append((index, list(seed)))
    return [p for p in dealt if p]


class SeedBeacon:
    """In-process record of the lowest seed index that found a plan.

    The beacon of the inline path; :class:`_ProcessBeacon` keeps the
    same record for a pool. The lock keeps it safe to share across
    threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._best: Optional[int] = None

    def report(self, seed_index: int) -> None:
        with self._lock:
            if self._best is None or seed_index < self._best:
                self._best = seed_index

    def best(self) -> Optional[int]:
        return self._best


class _ProcessBeacon:
    """Cross-process lowest-winning-seed record (SeedBeacon protocol).

    Backed by a shared ``multiprocessing.Value`` holding -1 for "no plan
    yet". Reads are lock-free hints (stale reads only delay
    cancellation, never change the deterministic merge); writes take the
    value's lock to keep the minimum consistent.
    """

    def __init__(self, value) -> None:
        self._value = value

    def report(self, seed_index: int) -> None:
        with self._value.get_lock():
            if self._value.value < 0 or seed_index < self._value.value:
                self._value.value = seed_index

    def best(self) -> Optional[int]:
        raw = self._value.value
        return None if raw < 0 else raw


class _SeedCancel:
    """stop_event adapter: cancel a state stuck above the beacon's best.

    A partition deep inside seed ``i`` should keep searching while any
    lower-indexed seed might still produce the deterministic winner, and
    abandon its subtree as soon as a strictly lower seed has one.
    """

    def __init__(self, beacon, state) -> None:
        self.beacon = beacon
        self.state = state

    def is_set(self) -> bool:
        best = self.beacon.best()
        if best is None:
            return False
        seed = self.state._seed_index
        return seed is not None and best < seed


@dataclass
class PartitionResult:
    """What one partition reports back to the driver."""

    stats: SearchStats
    front: ParetoFront
    first_plan: Optional[Tuple[PlacementPlan, CostVector]] = None
    first_seed: Optional[int] = None
    all_plans: List[Tuple[CostVector, PlacementPlan]] = field(default_factory=list)


def run_seed_partition(
    search: CapsSearch,
    limits: SearchLimits,
    indexed_seeds: Sequence[IndexedSeed],
    beacon=None,
) -> PartitionResult:
    """Run the DFS beneath one partition's seeds on a private state.

    Pool workers call it on their partitions; the driver calls it
    inline when only one partition exists or the pool broke. When
    ``beacon`` is given (first-satisfying mode) the partition skips
    seeds whose index exceeds the beacon's best and reports its own
    find.
    """
    state = search.make_state(limits)
    if beacon is not None:
        state.stop_event = _SeedCancel(beacon, state)
    try:
        for index, seed in indexed_seeds:
            if beacon is not None:
                best = beacon.best()
                if best is not None and best < index:
                    break
            state.run_seed(index, seed)
    except _StopSearch:
        state.exhausted = False
    if state.first_plan is not None and beacon is not None:
        beacon.report(state.first_seed)
    return PartitionResult(
        stats=state.stats(),
        front=state.front,
        first_plan=state.first_plan,
        first_seed=state.first_seed,
        all_plans=state.all_plans,
    )


def merge_partition_results(
    search: CapsSearch,
    enumeration: SeedEnumeration,
    results: Sequence[PartitionResult],
    duration_s: float,
) -> SearchResult:
    """Deterministically merge partition results into a SearchResult.

    The merged stats are the enumeration's layer-0 counters plus every
    partition's subtree counters; the first-satisfying winner is the
    plan with the lowest ``first_seed`` (the plan the sequential DFS
    would have found), independent of completion order.
    """
    stats = SearchStats(
        nodes=enumeration.stats.nodes,
        pruned_slots=enumeration.stats.pruned_slots,
        pruned_cpu=enumeration.stats.pruned_cpu,
        pruned_io=enumeration.stats.pruned_io,
        pruned_net=enumeration.stats.pruned_net,
        exhausted=enumeration.stats.exhausted,
        layer_completions=enumeration.stats.layer_completions,
        layer_net_prunes=enumeration.stats.layer_net_prunes,
    )
    front: ParetoFront = ParetoFront(capacity=search.pareto_capacity)
    all_plans: List[Tuple[CostVector, PlacementPlan]] = []
    first_hit: Optional[Tuple[PlacementPlan, CostVector]] = None
    first_seed: Optional[int] = None
    for result in results:
        stats.add(result.stats)
        front.merge(result.front)
        all_plans.extend(result.all_plans)
        if result.first_plan is not None and (
            first_seed is None
            or (result.first_seed is not None and result.first_seed < first_seed)
        ):
            first_hit = result.first_plan
            first_seed = result.first_seed
    stats.first_seed = first_seed
    stats.partitions = max(1, len(results))
    stats.duration_s = duration_s
    return select_result(
        stats, front, first_hit, all_plans, search.selection_weights
    )


# Per-process pool worker state, installed by _init_worker. The
# initializer runs before any task in each pool process, but executors
# may one day drive it from threads — the lock makes the install safe
# either way.
_WORKER_STATE_LOCK = threading.Lock()
_WORKER_SEARCH: Optional[CapsSearch] = None
_WORKER_BEACON: Optional[_ProcessBeacon] = None


def _init_worker(search: CapsSearch, beacon_value) -> None:
    global _WORKER_SEARCH, _WORKER_BEACON
    with _WORKER_STATE_LOCK:
        _WORKER_SEARCH = search
        _WORKER_BEACON = (
            _ProcessBeacon(beacon_value) if beacon_value is not None else None
        )


def _run_partition(
    task: Tuple[SearchLimits, List[IndexedSeed]]
) -> PartitionResult:
    limits, indexed_seeds = task
    assert _WORKER_SEARCH is not None, "pool initializer did not run"
    return run_seed_partition(
        _WORKER_SEARCH, limits, indexed_seeds, beacon=_WORKER_BEACON
    )


class ProcessCapsSearch:
    """Multiprocessing driver over a :class:`CapsSearch` configuration.

    Args:
        search: The configured search to partition.
        jobs: Number of partitions, and of worker processes.
        registry: Optional metric registry; counts pool-breakage
            fallbacks under ``search_backend_fallback_total``.
    """

    def __init__(
        self,
        search: CapsSearch,
        jobs: int,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.search = search
        self.jobs = jobs
        self.registry = registry

    def run(self, limits: Optional[SearchLimits] = None) -> SearchResult:
        limits = limits or SearchLimits()
        started = clock.monotonic()
        if not self.search.layers:
            return self.search.run(limits)
        enumeration = enumerate_seeds(self.search)
        partitions = partition_seeds(enumeration.seeds, self.jobs)
        if len(partitions) <= 1:
            results = self._run_inline(limits, partitions)
        else:
            try:
                results = self._run_pool(limits, partitions)
            except BrokenProcessPool:
                # A worker died mid-search (OOM kill, hard crash). The
                # search inputs are deterministic, so rerunning the same
                # partitions inline yields the same merged result the
                # pool would have produced — slower, never wrong.
                warnings.warn(
                    "placement search process pool broke (a worker died "
                    "abruptly); degrading to the sequential in-process "
                    "search",
                    RuntimeWarning,
                    stacklevel=2,
                )
                if self.registry is not None:
                    self.registry.counter(
                        "search_backend_fallback_total",
                        help="Process-pool searches degraded to sequential.",
                    ).inc()
                results = self._run_inline(limits, partitions)
        return merge_partition_results(
            self.search, enumeration, results, clock.elapsed_since(started)
        )

    def _run_inline(
        self,
        limits: SearchLimits,
        partitions: Sequence[List[IndexedSeed]],
    ) -> List[PartitionResult]:
        beacon = SeedBeacon() if limits.first_satisfying else None
        return [
            run_seed_partition(self.search, limits, part, beacon=beacon)
            for part in partitions
        ]

    def _run_pool(
        self,
        limits: SearchLimits,
        partitions: Sequence[List[IndexedSeed]],
    ) -> List[PartitionResult]:
        # fork, where available, avoids re-importing the world in each
        # child; elsewhere the search pickles into every worker.
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else methods[0])
        beacon_value = (
            ctx.Value("q", -1) if limits.first_satisfying else None
        )
        tasks = [(limits, part) for part in partitions]
        # concurrent.futures (unlike mp.Pool) surfaces abrupt worker
        # death as BrokenProcessPool instead of hanging, which is what
        # lets run() degrade to the inline path.
        with ProcessPoolExecutor(
            max_workers=len(partitions),
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(self.search, beacon_value),
        ) as pool:
            return list(pool.map(_run_partition, tasks, chunksize=1))
