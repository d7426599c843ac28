"""Content-addressed cache of plan evaluations.

The fluid simulator is deterministic: a placed deployment driven by a
given rate schedule under a given configuration always produces the
same :class:`SimulationSummary` (measurement noise is seeded through
``SimulationConfig.seed``, which is part of the key). Repeated-run
sweeps (the Figure 7/8 box plots, ablations, threshold sweeps) therefore
re-simulate byte-identical inputs over and over — CAPS is deterministic,
so all ten of its "seeded" runs evaluate the same plan.

This module fingerprints the *semantic* simulation input and memoises
summaries:

- the **physical plan up to worker renaming**: two plans that assign the
  same task multisets to identically-specced workers simulate
  identically, so the placement is keyed by the sorted multiset of
  ``(worker spec, sorted task uids)`` pairs rather than worker ids;
- the **cluster spec** (per-worker hardware, slot counts, link latency,
  any network cap);
- the **workload**: the physical graph's tasks, channels, and unit
  costs;
- the **rate schedule**: constant floats or the frozen
  :class:`~repro.workloads.rates.RatePattern` dataclasses;
- the **simulation window and config**: duration, warmup, and the full
  :class:`~repro.simulator.engine.SimulationConfig`.

Fingerprints are sha256 digests of a canonical recursive encoding
(dataclasses by field, mappings sorted, floats by ``repr``). The
physical graph has a compact encoding of its own: each operator's
spec once, under its ``(job_id, operator)`` key; each task as that
key's triple with its index; each channel as its two endpoint triples,
its share and whether it is reroutable; tasks and channels sorted.
Inputs the encoder does not understand (e.g. a hand-written rate
callable) yield ``None`` and silently bypass the cache — caching is an
optimisation, never a correctness requirement. Cached summaries are
copied on both store and fetch so callers can never mutate a shared
entry.

The same encoder gives the two process-wide memos their keys:

- :func:`placement_fingerprint` keys the CAPS placement memo
  (:mod:`repro.placement.caps`) by one placement problem — the physical
  graph with its task and channel order, the cluster's workers *by id*
  (a plan names worker ids, so unlike the simulation key it is not
  taken up to worker renaming), the per-task costs, and the strategy's
  parameters;
- :func:`profile_fingerprint` keys the profile memo
  (:mod:`repro.controller.profiler`) by one profiling deployment — the
  parallelism-1 profiling graph with its task and channel order, the
  worker spec, the profiling rate, duration and warmup, and the whole
  :class:`~repro.simulator.engine.SimulationConfig`.

The cache and both memos are the three instances of one LRU type,
:class:`Memo`, each bounded by :data:`MEMO_CAPACITY`. They are
single-threaded: nothing in the package starts a thread, so none takes
a lock.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.dataflow.cluster import Cluster, WorkerSpec
from repro.dataflow.physical import Channel, PhysicalGraph, Task
from repro.core.cost_model import CostVector, TaskCosts
from repro.core.plan import PlacementPlan
from repro.observability import NULL_TRACER, MetricRegistry, Tracer
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.simulator.results import SimulationSummary


class _Uncacheable(Exception):
    """Raised when an input has no canonical encoding."""


def _canon(obj: Any) -> Any:
    """Canonical, hashable, deterministic encoding of a value.

    The encoding is injective for the types it accepts (each branch tags
    its payload), so distinct inputs cannot collide before hashing.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; avoids 0.1+0.2 style aliasing.
        return ("f", repr(obj))
    if isinstance(obj, enum.Enum):
        return ("e", type(obj).__name__, obj.name)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            "d",
            type(obj).__name__,
            tuple(
                (f.name, _canon(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, Mapping):
        return ("m", tuple(sorted((_canon(k), _canon(v)) for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return ("l", tuple(_canon(item) for item in obj))
    if isinstance(obj, (set, frozenset)):
        return ("s", tuple(sorted(_canon(item) for item in obj)))
    raise _Uncacheable(f"no canonical encoding for {type(obj).__name__}")


def _digest(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _canon_task(task: Task) -> Tuple[str, str, int]:
    """A task as its ``(job_id, operator, index)`` triple.

    Not as its uid: ``"a/b" + "c"`` and ``"a" + "b/c"`` give one uid.
    """
    return (task.job_id, task.operator, task.index)


def _canon_channel(channel: Channel) -> Any:
    """A channel as its endpoint triples, its share and its reroutability."""
    return (
        _canon_task(channel.src),
        _canon_task(channel.dst),
        _canon(channel.share),
        channel.reroutable,
    )


def _canon_physical(physical: PhysicalGraph) -> Any:
    """The workload: operator cost profiles, tasks and channels.

    Each operator's :class:`OperatorSpec` is encoded once, under its
    ``(job_id, operator)`` key: two workloads with identical topology
    but different per-tuple costs or selectivity must not share a
    fingerprint. Tasks and channels are encoded compactly and sorted,
    so the encoding does not depend on their order.
    """
    specs: Dict[Tuple[str, str], Any] = {}
    for task in physical.tasks:
        key = (task.job_id, task.operator)
        if key not in specs:
            specs[key] = _canon(physical.spec_of(task))
    return (
        "physical",
        tuple(sorted(specs.items())),
        tuple(sorted(_canon_task(task) for task in physical.tasks)),
        tuple(sorted(_canon_channel(channel) for channel in physical.channels)),
    )


def _canon_order(physical: PhysicalGraph) -> Any:
    """The task and channel order, which :func:`_canon_physical` sorts away.

    Task uids are unique within a graph, so next to the sorted encoding
    they fix the order exactly.
    """
    return (
        "order",
        tuple(task.uid for task in physical.tasks),
        tuple((ch.src.uid, ch.dst.uid) for ch in physical.channels),
    )


def _canon_worker_specs(cluster: Cluster) -> Dict[WorkerSpec, Any]:
    """Each distinct worker spec of a cluster, encoded once.

    Keyed by value: equal specs describe the same hardware, and their
    capacities are positive, so ``0.0 == -0.0`` cannot merge two.
    """
    return {
        spec: _canon(spec)
        for spec in dict.fromkeys(worker.spec for worker in cluster.workers)
    }


def _canon_placement(
    cluster: Cluster, plan: PlacementPlan
) -> Any:
    """Placement up to worker renaming.

    Workers are interchangeable when their specs match, so the key is
    the sorted multiset of (spec, sorted task uids) pairs — including
    empty workers, whose specs still describe the cluster.
    """
    tasks_on: dict = {w.worker_id: [] for w in cluster.workers}
    for uid, worker_id in plan.assignment.items():
        tasks_on.setdefault(worker_id, []).append(uid)
    specs = _canon_worker_specs(cluster)
    buckets = [
        (specs[worker.spec], tuple(sorted(tasks_on.get(worker.worker_id, []))))
        for worker in cluster.workers
    ]
    return (
        "placement",
        tuple(sorted(buckets)),
        ("link_latency", _canon(cluster.link_latency_s)),
    )


def simulation_fingerprint(
    physical: PhysicalGraph,
    cluster: Cluster,
    plan: PlacementPlan,
    rates: Mapping[Any, Any],
    duration_s: float,
    warmup_s: float,
    config: Optional[SimulationConfig] = None,
    network_cap_bytes_per_s: Optional[float] = None,
) -> Optional[str]:
    """Content hash of one simulation input, or None when uncacheable."""
    # fast_forward is an execution strategy with an exact-equivalence
    # contract (the engine produces bit-identical results either way),
    # not a simulation input: normalise it out so fast-forward and
    # reference runs share cache entries.
    effective = dataclasses.replace(
        config if config is not None else SimulationConfig(), fast_forward=False
    )
    try:
        payload = (
            _canon_physical(physical),
            _canon_placement(cluster, plan),
            ("rates", _canon(rates)),
            ("window", _canon(float(duration_s)), _canon(float(warmup_s))),
            ("config", _canon(effective)),
            ("net_cap", _canon(network_cap_bytes_per_s)),
        )
    except _Uncacheable:
        return None
    return _digest(payload)


def _canon_cluster(cluster: Cluster) -> Any:
    """The cluster with its worker ids, in id order, and the link latency.

    Plans name workers by id, so this encoding is *not* taken up to
    worker renaming: swapping two workers' specs changes it.
    """
    specs = _canon_worker_specs(cluster)
    return (
        "cluster",
        tuple((worker.worker_id, specs[worker.spec]) for worker in cluster.workers),
        ("link_latency", _canon(cluster.link_latency_s)),
    )


def _canon_costs(costs: TaskCosts) -> Any:
    """Per-task utilisations and input rates of a CAPS problem.

    They are computed from the unit costs and the source rates, so
    neither the unit-cost provider nor the rates need encoding. The
    physical graph the costs belong to is keyed by its own encoding.
    """
    return (
        "costs",
        _canon(costs.u_cpu),
        _canon(costs.u_io),
        _canon(costs.u_net),
        _canon(costs.in_rates),
    )


def placement_fingerprint(
    physical: PhysicalGraph,
    cluster: Cluster,
    costs: TaskCosts,
    thresholds: Optional[Union[CostVector, Mapping[str, float]]],
    reorder: bool,
    jobs: int,
    autotune_timeout_s: Optional[float],
    autotune_probe_timeout_s: Optional[float],
    autotune_task_limit: int,
    search_timeout_s: Optional[float],
) -> Optional[str]:
    """Content hash of one CAPS placement problem, or None when uncacheable.

    Covers everything ``CapsStrategy.place`` reads: the workload (with
    the task and channel order, which fixes the search's exploration
    order and tie-breaks), the cluster by worker id, the task costs, and
    the strategy's parameters. ``jobs`` stays in the key because the
    pool reports different search stats (``partitions``).
    """
    try:
        payload = (
            _canon_physical(physical),
            _canon_order(physical),
            _canon_cluster(cluster),
            _canon_costs(costs),
            (
                "strategy",
                ("thresholds", _canon(thresholds)),
                ("reorder", _canon(reorder)),
                ("jobs", _canon(jobs)),
                ("autotune_timeout_s", _canon(autotune_timeout_s)),
                ("autotune_probe_timeout_s", _canon(autotune_probe_timeout_s)),
                ("autotune_task_limit", _canon(autotune_task_limit)),
                ("search_timeout_s", _canon(search_timeout_s)),
            ),
        )
    except _Uncacheable:
        return None
    return _digest(payload)


def profile_fingerprint(
    physical: PhysicalGraph,
    worker_spec: WorkerSpec,
    profiling_rate: float,
    duration_s: float,
    warmup_s: float,
    config: SimulationConfig,
) -> Optional[str]:
    """Content hash of one profiling deployment, or None when uncacheable.

    Covers everything ``CostProfiler.profile`` reads: the expanded
    parallelism-1 profiling graph with its task and channel order (the
    order assigns operators to workers), the worker spec, the profiling
    rate, duration and warmup, and the whole ``config``. Unlike the
    simulation key it keeps ``fast_forward``, so a comparison of the
    two engines in one process still runs both.
    """
    try:
        payload = (
            _canon_physical(physical),
            _canon_order(physical),
            ("worker_spec", _canon(worker_spec)),
            (
                "profiling",
                _canon(profiling_rate),
                _canon(duration_s),
                _canon(warmup_s),
            ),
            ("config", _canon(config)),
        )
    except _Uncacheable:
        return None
    return _digest(payload)


def _copy_summary(summary: SimulationSummary) -> SimulationSummary:
    """Fresh summary sharing only immutable JobSummary values."""
    return SimulationSummary(
        jobs=dict(summary.jobs),
        duration_s=summary.duration_s,
        warmup_s=summary.warmup_s,
    )


#: Entries each process-wide memo keeps; the least recently used goes first.
MEMO_CAPACITY = 256


class Memo:
    """Process-wide LRU memo of :data:`MEMO_CAPACITY` entries.

    The plan cache (:data:`DEFAULT_CACHE`), the placement memo and the
    profile memo are its three instances. A ``None`` key (an input with
    no canonical encoding) is skipped: it neither hits, misses nor
    stores. Values are kept as given, so each caller copies what it
    must not share. Single-threaded: nothing in the package starts a
    thread, so the LRU order and the counters are updated without a
    lock.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Optional[str]) -> Any:
        """The value stored under ``key``, now most recently used, or None."""
        if key is None:
            return None
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def store(self, key: Optional[str], value: Any) -> None:
        """Keep ``value`` under ``key``, evicting the least recently used."""
        if key is None:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > MEMO_CAPACITY:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Forget every entry and zero the counters, as a fresh process would."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


#: The process-wide plan-evaluation cache behind :func:`simulate_cached`.
DEFAULT_CACHE = Memo()


def publish_plan_cache(registry: MetricRegistry) -> None:
    """Copy :data:`DEFAULT_CACHE`'s counters into ``registry``.

    Call it once, when the metrics are written: the registry's counters
    are cumulative, so a second call would count everything twice.
    """
    registry.counter(
        "plan_cache_hits_total", help="Plan-evaluation cache hits."
    ).inc(DEFAULT_CACHE.hits)
    registry.counter(
        "plan_cache_misses_total", help="Plan-evaluation cache misses."
    ).inc(DEFAULT_CACHE.misses)
    registry.counter(
        "plan_cache_evictions_total",
        help="Entries evicted by the LRU capacity bound.",
    ).inc(DEFAULT_CACHE.evictions)
    registry.gauge(
        "plan_cache_entries", help="Entries currently cached."
    ).set(len(DEFAULT_CACHE))
    registry.gauge(
        "plan_cache_capacity", help="Configured LRU capacity."
    ).set(MEMO_CAPACITY)


def simulate_cached(
    physical: PhysicalGraph,
    cluster: Cluster,
    plan: PlacementPlan,
    rates: Mapping[Any, Any],
    duration_s: float,
    warmup_s: float,
    config: Optional[SimulationConfig] = None,
    network_cap_bytes_per_s: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> SimulationSummary:
    """Run (or fetch) one simulation through the plan-evaluation cache.

    The single choke point the experiment runners call: on a hit in
    :data:`DEFAULT_CACHE` a copy of the stored summary is returned
    without building an engine; on a miss (or for uncacheable inputs)
    the simulation runs normally and a copy of the result is stored.
    With a ``tracer``, each evaluation emits one wall-domain
    ``cache.evaluate`` span recording whether it hit.
    """
    tr = tracer if tracer is not None else NULL_TRACER
    with tr.wall_span("cache.evaluate", cat="cache") as span:
        fingerprint = simulation_fingerprint(
            physical,
            cluster,
            plan,
            rates,
            duration_s,
            warmup_s,
            config=config,
            network_cap_bytes_per_s=network_cap_bytes_per_s,
        )
        hit = DEFAULT_CACHE.lookup(fingerprint)
        if hit is not None:
            span.set(hit=True)
            return _copy_summary(hit)
        sim = FluidSimulation(
            physical,
            cluster,
            plan,
            rates,
            config=config,
            network_cap_bytes_per_s=network_cap_bytes_per_s,
            tracer=tracer,
        )
        summary = sim.run(duration_s, warmup_s=warmup_s)
        DEFAULT_CACHE.store(fingerprint, _copy_summary(summary))
        span.set(hit=False, cacheable=fingerprint is not None)
    return summary
