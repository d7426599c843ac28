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
(dataclasses by field, mappings sorted, floats by ``repr``). Inputs the
encoder does not understand (e.g. a hand-written rate callable) yield
``None`` and silently bypass the cache — caching is an optimisation,
never a correctness requirement. Cached summaries are copied on both
store and fetch so callers can never mutate a shared entry.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.dataflow.cluster import Cluster
from repro.dataflow.physical import PhysicalGraph
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


def _canon_physical(physical: PhysicalGraph) -> Any:
    """The workload: tasks, their operator cost profiles, and channels.

    Each task is paired with its :class:`OperatorSpec` — two workloads
    with identical topology but different per-tuple costs or selectivity
    must not share a fingerprint.
    """
    tasks = tuple(
        sorted(
            (_canon(task), _canon(physical.spec_of(task)))
            for task in physical.tasks
        )
    )
    channels = tuple(
        sorted(_canon(channel) for channel in physical.channels)
    )
    return ("physical", tasks, channels)


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
    buckets = [
        (_canon(worker.spec), tuple(sorted(tasks_on.get(worker.worker_id, []))))
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
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _copy_summary(summary: SimulationSummary) -> SimulationSummary:
    """Fresh summary sharing only immutable JobSummary values."""
    return SimulationSummary(
        jobs=dict(summary.jobs),
        duration_s=summary.duration_s,
        warmup_s=summary.warmup_s,
    )


class PlanEvaluationCache:
    """LRU map from simulation fingerprints to summaries.

    Thread-safe: one instance — the module-level :data:`DEFAULT_CACHE`
    above all — may be shared by callers on several threads, so every
    access to the LRU order and the hit/miss counters happens under one
    internal lock (``tests/test_plan_cache.py`` runs four threads
    against one cache).
    """

    def __init__(
        self,
        capacity: int = 256,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, SimulationSummary]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._m_hits = None
        self._m_misses = None
        self._m_evictions = None
        self._g_size = None
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry: MetricRegistry) -> None:
        """Expose the cache's counters through a :class:`MetricRegistry`.

        Counts accumulated before binding are carried into the registry
        counters, so the shared :data:`DEFAULT_CACHE` can be bound after
        the fact. Bind a given cache to a given registry at most once:
        the registry counters are cumulative and a re-bind would
        double-count the carried history.
        """
        with self._lock:
            self._m_hits = registry.counter(
                "plan_cache_hits_total", help="Plan-evaluation cache hits."
            )
            self._m_misses = registry.counter(
                "plan_cache_misses_total", help="Plan-evaluation cache misses."
            )
            self._m_evictions = registry.counter(
                "plan_cache_evictions_total",
                help="Entries evicted by the LRU capacity bound.",
            )
            self._g_size = registry.gauge(
                "plan_cache_entries", help="Entries currently cached."
            )
            registry.gauge(
                "plan_cache_capacity", help="Configured LRU capacity."
            ).set(self.capacity)
            self._m_hits.inc(self.hits)
            self._m_misses.inc(self.misses)
            self._m_evictions.inc(self.evictions)
            self._g_size.set(len(self._entries))

    def stats(self) -> Dict[str, int]:
        """Counter snapshot taken atomically with the LRU state."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, fingerprint: Optional[str]) -> Optional[SimulationSummary]:
        if fingerprint is None:
            return None
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                if self._m_misses is not None:
                    self._m_misses.inc()
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            return _copy_summary(entry)

    def store(
        self, fingerprint: Optional[str], summary: SimulationSummary
    ) -> None:
        if fingerprint is None:
            return
        with self._lock:
            self._entries[fingerprint] = _copy_summary(summary)
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                if self._m_evictions is not None:
                    self._m_evictions.inc()
            if self._g_size is not None:
                self._g_size.set(len(self._entries))

    def clear(self) -> None:
        """Drop all entries and reset the instance counters.

        Bound registry counters are cumulative by contract and are not
        rewound; only the size gauge follows the cleared state.
        """
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            if self._g_size is not None:
                self._g_size.set(0)


#: Process-wide default cache, selected by passing ``cache="default"``
#: to the experiment runners.
DEFAULT_CACHE = PlanEvaluationCache()

#: Cache selector accepted by the runners: "default" for the shared
#: process-wide cache, None to disable, or an explicit cache instance.
CacheOption = Union[str, None, PlanEvaluationCache]


def resolve_cache(cache: CacheOption) -> Optional[PlanEvaluationCache]:
    if cache is None:
        return None
    if isinstance(cache, PlanEvaluationCache):
        return cache
    if cache == "default":
        return DEFAULT_CACHE
    raise ValueError(
        f"cache must be 'default', None, or a PlanEvaluationCache; got {cache!r}"
    )


def simulate_cached(
    physical: PhysicalGraph,
    cluster: Cluster,
    plan: PlacementPlan,
    rates: Mapping[Any, Any],
    duration_s: float,
    warmup_s: float,
    config: Optional[SimulationConfig] = None,
    network_cap_bytes_per_s: Optional[float] = None,
    cache: CacheOption = "default",
    tracer: Optional[Tracer] = None,
) -> SimulationSummary:
    """Run (or fetch) one simulation through the plan-evaluation cache.

    The single choke point the experiment runners call: on a cache hit
    the stored summary is returned without building an engine; on a miss
    (or for uncacheable inputs) the simulation runs normally and the
    result is stored. With a ``tracer``, each evaluation emits one
    wall-domain ``cache.evaluate`` span recording whether it hit.
    """
    resolved = resolve_cache(cache)
    tr = tracer if tracer is not None else NULL_TRACER
    with tr.wall_span("cache.evaluate", cat="cache") as span:
        fingerprint = None
        if resolved is not None:
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
            hit = resolved.lookup(fingerprint)
            if hit is not None:
                span.set(hit=True)
                return hit
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
        if resolved is not None:
            resolved.store(fingerprint, summary)
        span.set(hit=False, cacheable=fingerprint is not None)
    return summary
