"""Cluster health bookkeeping for degraded-mode control.

This module is the one place that decides what a fault does to a
worker. The controller keeps one :class:`ClusterHealth` per adaptive
run, and :class:`~repro.faults.injector.EngineFaultDriver` one per
standalone engine; both feed every fault event into it. The health
object then answers the two questions degraded-mode control needs:

1. **What can the engine run on?** :meth:`engine_cluster` — the
   surviving workers with their *original* capacities (dead workers and
   zero-slot workers removed, lost slots subtracted). Capacity
   degradations are applied to the running engine separately (via
   :meth:`factor_arrays`), never baked into the engine's cluster, so a
   later ``recover`` can restore the full capacity without rebuilding
   the baseline.
2. **What should placement see?** :meth:`placement_cluster` — the same
   surviving workers but with degraded capacities folded into the
   specs, so the CAPS cost model naturally steers load away from
   stragglers and failed workers are blacklisted from the search space
   simply by not existing.

Degradation factors are monotone: repeated degrade events keep the
worst (smallest) remaining fraction per dimension, and only an explicit
``recover`` resets a worker to pristine. This keeps replay order-robust
for same-time events and matches the "capacity never silently improves"
intuition of real incidents.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.dataflow.cluster import Cluster, Worker
from repro.faults.schedule import DEGRADE_KINDS, FaultEvent

#: Degrade kind -> the WorkerSpec field it scales.
_DIM_FIELDS = {
    "cpu": "cpu_capacity",
    "disk": "disk_bandwidth",
    "net": "network_bandwidth",
}


class ClusterHealth:
    """Mutable per-worker health state over one base cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.base = cluster
        self._alive: Dict[int, bool] = {w.worker_id: True for w in cluster.workers}
        self._slots_lost: Dict[int, int] = {w.worker_id: 0 for w in cluster.workers}
        self._factors: Dict[int, Dict[str, float]] = {
            w.worker_id: {dim: 1.0 for dim in DEGRADE_KINDS}
            for w in cluster.workers
        }

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def check(self, events: Iterable[FaultEvent]) -> None:
        """Raise a KeyError naming the first event aimed outside the cluster."""
        for event in events:
            if event.worker_id not in self._alive:
                raise KeyError(
                    f"chaos token {event.spec()!r} names a worker not in the "
                    f"cluster (ids: {sorted(self._alive)})"
                )

    def apply(self, event: FaultEvent) -> None:
        """Fold one fault event into the health state."""
        self.check((event,))
        wid = event.worker_id
        if event.kind == "crash":
            self._alive[wid] = False
        elif event.kind == "recover":
            self._alive[wid] = True
            self._slots_lost[wid] = 0
            self._factors[wid] = {dim: 1.0 for dim in DEGRADE_KINDS}
        elif event.kind == "slots":
            self._slots_lost[wid] += int(event.magnitude)
        else:  # degrade: keep the worst remaining fraction per dimension
            current = self._factors[wid][event.kind]
            self._factors[wid][event.kind] = min(current, event.magnitude)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def failed_workers(self) -> Tuple[int, ...]:
        return tuple(
            sorted(wid for wid, alive in self._alive.items() if not alive)
        )

    def slots_of(self, worker_id: int) -> int:
        """Usable slots of one worker (0 when dead or fully slot-lost)."""
        if not self._alive[worker_id]:
            return 0
        base = self.base.worker(worker_id).slots
        return max(0, base - self._slots_lost[worker_id])

    def total_slots(self) -> int:
        return sum(self.slots_of(w.worker_id) for w in self.base.workers)

    def factor_of(self, worker_id: int, dim: str) -> float:
        return self._factors[worker_id][dim]

    def degraded(self) -> bool:
        """Whether any live worker carries a capacity degradation."""
        return any(
            factor < 1.0
            for wid, factors in self._factors.items()
            if self._alive[wid]
            for factor in factors.values()
        )

    def pristine(self) -> bool:
        """Whether the cluster is back to (or still at) full health."""
        return (
            all(self._alive.values())
            and all(lost == 0 for lost in self._slots_lost.values())
            and not self.degraded()
        )

    # ------------------------------------------------------------------
    # Cluster views
    # ------------------------------------------------------------------
    def _survivors(self) -> List[Worker]:
        survivors = []
        for worker in self.base.workers:
            slots = self.slots_of(worker.worker_id)
            if slots > 0:
                survivors.append(
                    Worker(worker.worker_id, worker.spec.with_slots(slots))
                )
        if not survivors:
            raise RuntimeError(
                "no usable workers survive the injected faults; the "
                "deployment cannot be replanned"
            )
        return survivors

    def engine_cluster(self) -> Cluster:
        """Surviving workers at original capacities (engine baseline)."""
        return Cluster(self._survivors(), self.base.link_latency_s)

    def placement_cluster(self) -> Cluster:
        """Surviving workers with degradations folded into the specs.

        This is what the placement search sees: a straggler's reduced
        disk/NIC/CPU capacity raises its cost contributions, so CAPS
        avoids piling contention onto it, while ``flink_evenly`` (which
        only counts slots) stays blind — exactly the gap
        ``benchmarks/bench_fault_recovery.py`` measures.
        """
        workers = []
        for worker in self._survivors():
            factors = self._factors[worker.worker_id]
            spec = worker.spec
            changes = {
                _DIM_FIELDS[dim]: getattr(spec, _DIM_FIELDS[dim]) * factor
                for dim, factor in factors.items()
                if factor < 1.0
            }
            if changes:
                spec = replace(spec, **changes)
            workers.append(Worker(worker.worker_id, spec))
        return Cluster(workers, self.base.link_latency_s)

    def factor_arrays(
        self, cluster: Cluster
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(cpu, disk, net, alive) arrays in ``cluster``'s worker order.

        Shaped for :meth:`FluidSimulation.apply_worker_factors`; workers
        of ``cluster`` unknown to this health object default to healthy.
        """
        cpu, disk, net, alive = [], [], [], []
        for worker in cluster.workers:
            factors = self._factors.get(
                worker.worker_id, {dim: 1.0 for dim in DEGRADE_KINDS}
            )
            cpu.append(factors["cpu"])
            disk.append(factors["disk"])
            net.append(factors["net"])
            alive.append(self._alive.get(worker.worker_id, True))
        return (
            np.asarray(cpu, dtype=float),
            np.asarray(disk, dtype=float),
            np.asarray(net, dtype=float),
            np.asarray(alive, dtype=bool),
        )
