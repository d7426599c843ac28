"""The slot-oriented cluster resource model.

Resources are exposed to the stream-processing scheduler as a set of
homogeneous workers, each with a fixed number of compute slots; a slot
holds at most one task, but co-located tasks share the worker's CPU,
memory, disk, and network bandwidth (paper section 2.1, Figure 1).

Worker presets mirror the AWS EC2 instance types of the paper's
evaluation (sections 3.1, 6.2, 6.3, 6.4). Absolute capacities are chosen
to be plausible for those instance types; the experiments only depend on
their relative magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence, Tuple

GIB = 1024 ** 3
MIB = 1024 ** 2
GBIT = 1_000_000_000 / 8  # bytes/s in one Gbit/s


@dataclass(frozen=True)
class WorkerSpec:
    """Static resource capacities of one worker.

    Attributes:
        cpu_capacity: CPU-seconds of work the worker completes per wall
            second (roughly the physical core count).
        disk_bandwidth: Sustained state-backend I/O bandwidth in bytes/s.
        network_bandwidth: Outbound NIC bandwidth in bytes/s.
        slots: Number of compute slots (one task per slot).
        memory_bytes: Memory available to task state.
        name: Preset label for reporting.
    """

    cpu_capacity: float
    disk_bandwidth: float
    network_bandwidth: float
    slots: int
    memory_bytes: float = 32 * GIB
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.cpu_capacity <= 0:
            raise ValueError("cpu_capacity must be positive")
        if self.disk_bandwidth <= 0:
            raise ValueError("disk_bandwidth must be positive")
        if self.network_bandwidth <= 0:
            raise ValueError("network_bandwidth must be positive")
        if self.slots < 1:
            raise ValueError("a worker needs at least one slot")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")

    def with_slots(self, slots: int) -> "WorkerSpec":
        """Same hardware, different slot count (the paper varies slots/worker)."""
        return replace(self, slots=slots)

    def with_network_bandwidth(self, bandwidth: float) -> "WorkerSpec":
        """Same hardware with a capped NIC (paper section 3.3 caps to 1 Gbps)."""
        return replace(self, network_bandwidth=bandwidth)


#: m5d.2xlarge: 4 cores / 8 vCPUs, 32 GB, 300 GB NVMe SSD, 10 Gbps
#: (paper section 6.2 single-query and multi-tenant experiments).
M5D_2XLARGE = WorkerSpec(
    cpu_capacity=4.0,
    disk_bandwidth=500 * MIB,
    network_bandwidth=10 * GBIT,
    slots=8,
    memory_bytes=32 * GIB,
    name="m5d.2xlarge",
)

#: c5d.4xlarge: 8 cores / 16 vCPUs, 32 GB, 400 GB NVMe SSD, 10 Gbps
#: (paper section 6.3 ODRP comparison).
C5D_4XLARGE = WorkerSpec(
    cpu_capacity=8.0,
    disk_bandwidth=600 * MIB,
    network_bandwidth=10 * GBIT,
    slots=8,
    memory_bytes=32 * GIB,
    name="c5d.4xlarge",
)

#: r5d.xlarge: 2 cores / 4 vCPUs, 32 GB, 150 GB NVMe SSD, 10 Gbps
#: (paper sections 3.1 motivation study and 6.4 auto-scaling experiments).
R5D_XLARGE = WorkerSpec(
    cpu_capacity=2.0,
    disk_bandwidth=300 * MIB,
    network_bandwidth=10 * GBIT,
    slots=4,
    memory_bytes=32 * GIB,
    name="r5d.xlarge",
)


@dataclass(frozen=True)
class Worker:
    """A concrete worker: an id plus its spec."""

    worker_id: int
    spec: WorkerSpec

    @property
    def slots(self) -> int:
        return self.spec.slots


class Cluster:
    """A fixed set of workers connected by the datacentre network.

    The CAPS formulation assumes homogeneous workers (paper section 4.1
    "Model assumptions"); heterogeneous clusters are representable but the
    search's duplicate elimination only treats *identical* workers as
    interchangeable, so heterogeneity degrades pruning, not correctness.

    Attributes:
        link_latency_s: Propagation delay between distinct workers;
            negligible in datacentres (paper section 7) but used by the
            ODRP baseline's latency objective.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        link_latency_s: float = 0.0005,
    ) -> None:
        if not workers:
            raise ValueError("a cluster needs at least one worker")
        ids = [w.worker_id for w in workers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate worker ids")
        self._workers: Tuple[Worker, ...] = tuple(
            sorted(workers, key=lambda w: w.worker_id)
        )
        if link_latency_s < 0:
            raise ValueError("link latency must be non-negative")
        self.link_latency_s = link_latency_s

    @classmethod
    def homogeneous(
        cls, spec: WorkerSpec, count: int, link_latency_s: float = 0.0005
    ) -> "Cluster":
        """Build a homogeneous cluster of ``count`` workers of one spec."""
        if count < 1:
            raise ValueError("cluster needs at least one worker")
        return cls([Worker(i, spec) for i in range(count)], link_latency_s)

    # ------------------------------------------------------------------
    @property
    def workers(self) -> Tuple[Worker, ...]:
        return self._workers

    def worker(self, worker_id: int) -> Worker:
        for w in self._workers:
            if w.worker_id == worker_id:
                return w
        raise KeyError(f"no worker with id {worker_id}")

    @property
    def total_slots(self) -> int:
        return sum(w.slots for w in self._workers)

    @property
    def is_homogeneous(self) -> bool:
        return len({w.spec for w in self._workers}) == 1

    def slots_of(self, worker_id: int) -> int:
        return self.worker(worker_id).slots

    def can_host(self, task_count: int) -> bool:
        """Whether the cluster has enough slots for ``task_count`` tasks.

        The CAPS model assumes the total number of slots is sufficient to
        deploy all tasks (paper section 4.1).
        """
        return task_count <= self.total_slots

    def __len__(self) -> int:
        return len(self._workers)

    def __iter__(self) -> Iterator[Worker]:
        return iter(self._workers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spec_names = sorted({w.spec.name for w in self._workers})
        return (
            f"Cluster(workers={len(self._workers)}, slots={self.total_slots}, "
            f"specs={spec_names})"
        )
