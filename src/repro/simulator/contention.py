"""Resource contention primitives.

The paper's empirical study (section 3.3) shows that co-locating
resource-intensive tasks degrades performance *super-linearly*: beyond
bandwidth sharing, contended resources pay overheads such as context
switching and stacked GC pauses on CPU, and RocksDB compaction
interference on disk.

We model this with two orthogonal mechanisms:

1. **Work-conserving proportional sharing**: when total demand on a
   resource exceeds its (effective) capacity, every demander receives
   the same fraction ``capacity / demand`` of its demand. Importantly
   the grant depends only on capacity, never on how much backlog the
   demanders carry — a backlogged task asks for more but the resource
   still completes the same total work, so temporary backlog cannot
   push the system into a self-reinforcing collapse.

2. **Concurrency penalties**: the *effective* capacity shrinks with the
   number of co-located intensive users — runnable threads beyond the
   core count on CPU (context switching, cache pollution, stacked GC),
   and heavy writers beyond the first on disk (RocksDB compaction
   interference). This is what makes co-location strictly worse than
   balance even at equal total demand, the effect Figure 3 measures.

:func:`share_resources` applies both to one tick of demand. The fluid
engine and the record runtime's paced budgets both call it, and the
diagnosis collector reads the :class:`Grants` it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ContentionConfig:
    """Coefficients of the concurrency penalties.

    The defaults are calibrated (see ``tests/test_calibration.py``) so
    that the co-location experiments of paper Figure 3 show penalties in
    the ranges the paper reports: roughly 20-40% throughput loss for
    fully co-located compute/I/O/network-intensive task sets.

    Attributes:
        cpu_thread_penalty: Effective CPU capacity divisor grows by this
            amount per oversubscribed *core equivalent*: with ``T``
            active threads on ``C`` cores, capacity is divided by
            ``1 + coeff * max(0, T - C) / C``.
        cpu_active_share: A task counts as an active thread when its CPU
            demand exceeds this fraction of one core.
        gamma_compaction: Effective disk capacity divisor grows by this
            amount per co-located heavy writer beyond the first
            (RocksDB compaction interference, paper section 3.3).
        heavy_writer_share: Fraction of a worker's disk bandwidth a
            task's I/O demand must exceed to count as a heavy writer.
    """

    cpu_thread_penalty: float = 0.35
    cpu_active_share: float = 0.10
    gamma_compaction: float = 0.06
    heavy_writer_share: float = 0.15

    def __post_init__(self) -> None:
        for name in ("cpu_thread_penalty", "gamma_compaction"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 < self.cpu_active_share <= 1:
            raise ValueError("cpu_active_share must be in (0, 1]")
        if not 0 < self.heavy_writer_share <= 1:
            raise ValueError("heavy_writer_share must be in (0, 1]")


def proportional_scale(demand: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Work-conserving per-worker grant fraction.

    Args:
        demand: Total demand per worker (same unit as capacity).
        capacity: Effective capacity per worker; must be positive.

    Returns:
        Array of fractions in (0, 1]: each demander on worker ``w``
        receives ``scale[w]`` of its demand, and total completed work is
        ``min(demand, capacity)``.
    """
    demand = np.asarray(demand, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    if (capacity <= 0).any():
        raise ValueError("capacities must be positive")
    scale = np.ones_like(demand)
    over = demand > capacity
    if over.any():
        scale[over] = capacity[over] / demand[over]
    return scale


def degraded_capacity(
    base: np.ndarray, factor: np.ndarray, floor_share: float = 1e-6
) -> np.ndarray:
    """Capacity after a fault-injected degradation factor.

    ``proportional_scale`` requires strictly positive capacities, so a
    crashed or fully degraded worker keeps a vanishing ``floor_share``
    of its base capacity instead of zero; the engine's alive mask
    zeroes the *demand* on dead workers, which is what actually stops
    their work.
    """
    base = np.asarray(base, dtype=float)
    factor = np.asarray(factor, dtype=float)
    if np.any(factor < 0.0) or np.any(factor > 1.0):
        raise ValueError("degradation factors must be in [0, 1]")
    if floor_share <= 0:
        raise ValueError("floor_share must be positive")
    return np.maximum(base * factor, base * floor_share)


def thread_oversubscription_penalty(
    active_threads: np.ndarray, cores: np.ndarray, coeff: float
) -> np.ndarray:
    """CPU capacity divisor for oversubscribed workers.

    ``1`` while active threads fit the cores; grows linearly with the
    oversubscription ratio beyond that.
    """
    cores = np.asarray(cores, dtype=float)
    if (cores <= 0).any():
        raise ValueError("core counts must be positive")
    excess = np.maximum(0.0, np.asarray(active_threads, dtype=float) - cores)
    return 1.0 + coeff * excess / cores


def thread_cap(service_floor: np.ndarray, dt: float) -> np.ndarray:
    """Records one thread processes in a tick at ``service_floor`` s/record.

    The divisor is at least 1e-300, so nothing divides by zero; tasks
    with no per-record cost are uncapped.
    """
    return np.where(
        service_floor > 0, dt / np.maximum(service_floor, 1e-300), np.inf
    )


class Grants(NamedTuple):
    """One tick's resource sharing, as :func:`share_resources` returns it.

    Per task: ``want``, the offer the grants were computed for; its
    ``cpu_demand`` (cores) and ``io_demand`` (bytes/s); the worker
    grants gathered per task (``cpu_scale_w``, ``io_scale_w``,
    ``net_scale_w``); and ``scale``, the worst grant among the resources
    the task uses. Per worker: ``cpu_effective`` and ``disk_effective``,
    the capacities left after the concurrency penalties; the grant
    fractions ``cpu_scale``, ``io_scale`` and ``net_scale``; and
    ``io_extra``, the disk demand beyond the tasks' (``None`` if none).
    """

    want: np.ndarray
    cpu_demand: np.ndarray
    io_demand: np.ndarray
    io_extra: Optional[np.ndarray]
    cpu_effective: np.ndarray
    disk_effective: np.ndarray
    cpu_scale: np.ndarray
    io_scale: np.ndarray
    net_scale: np.ndarray
    cpu_scale_w: np.ndarray
    io_scale_w: np.ndarray
    net_scale_w: np.ndarray
    scale: np.ndarray


def share_resources(
    want: np.ndarray,
    cpu: np.ndarray,
    io: np.ndarray,
    net_by_worker: np.ndarray,
    worker: np.ndarray,
    uses: Tuple[np.ndarray, np.ndarray, np.ndarray],
    cpu_capacity: np.ndarray,
    disk,
    nic,
    config: ContentionConfig,
    dt: float,
    io_extra: Optional[np.ndarray] = None,
) -> Grants:
    """Share every worker's CPU, disk and NIC among its tasks for one tick.

    CPU capacity is divided by the thread-oversubscription penalty, disk
    capacity by the compaction interference of its heavy writers, and
    each resource is then shared proportionally; the NIC has no penalty.

    Args:
        want: Per-task records offered this tick, already capped by
            :func:`thread_cap`.
        cpu: Per-task CPU seconds per record.
        io: Per-task disk bytes per record.
        net_by_worker: Per-worker outbound cross-worker bytes/s. Each
            caller sums it itself (the fluid engine per channel, the
            record runtime per task), and the two orders round
            differently.
        worker: Per-task worker index.
        uses: Per-task masks of the resources a task uses, as
            ``(cpu, io, net)``.
        cpu_capacity: Per-worker cores.
        disk: The workers' :class:`~repro.simulator.state_backend.DiskModel`.
        nic: The workers' :class:`~repro.simulator.network.NicModel`.
        config: Penalty coefficients.
        dt: Tick length in seconds.
        io_extra: Optional per-worker disk demand in bytes/s beyond the
            tasks' own: the checkpoint upload. It competes for bandwidth
            and is granted the worker's fraction, but as a sequential
            background write, not a compaction-triggering state backend,
            it never counts as a heavy writer.
    """
    n = len(cpu_capacity)
    cpu_demand = want * cpu / dt
    cpu_by_worker = np.bincount(worker, weights=cpu_demand, minlength=n)
    active = cpu_demand > config.cpu_active_share
    active_threads = np.bincount(worker[active], minlength=n)
    cpu_penalty = thread_oversubscription_penalty(
        active_threads, cpu_capacity, config.cpu_thread_penalty
    )
    cpu_effective = cpu_capacity / cpu_penalty
    cpu_scale = proportional_scale(cpu_by_worker, cpu_effective)

    io_demand = want * io / dt
    disk_demand = np.bincount(worker, weights=io_demand, minlength=n)
    if io_extra is not None:
        disk_demand = disk_demand + io_extra
    disk_effective = disk.effective_capacity(
        disk.heavy_writer_counts(io_demand, worker)
    )
    io_scale = proportional_scale(disk_demand, disk_effective)

    net_scale = nic.scale(net_by_worker)

    # Every grant lies in (0, 1], so the first mask needs no ``minimum``
    # against ones.
    cpu_scale_w = cpu_scale[worker]
    io_scale_w = io_scale[worker]
    net_scale_w = net_scale[worker]
    uses_cpu, uses_io, uses_net = uses
    scale = np.where(uses_cpu, cpu_scale_w, 1.0)
    scale = np.minimum(scale, np.where(uses_io, io_scale_w, 1.0))
    scale = np.minimum(scale, np.where(uses_net, net_scale_w, 1.0))
    return Grants(
        want, cpu_demand, io_demand, io_extra, cpu_effective, disk_effective,
        cpu_scale, io_scale, net_scale, cpu_scale_w, io_scale_w, net_scale_w,
        scale,
    )


def effective_throughput(
    demand: float, capacity: float, penalty: float = 1.0
) -> float:
    """Total completed work on one contended resource (scalar helper).

    ``min(demand, capacity / penalty)`` — used by tests to assert both
    work conservation and the capacity cost of concurrency penalties.
    """
    if penalty < 1.0:
        raise ValueError("penalty must be >= 1")
    effective = capacity / penalty
    scale = proportional_scale(np.asarray([demand]), np.asarray([effective]))[0]
    return float(demand * scale)
