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
"""

from __future__ import annotations

from dataclasses import dataclass

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
