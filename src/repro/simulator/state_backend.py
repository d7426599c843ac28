"""RocksDB-like state backend / disk model.

Each worker has one local disk shared by the state backends of all
co-located stateful tasks. Two effects are modelled:

1. **Bandwidth sharing**
   (:func:`repro.simulator.contention.proportional_scale`).
2. **Compaction interference**: RocksDB's background compactions steal
   foreground bandwidth, and interference grows with the number of
   co-located *heavy writers*; the effective disk capacity shrinks by
   ``gamma_compaction`` per heavy writer beyond the first. This is the
   mechanism behind paper Figure 3b, where piling tumbling-join tasks
   onto one worker cuts throughput from ~110k to ~91k records/s.

:func:`repro.simulator.contention.share_resources` applies both once per
tick, with the checkpoint upload as extra demand.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.contention import ContentionConfig


class DiskModel:
    """Per-worker disk I/O contention model.

    Args:
        capacity: Disk bandwidth per worker, bytes/s (array of workers).
        config: Contention coefficients.
    """

    def __init__(self, capacity: np.ndarray, config: ContentionConfig) -> None:
        self.capacity = np.asarray(capacity, dtype=float)
        if np.any(self.capacity <= 0):
            raise ValueError("disk capacities must be positive")
        self.config = config

    def heavy_writer_counts(
        self, task_demand: np.ndarray, task_worker: np.ndarray
    ) -> np.ndarray:
        """Number of heavy writers per worker.

        A task is a heavy writer when its I/O demand exceeds
        ``heavy_writer_share`` of its worker's disk bandwidth.
        """
        per_task_capacity = self.capacity[task_worker]
        heavy = task_demand > self.config.heavy_writer_share * per_task_capacity
        return np.bincount(
            task_worker[heavy], minlength=len(self.capacity)
        ).astype(float)

    def effective_capacity(self, heavy_writers: np.ndarray) -> np.ndarray:
        """Disk capacity after compaction interference."""
        interference = 1.0 + self.config.gamma_compaction * np.maximum(
            0.0, heavy_writers - 1.0
        )
        return self.capacity / interference
