"""Worker NIC model.

Only *outbound cross-worker* traffic consumes a worker's NIC bandwidth,
matching the paper's network-load definition (Eq. 8): intra-worker
channels are memory copies. Oversubscription is resolved with the same
convex proportional-sharing primitive as the other resources.

The paper's network-contention experiment (Figure 3c) caps worker
bandwidth at 1 Gbps; :meth:`NicModel.capped` produces that configuration.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.contention import proportional_scale


class NicModel:
    """Per-worker outbound network contention model."""

    def __init__(self, capacity: np.ndarray) -> None:
        self.capacity = np.asarray(capacity, dtype=float)
        if np.any(self.capacity <= 0):
            raise ValueError("NIC capacities must be positive")

    @classmethod
    def capped(cls, worker_count: int, bandwidth_bytes_per_s: float) -> "NicModel":
        """A homogeneous NIC model with every worker capped at one rate."""
        return cls(np.full(worker_count, float(bandwidth_bytes_per_s)))

    def scale(self, outbound_demand: np.ndarray) -> np.ndarray:
        """Per-worker grant fractions for outbound traffic (bytes/s).

        NIC sharing is work-conserving: the link serialises frames, so
        no concurrency penalty applies — only bandwidth division.
        """
        return proportional_scale(outbound_demand, self.capacity)
