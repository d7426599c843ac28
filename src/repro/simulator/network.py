"""Worker NIC model.

Only *outbound cross-worker* traffic consumes a worker's NIC bandwidth,
matching the paper's network-load definition (Eq. 8): intra-worker
channels are memory copies. :class:`NicModel` holds the per-worker
outbound capacities; the grant itself is computed by
:func:`repro.simulator.contention.share_resources`, which shares the
NIC work-conservingly (the link serialises frames, so no concurrency
penalty applies, only bandwidth division).

The paper's network-contention experiment (Figure 3c) caps worker
bandwidth at 1 Gbps; ``FluidSimulation(network_cap_bytes_per_s=...)``
builds its NIC model with every worker at that cap.
"""

from __future__ import annotations

import numpy as np


class NicModel:
    """Per-worker outbound network capacities, in bytes/s."""

    def __init__(self, capacity: np.ndarray) -> None:
        self.capacity = np.asarray(capacity, dtype=float)
        if np.any(self.capacity <= 0):
            raise ValueError("NIC capacities must be positive")
