"""Unit tests for the disk / RocksDB state-backend contention model."""

import numpy as np
import pytest

from repro.simulator.contention import ContentionConfig, share_resources
from repro.simulator.network import NicModel
from repro.simulator.state_backend import DiskModel


def model(capacity=(1e8, 1e8), **cfg):
    return DiskModel(np.array(capacity), ContentionConfig(**cfg))


def disk_scale(disk, io_demand, worker):
    """Per-worker disk grants of a tick whose only demand is ``io_demand``.

    One record per task at one byte per unit of demand and ``dt = 1``,
    so the tasks' disk demand is ``io_demand`` exactly.
    """
    n = len(disk.capacity)
    zeros = np.zeros(len(io_demand))
    return share_resources(
        io_demand, zeros, np.ones(len(io_demand)), np.zeros(n), worker,
        (zeros > 0, io_demand > 0, zeros > 0), np.ones(n), disk,
        NicModel(np.ones(n)), disk.config, 1.0,
    ).io_scale


class TestHeavyWriters:
    def test_counts_tasks_above_share(self):
        disk = model(heavy_writer_share=0.15)
        demand = np.array([2e7, 1e6, 3e7])  # 20%, 1%, 30% of 1e8
        worker = np.array([0, 0, 1])
        heavy = disk.heavy_writer_counts(demand, worker)
        assert heavy.tolist() == [1.0, 1.0]

    def test_no_heavy_writers(self):
        disk = model()
        heavy = disk.heavy_writer_counts(np.array([1e6]), np.array([0]))
        assert heavy.tolist() == [0.0, 0.0]


class TestCompactionInterference:
    def test_single_heavy_writer_pays_nothing(self):
        disk = model(gamma_compaction=0.1)
        cap = disk.effective_capacity(np.array([1.0, 0.0]))
        assert cap.tolist() == [1e8, 1e8]

    def test_capacity_shrinks_per_extra_writer(self):
        disk = model(gamma_compaction=0.1)
        cap = disk.effective_capacity(np.array([3.0]))
        assert cap[0] == pytest.approx(1e8 / 1.2)

    def test_scale_combines_sharing_and_interference(self):
        disk = model(gamma_compaction=0.1, heavy_writer_share=0.15)
        # two heavy writers on worker 0: 6e7 + 6e7 = 1.2e8 demand,
        # effective capacity 1e8 / 1.1
        demand = np.array([6e7, 6e7])
        worker = np.array([0, 0])
        scale = disk_scale(disk, demand, worker)
        assert scale[0] == pytest.approx((1e8 / 1.1) / 1.2e8)
        assert scale[1] == 1.0  # idle worker

    def test_colocation_strictly_worse_than_spread(self):
        """The Figure 3b property: same total demand completes less
        work when co-located."""
        disk = model(gamma_compaction=0.1)
        demand = np.array([6e7, 6e7])
        colocated = disk_scale(disk, demand, np.array([0, 0]))
        spread = disk_scale(disk, demand, np.array([0, 1]))
        done_colocated = float(np.sum(demand * colocated[np.array([0, 0])]))
        done_spread = float(np.sum(demand * spread[np.array([0, 1])]))
        assert done_spread > done_colocated


class TestValidation:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            DiskModel(np.array([0.0]), ContentionConfig())
