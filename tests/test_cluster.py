"""Unit tests for the slot-based cluster resource model."""

import pytest

from repro.dataflow.cluster import (
    C5D_4XLARGE,
    Cluster,
    GBIT,
    M5D_2XLARGE,
    R5D_XLARGE,
    Worker,
    WorkerSpec,
)


class TestWorkerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerSpec(cpu_capacity=0, disk_bandwidth=1, network_bandwidth=1, slots=1)
        with pytest.raises(ValueError):
            WorkerSpec(cpu_capacity=1, disk_bandwidth=0, network_bandwidth=1, slots=1)
        with pytest.raises(ValueError):
            WorkerSpec(cpu_capacity=1, disk_bandwidth=1, network_bandwidth=0, slots=1)
        with pytest.raises(ValueError):
            WorkerSpec(cpu_capacity=1, disk_bandwidth=1, network_bandwidth=1, slots=0)

    def test_with_slots(self):
        spec = R5D_XLARGE.with_slots(8)
        assert spec.slots == 8
        assert spec.cpu_capacity == R5D_XLARGE.cpu_capacity
        assert R5D_XLARGE.slots == 4  # original untouched

    def test_with_network_bandwidth(self):
        capped = M5D_2XLARGE.with_network_bandwidth(1 * GBIT)
        assert capped.network_bandwidth == pytest.approx(1.25e8)
        assert capped.slots == M5D_2XLARGE.slots

    def test_presets_match_paper_instances(self):
        # m5d.2xlarge: 4 cores, c5d.4xlarge: 8 cores, r5d.xlarge: 2 cores.
        assert M5D_2XLARGE.cpu_capacity == 4.0
        assert C5D_4XLARGE.cpu_capacity == 8.0
        assert R5D_XLARGE.cpu_capacity == 2.0
        for spec in (M5D_2XLARGE, C5D_4XLARGE, R5D_XLARGE):
            assert spec.network_bandwidth == pytest.approx(10 * GBIT)


class TestCluster:
    def test_homogeneous_builder(self):
        cluster = Cluster.homogeneous(R5D_XLARGE, count=4)
        assert len(cluster) == 4
        assert cluster.total_slots == 16
        assert cluster.is_homogeneous

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Cluster([])
        with pytest.raises(ValueError):
            Cluster.homogeneous(R5D_XLARGE, count=0)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Cluster([Worker(0, R5D_XLARGE), Worker(0, R5D_XLARGE)])

    def test_worker_lookup(self):
        cluster = Cluster.homogeneous(R5D_XLARGE, count=2)
        assert cluster.worker(1).worker_id == 1
        with pytest.raises(KeyError):
            cluster.worker(99)

    def test_workers_sorted_by_id(self):
        cluster = Cluster([Worker(2, R5D_XLARGE), Worker(0, R5D_XLARGE)])
        assert [w.worker_id for w in cluster.workers] == [0, 2]

    def test_spec_groups_heterogeneous(self):
        cluster = Cluster(
            [Worker(0, R5D_XLARGE), Worker(1, M5D_2XLARGE), Worker(2, R5D_XLARGE)]
        )
        assert not cluster.is_homogeneous

    def test_can_host(self):
        cluster = Cluster.homogeneous(R5D_XLARGE, count=2)  # 8 slots
        assert cluster.can_host(8)
        assert not cluster.can_host(9)

    def test_link_latency_validation(self):
        with pytest.raises(ValueError):
            Cluster.homogeneous(R5D_XLARGE, count=1, link_latency_s=-1.0)
