"""Unit tests for the contention primitives."""

import numpy as np
import pytest

from repro.simulator.contention import (
    ContentionConfig,
    effective_throughput,
    proportional_scale,
    share_resources,
    thread_cap,
    thread_oversubscription_penalty,
)
from repro.simulator.network import NicModel
from repro.simulator.state_backend import DiskModel


class TestProportionalScale:
    def test_under_capacity_grants_everything(self):
        scale = proportional_scale(np.array([5.0, 0.0]), np.array([10.0, 10.0]))
        assert scale[0] == 1.0
        assert scale[1] == 1.0

    def test_over_capacity_is_work_conserving(self):
        demand = np.array([20.0])
        scale = proportional_scale(demand, np.array([10.0]))
        assert demand[0] * scale[0] == pytest.approx(10.0)

    def test_scale_independent_of_backlog_magnitude(self):
        """A key stability property: completed work saturates at
        capacity no matter how large the demand grows."""
        for demand in (15.0, 150.0, 1.5e6):
            assert effective_throughput(demand, 10.0) == pytest.approx(10.0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            proportional_scale(np.array([1.0]), np.array([0.0]))


class TestThreadPenalty:
    def test_no_penalty_when_threads_fit(self):
        penalty = thread_oversubscription_penalty(
            np.array([2.0, 4.0]), np.array([4.0, 4.0]), coeff=0.5
        )
        assert penalty[0] == 1.0
        assert penalty[1] == 1.0

    def test_penalty_grows_with_oversubscription(self):
        p1 = thread_oversubscription_penalty(np.array([6.0]), np.array([4.0]), 0.5)
        p2 = thread_oversubscription_penalty(np.array([8.0]), np.array([4.0]), 0.5)
        assert 1.0 < p1[0] < p2[0]

    def test_penalty_formula(self):
        p = thread_oversubscription_penalty(np.array([6.0]), np.array([4.0]), 0.4)
        # 1 + 0.4 * (6-4)/4
        assert p[0] == pytest.approx(1.2)

    def test_penalised_throughput_below_capacity(self):
        assert effective_throughput(100.0, 10.0, penalty=1.25) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            effective_throughput(10.0, 10.0, penalty=0.9)

    def test_rejects_nonpositive_cores(self):
        with pytest.raises(ValueError):
            thread_oversubscription_penalty(np.array([1.0]), np.array([0.0]), 0.5)


class TestShareResources:
    """One tick of sharing: two tasks on worker 0, worker 1 idle."""

    def _grants(self, want, cpu, io, io_extra=None, net=(0.0, 0.0)):
        worker = np.array([0, 0])
        cpu, io = np.array(cpu), np.array(io)
        return share_resources(
            np.array(want), cpu, io, np.array(net), worker,
            (cpu > 0, io > 0, np.array([True, False])),
            np.array([1.0, 1.0]),
            DiskModel(np.array([100.0, 100.0]), ContentionConfig()),
            NicModel(np.array([50.0, 50.0])),
            ContentionConfig(), 1.0, io_extra=io_extra,
        )

    def test_thread_cap_is_one_thread_per_tick(self):
        cap = thread_cap(np.array([0.5, 0.0]), 2.0)
        assert cap.tolist() == [4.0, np.inf]

    def test_uncontended_tick_grants_everything(self):
        grants = self._grants([1.0, 1.0], [0.2, 0.3], [10.0, 20.0])
        assert grants.scale.tolist() == [1.0, 1.0]
        assert grants.cpu_demand.tolist() == [0.2, 0.3]
        assert grants.io_demand.tolist() == [10.0, 20.0]

    def test_task_takes_the_worst_grant_it_uses(self):
        # 1.6 cores of demand from two active threads on one core: the
        # penalty 1 + 0.35 * (2 - 1) / 1 shrinks the core to 1 / 1.35.
        # The NIC carries 200 of 50 bytes/s; only task 0 uses it.
        grants = self._grants([2.0, 2.0], [0.5, 0.3], [0.0, 0.0], net=(200.0, 0.0))
        assert grants.cpu_effective[0] == pytest.approx(1.0 / 1.35)
        assert grants.cpu_scale[0] == pytest.approx((1.0 / 1.35) / 1.6)
        assert grants.net_scale[0] == 0.25
        assert grants.scale.tolist() == [0.25, grants.cpu_scale[0]]

    def test_checkpoint_upload_shares_the_disk_but_is_no_heavy_writer(self):
        # Task 0 writes 30 bytes/s; the upload adds 90. One heavy writer,
        # so the disk keeps its full 100 bytes/s for 120 of demand.
        grants = self._grants(
            [30.0, 0.0], [0.0, 0.0], [1.0, 0.0], io_extra=np.array([90.0, 0.0])
        )
        assert grants.disk_effective.tolist() == [100.0, 100.0]
        assert grants.io_scale[0] == pytest.approx(100.0 / 120.0)
        assert grants.io_extra.tolist() == [90.0, 0.0]


class TestConfig:
    def test_defaults_valid(self):
        ContentionConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentionConfig(cpu_thread_penalty=-0.1)
        with pytest.raises(ValueError):
            ContentionConfig(gamma_compaction=-0.1)
        with pytest.raises(ValueError):
            ContentionConfig(cpu_active_share=0.0)
        with pytest.raises(ValueError):
            ContentionConfig(heavy_writer_share=1.5)
