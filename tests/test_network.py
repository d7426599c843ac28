"""Unit tests for the NIC model."""

import numpy as np
import pytest

from repro.simulator.network import NicModel


class TestNicModel:
    def test_capped_builder(self):
        nic = NicModel.capped(3, 1.25e8)
        assert nic.capacity.tolist() == [1.25e8] * 3

    def test_under_capacity_unthrottled(self):
        nic = NicModel.capped(2, 1e8)
        scale = nic.scale(np.array([5e7, 0.0]))
        assert scale.tolist() == [1.0, 1.0]

    def test_oversubscription_is_work_conserving(self):
        nic = NicModel.capped(1, 1e8)
        scale = nic.scale(np.array([4e8]))
        assert 4e8 * scale[0] == pytest.approx(1e8)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            NicModel(np.array([0.0]))
