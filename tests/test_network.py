"""Unit tests for the NIC model."""

import numpy as np
import pytest

from repro.simulator.network import NicModel


class TestNicModel:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            NicModel(np.array([0.0]))
