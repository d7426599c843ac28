"""Unit tests for credit-style backpressure throttling."""

import numpy as np
import pytest

from repro.simulator.backpressure import (
    ChannelSet,
    destination_grants,
    distribute_inflow,
    emitter_throttles,
    throttle_emissions,
)


class TestDestinationGrants:
    def test_full_grant_with_space(self):
        grants = destination_grants(
            inflow=np.array([10.0]),
            queue=np.array([0.0]),
            queue_cap=np.array([100.0]),
            draining=np.array([0.0]),
        )
        assert grants[0] == 1.0

    def test_partial_grant_when_tight(self):
        grants = destination_grants(
            inflow=np.array([10.0]),
            queue=np.array([95.0]),
            queue_cap=np.array([100.0]),
            draining=np.array([0.0]),
        )
        assert grants[0] == pytest.approx(0.5)

    def test_drain_credit_sustains_steady_state(self):
        """A full queue draining at rate r grants exactly r of inflow."""
        grants = destination_grants(
            inflow=np.array([10.0]),
            queue=np.array([100.0]),
            queue_cap=np.array([100.0]),
            draining=np.array([10.0]),
        )
        assert grants[0] == pytest.approx(1.0)

    def test_zero_inflow_grants_one(self):
        grants = destination_grants(
            inflow=np.array([0.0]),
            queue=np.array([100.0]),
            queue_cap=np.array([100.0]),
            draining=np.array([0.0]),
        )
        assert grants[0] == 1.0


class TestEmitterThrottles:
    def test_head_of_line_takes_minimum(self):
        grants = np.array([1.0, 1.0, 0.2])
        c_src = np.array([0, 0])
        c_dst = np.array([1, 2])
        throttle = emitter_throttles(grants, ChannelSet(c_src, c_dst, task_count=3))
        assert throttle[0] == pytest.approx(0.2)

    def test_reroutable_takes_weighted_average(self):
        grants = np.array([1.0, 1.0, 0.2])
        c_src = np.array([0, 0])
        c_dst = np.array([1, 2])
        share = np.array([0.5, 0.5])
        reroutable = np.array([True, True])
        throttle = emitter_throttles(
            grants, ChannelSet(c_src, c_dst, 3, c_share=share, c_reroutable=reroutable)
        )
        assert throttle[0] == pytest.approx(0.6)

    def test_mixed_channels_take_min_of_both_rules(self):
        grants = np.array([1.0, 0.9, 0.1])
        c_src = np.array([0, 0])
        c_dst = np.array([1, 2])
        share = np.array([0.5, 0.5])
        # channel to task2 (grant 0.1) is HOL; channel to task1 reroutable
        reroutable = np.array([False, True])
        throttle = emitter_throttles(
            grants, ChannelSet(c_src, c_dst, 3, c_share=share, c_reroutable=reroutable)
        )
        assert throttle[0] == pytest.approx(0.1)

    def test_requires_share_for_reroutable(self):
        with pytest.raises(ValueError):
            ChannelSet(
                np.array([0]),
                np.array([1]),
                2,
                c_share=None,
                c_reroutable=np.array([True]),
            )

    def test_no_channels_no_throttle(self):
        throttle = emitter_throttles(
            np.array([]),
            ChannelSet(np.array([], dtype=int), np.array([], dtype=int), 2),
        )
        assert throttle.tolist() == [1.0, 1.0]


class TestThrottleEmissions:
    def test_end_to_end_respects_capacity(self):
        # task0 emits 50 records split to tasks 1 and 2; task2 nearly full.
        out_recs = np.array([50.0, 0.0, 0.0])
        c_src = np.array([0, 0])
        c_dst = np.array([1, 2])
        c_share = np.array([0.5, 0.5])
        queue = np.array([0.0, 0.0, 95.0])
        cap = np.array([np.inf, 100.0, 100.0])
        draining = np.zeros(3)
        channels = ChannelSet(c_src, c_dst, 3, c_share)
        result = throttle_emissions(out_recs, channels, queue, cap, draining)
        emitted = out_recs * result.throttle
        inflow = distribute_inflow(emitted, channels, result)
        assert queue[2] + inflow[2] <= cap[2] + 1e-9

    def test_rebalance_reroutes_around_congested_consumer(self):
        """A congested REBALANCE consumer receives only what it can
        drain; the surplus flows to its peers instead of throttling the
        emitter to the slowest consumer."""
        out_recs = np.array([100.0, 0.0, 0.0])
        c_src = np.array([0, 0])
        c_dst = np.array([1, 2])
        c_share = np.array([0.5, 0.5])
        queue = np.array([0.0, 0.0, 100.0])  # task2 full
        cap = np.array([np.inf, 1000.0, 100.0])
        draining = np.array([0.0, 0.0, 10.0])  # task2 drains 10/tick
        reroutable = np.array([True, True])
        channels = ChannelSet(c_src, c_dst, 3, c_share, c_reroutable=reroutable)
        result = throttle_emissions(out_recs, channels, queue, cap, draining)
        emitted = out_recs * result.throttle
        inflow = distribute_inflow(emitted, channels, result)
        # the congested consumer gets only its drain capacity
        assert inflow[2] <= draining[2] + 1e-9
        # the healthy consumer absorbs the rest; per-edge conservation
        assert inflow[1] + inflow[2] == pytest.approx(emitted[0])
        # the emitter keeps most of its rate (no head-of-line collapse)
        assert result.throttle[0] > 0.5

    def test_hash_inflow_follows_static_shares(self):
        out_recs = np.array([40.0, 0.0, 0.0])
        c_src = np.array([0, 0])
        c_dst = np.array([1, 2])
        c_share = np.array([0.25, 0.75])
        queue = np.zeros(3)
        cap = np.array([np.inf, 1000.0, 1000.0])
        channels = ChannelSet(c_src, c_dst, 3, c_share)
        result = throttle_emissions(out_recs, channels, queue, cap, np.zeros(3))
        inflow = distribute_inflow(out_recs * result.throttle, channels, result)
        assert inflow[1] == pytest.approx(10.0)
        assert inflow[2] == pytest.approx(30.0)
