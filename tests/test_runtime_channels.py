"""Unit tests for the bounded channels of the sharded runtime."""

import pytest

from repro.runtime.channels import (
    ITEM_RECORD,
    ITEM_WATERMARK,
    BoundedChannel,
    ChannelStats,
)
from repro.runtime.operators import Record


class TestCredit:
    def test_try_put_blocks_at_capacity(self):
        ch = BoundedChannel("a->b", capacity=2)
        assert ch.try_put(1, Record(0, "x"))
        assert ch.try_put(2, Record(1, "y"))
        assert not ch.try_put(3, Record(2, "z"))
        assert ch.stats.blocked_puts == 1
        assert ch.stats.enqueued == 2
        assert ch.occupancy == 2

    def test_credit_returns_on_get(self):
        ch = BoundedChannel("a->b", capacity=1)
        ch.try_put(1, Record(0, "x"))
        assert ch.capacity - ch.occupancy == 0
        ch.get()
        assert ch.capacity - ch.occupancy == 1
        assert ch.try_put(2, Record(1, "y"))
        assert ch.stats.dequeued == 1

    def test_unbounded_channel_never_blocks(self):
        ch = BoundedChannel("a->b", capacity=None)
        for i in range(100):
            assert ch.try_put(i, Record(i, i))
        assert ch.occupancy == 100
        assert ch.stats.blocked_puts == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedChannel("a->b", capacity=0)


class TestOverflow:
    def test_force_put_exceeds_capacity_and_counts(self):
        ch = BoundedChannel("a->b", capacity=1)
        ch.try_put(1, Record(0, "x"))
        ch.force_put(2, Record(1, "flush"))
        assert ch.occupancy == 2
        assert ch.stats.overflow_puts == 1
        assert ch.stats.peak_occupancy == 2

    def test_force_put_within_capacity_is_not_overflow(self):
        ch = BoundedChannel("a->b", capacity=2)
        ch.force_put(1, Record(0, "x"))
        assert ch.stats.overflow_puts == 0


class TestWatermarks:
    def test_watermarks_are_credit_free(self):
        ch = BoundedChannel("a->b", capacity=1)
        ch.try_put(1, Record(0, "x"))
        ch.put_watermark(2, 10)
        ch.put_watermark(3, 20)
        assert ch.occupancy == 1  # records only
        assert len(ch) == 3       # items include watermarks
        assert ch.stats.watermarks == 2

    def test_fifo_interleaving_preserved(self):
        ch = BoundedChannel("a->b", capacity=None)
        ch.try_put(1, Record(0, "x"))
        ch.put_watermark(2, 10)
        ch.try_put(3, Record(11, "y"))
        kinds = []
        while len(ch):
            _ticket, kind, _payload = ch.get()
            kinds.append(kind)
        assert kinds == [ITEM_RECORD, ITEM_WATERMARK, ITEM_RECORD]


class TestTickets:
    def test_head_ticket_and_kind(self):
        ch = BoundedChannel("a->b")
        assert not ch.items
        ch.put_watermark(7, 10)
        ticket, kind, _payload = ch.items[0]
        assert (ticket, kind) == (7, ITEM_WATERMARK)
        ch.get()
        assert not ch.items

    def test_get_returns_ticket_kind_payload(self):
        ch = BoundedChannel("a->b")
        record = Record(5, "x")
        ch.try_put(42, record)
        assert ch.get() == (42, ITEM_RECORD, record)


class TestStats:
    def test_fresh_stats_are_zero(self):
        stats = ChannelStats()
        assert (
            stats.enqueued,
            stats.dequeued,
            stats.watermarks,
            stats.blocked_puts,
            stats.overflow_puts,
            stats.peak_occupancy,
        ) == (0, 0, 0, 0, 0, 0)
