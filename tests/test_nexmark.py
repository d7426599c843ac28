"""Unit tests for the Nexmark event generator and reference semantics."""

from itertools import islice

import pytest

from repro.workloads.nexmark import (
    KINDS,
    Auction,
    Bid,
    NexmarkGenerator,
    Person,
    average_price_per_seller,
    empirical_selectivity,
    session_windows,
    sliding_window_hot_items,
    tumbling_window_join,
)


class TestGenerator:
    def test_deterministic(self):
        a = NexmarkGenerator(seed=42).take(200)
        b = NexmarkGenerator(seed=42).take(200)
        assert a == b

    def test_different_seeds_differ(self):
        a = NexmarkGenerator(seed=1).take(200)
        b = NexmarkGenerator(seed=2).take(200)
        assert a != b

    def test_proportions(self):
        events = NexmarkGenerator(seed=0).take(5000)
        assert empirical_selectivity(events, "person") == pytest.approx(1 / 50, abs=0.01)
        assert empirical_selectivity(events, "auction") == pytest.approx(3 / 50, abs=0.01)
        assert empirical_selectivity(events, "bid") == pytest.approx(46 / 50, abs=0.01)

    def test_timestamps_monotonic(self):
        events = NexmarkGenerator(seed=0, events_per_second=100.0).take(500)
        stamps = [record.timestamp_ms for _, record in events]
        assert stamps == sorted(stamps)

    def test_bids_reference_existing_auctions(self):
        events = NexmarkGenerator(seed=3).take(2000)
        auction_ids = {r.auction_id for k, r in events if k == "auction"}
        bid_targets = {r.auction_id for k, r in events if k == "bid"}
        # each cycle opens an auction before its first bid
        assert bid_targets <= auction_ids

    def test_validation(self):
        with pytest.raises(ValueError):
            NexmarkGenerator(events_per_second=0.0)
        with pytest.raises(ValueError):
            NexmarkGenerator(person_proportion=0)
        # NaN would fail only at the first timestamp; inf would stamp
        # every event at 0 ms
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="events_per_second"):
                NexmarkGenerator(events_per_second=rate)
        with pytest.raises(ValueError, match="count"):
            NexmarkGenerator().take(-1)

    def test_events_yield_the_take_stream(self):
        streamed = list(islice(NexmarkGenerator(seed=4).events(), 700))
        assert streamed == NexmarkGenerator(seed=4).take(700)

    def test_consecutive_calls_continue_one_stream(self):
        gen = NexmarkGenerator(seed=4)
        pieces = gen.take(1) + gen.take(123) + list(islice(gen.events(), 77))
        persons, auctions, bids = gen.take_by_kind(2000, KINDS)
        rest = gen.take(300)
        whole = NexmarkGenerator(seed=4).take(2501)
        assert pieces == whole[:201]
        assert (persons, auctions, bids) == tuple(
            [r for k, r in whole[201:2201] if k == kind] for kind in KINDS
        )
        assert rest == whole[2201:]


SETTINGS = [
    {"seed": 4},
    {"seed": 9, "events_per_second": 333.3, "person_proportion": 2,
     "auction_proportion": 5, "bid_proportion": 13},
]


class TestTakeByKind:
    @pytest.mark.parametrize("kwargs", SETTINGS)
    def test_equals_a_filter_over_take(self, kwargs):
        stream = NexmarkGenerator(**kwargs).take(6000)
        split = NexmarkGenerator(**kwargs).take_by_kind(6000, KINDS)
        assert split == tuple([r for k, r in stream if k == kind] for kind in KINDS)
        assert all(split)

    @pytest.mark.parametrize("kwargs", SETTINGS)
    @pytest.mark.parametrize(
        "asked", [("person",), ("auction",), ("bid",), ("person", "auction"), ()]
    )
    def test_kinds_not_asked_for_come_back_empty(self, kwargs, asked):
        full = NexmarkGenerator(**kwargs).take_by_kind(6000, KINDS)
        gen = NexmarkGenerator(**kwargs)
        split = gen.take_by_kind(6000, asked)
        for kind, records, expected in zip(KINDS, split, full):
            assert records == (expected if kind in asked else [])
        # what was not built was still drawn: the stream goes on the same
        after = NexmarkGenerator(**kwargs)
        after.take(6000)
        assert gen.take(500) == after.take(500)

    def test_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="'bids'"):
            NexmarkGenerator().take_by_kind(10, ("bids",))
        with pytest.raises(ValueError, match="count"):
            NexmarkGenerator().take_by_kind(-1, KINDS)


class TestSlidingWindowHotItems:
    def test_hottest_item_per_window(self):
        bids = [
            Bid(auction_id=1, bidder_id=9, price=1, timestamp_ms=0),
            Bid(auction_id=1, bidder_id=9, price=1, timestamp_ms=100),
            Bid(auction_id=2, bidder_id=9, price=1, timestamp_ms=200),
        ]
        rows = sliding_window_hot_items(bids, window_ms=1000, slide_ms=1000)
        assert rows[0][1] == 1  # auction 1 has 2 bids
        assert rows[0][2] == 2

    def test_empty_input(self):
        assert sliding_window_hot_items([]) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            sliding_window_hot_items([], window_ms=0)


class TestTumblingWindowJoin:
    def test_matches_same_window(self):
        persons = [Person(1, "ada", "Boston", "MA", timestamp_ms=100)]
        auctions = [
            Auction(10, seller_id=1, category=0, initial_bid=5,
                    expires_ms=999, timestamp_ms=200),
            Auction(11, seller_id=1, category=0, initial_bid=5,
                    expires_ms=99_999, timestamp_ms=20_000),  # later window
        ]
        rows = tumbling_window_join(persons, auctions, window_ms=10_000)
        assert rows == [(1, 10)]

    def test_no_match_for_unknown_seller(self):
        persons = [Person(1, "ada", "Boston", "MA", timestamp_ms=0)]
        auctions = [
            Auction(10, seller_id=2, category=0, initial_bid=5,
                    expires_ms=1, timestamp_ms=0)
        ]
        assert tumbling_window_join(persons, auctions) == []


class TestSessionWindows:
    def test_gap_splits_sessions(self):
        bids = [
            Bid(1, bidder_id=7, price=1, timestamp_ms=0),
            Bid(1, bidder_id=7, price=1, timestamp_ms=1000),
            Bid(1, bidder_id=7, price=1, timestamp_ms=20_000),
        ]
        sessions = session_windows(bids, gap_ms=5000)
        assert len(sessions) == 2
        assert sessions[0] == (7, 0, 1000, 2)
        assert sessions[1] == (7, 20_000, 20_000, 1)

    def test_per_bidder_sessions(self):
        bids = [
            Bid(1, bidder_id=1, price=1, timestamp_ms=0),
            Bid(1, bidder_id=2, price=1, timestamp_ms=0),
        ]
        assert len(session_windows(bids, gap_ms=100)) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            session_windows([], gap_ms=0)


class TestAveragePrice:
    def test_winning_bid_average(self):
        auctions = [
            Auction(10, seller_id=1, category=0, initial_bid=1, expires_ms=9, timestamp_ms=0),
            Auction(11, seller_id=1, category=0, initial_bid=1, expires_ms=9, timestamp_ms=0),
        ]
        bids = [
            Bid(10, bidder_id=5, price=100, timestamp_ms=1),
            Bid(10, bidder_id=6, price=300, timestamp_ms=2),
            Bid(11, bidder_id=5, price=100, timestamp_ms=3),
        ]
        result = average_price_per_seller(auctions, bids)
        assert result == {1: pytest.approx(200.0)}

    def test_auction_without_bids_ignored(self):
        auctions = [
            Auction(10, seller_id=1, category=0, initial_bid=1, expires_ms=9, timestamp_ms=0)
        ]
        assert average_price_per_seller(auctions, []) == {}


class TestEmpiricalSelectivity:
    def test_requires_events(self):
        with pytest.raises(ValueError):
            empirical_selectivity([], "bid")
