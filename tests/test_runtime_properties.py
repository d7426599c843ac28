"""Property-based tests for the record-level runtime.

Random bid streams are generated and the streaming pipelines' outputs
are checked against the batch reference implementations — the streaming
execution with watermarks and incremental state must compute exactly
the same answers as the offline pass.
"""

from hypothesis import given, settings, strategies as st

from repro.runtime.queries import bid_sessions_template, new_user_auctions_template
from repro.workloads.nexmark import (
    Auction,
    Bid,
    Person,
    session_windows,
    tumbling_window_join,
)


@st.composite
def bid_streams(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    stamps = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=50_000),
                min_size=n, max_size=n,
            )
        )
    )
    bids = []
    for ts in stamps:
        bids.append(
            Bid(
                auction_id=draw(st.integers(min_value=1, max_value=5)),
                bidder_id=draw(st.integers(min_value=1, max_value=6)),
                price=draw(st.integers(min_value=1, max_value=100)),
                timestamp_ms=ts,
            )
        )
    return bids


@settings(max_examples=50, deadline=None)
@given(bid_streams(), st.sampled_from([1_000, 5_000, 20_000]))
def test_sessions_match_reference(bids, gap_ms):
    result = bid_sessions_template(bids, gap_ms=gap_ms).build_pipeline().run()
    reference = session_windows(bids, gap_ms=gap_ms)
    assert sorted(result.output_values()) == sorted(reference)


@st.composite
def person_auction_streams(draw):
    n_persons = draw(st.integers(min_value=1, max_value=20))
    persons = []
    for i in range(n_persons):
        persons.append(
            Person(
                person_id=100 + i,
                name="p",
                city="c",
                state="s",
                timestamp_ms=draw(st.integers(min_value=0, max_value=40_000)),
            )
        )
    persons.sort(key=lambda p: p.timestamp_ms)
    n_auctions = draw(st.integers(min_value=0, max_value=30))
    auctions = []
    for i in range(n_auctions):
        ts = draw(st.integers(min_value=0, max_value=40_000))
        auctions.append(
            Auction(
                auction_id=500 + i,
                seller_id=draw(st.integers(min_value=100, max_value=100 + n_persons)),
                category=0,
                initial_bid=1,
                expires_ms=ts + 1000,
                timestamp_ms=ts,
            )
        )
    auctions.sort(key=lambda a: a.timestamp_ms)
    return persons, auctions


@settings(max_examples=50, deadline=None)
@given(person_auction_streams(), st.sampled_from([2_000, 10_000]))
def test_window_join_matches_reference(streams, window_ms):
    persons, auctions = streams
    result = new_user_auctions_template(
        persons, auctions, window_ms=window_ms
    ).build_pipeline().run()
    reference = tumbling_window_join(persons, auctions, window_ms=window_ms)
    assert sorted(result.output_values()) == sorted(reference)


@settings(max_examples=30, deadline=None)
@given(bid_streams())
def test_outputs_respect_event_time_order(bids):
    result = bid_sessions_template(bids, gap_ms=3_000).build_pipeline().run()
    stamps = [r.timestamp_ms for r in result.outputs]
    assert stamps == sorted(stamps)


@settings(max_examples=30, deadline=None)
@given(bid_streams())
def test_record_conservation(bids):
    """Every ingested bid is counted exactly once at each stage."""
    pipeline = bid_sessions_template(bids).build_pipeline()
    result = pipeline.run()
    assert result.records_ingested == len(bids)
    assert result.operator_stats["map"].records_in == len(bids)
    assert result.operator_stats["map"].records_out == len(bids)
    assert result.operator_stats["session_window"].records_in == len(bids)
    # total session bid-counts add back up to the input size
    total_counted = sum(row[3] for row in result.output_values())
    assert total_counted == len(bids)
