"""The evaluation queries as record-level streaming pipelines.

Each builder returns a :class:`~repro.runtime.parallel.PipelineTemplate`
whose stages mirror the logical graphs of :mod:`repro.workloads.queries`,
executing the actual Nexmark semantics the paper's queries compute:

- :func:`hot_items_template` — Q1-sliding / Nexmark Q5: the hottest
  auction per sliding window of bids;
- :func:`new_user_auctions_template` — Q2-join / Nexmark Q8: persons
  joined with the auctions they opened in the same tumbling window;
- :func:`bid_sessions_template` — Q6-session / Nexmark Q11: per-bidder
  session windows of bid activity.

``template.build_pipeline().run()`` executes one on the single-threaded
:class:`~repro.runtime.executor.Pipeline`; the sharded executor
instantiates it onto a placed physical graph.

Their outputs are verified against the batch reference implementations
in :mod:`repro.workloads.nexmark` (tests). Their measured operator
statistics are reported only: the fluid model's unit costs are chosen
constants (DESIGN.md §1), and the paced executor is charged those.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.runtime.executor import Pipeline
from repro.runtime.operators import (
    FilterOperator,
    MapOperator,
    Record,
    SessionWindowOperator,
    WindowAggregateOperator,
    WindowJoinOperator,
)
from repro.runtime.parallel import PipelineTemplate
from repro.runtime.state import SizedCounter
from repro.runtime.windows import SlidingWindows, Window
from repro.workloads.nexmark import Auction, Bid, Person


def records_from(events: Iterable[object]) -> List[Record]:
    """Wrap Nexmark records (with ``timestamp_ms``) as runtime records."""
    return [Record(e.timestamp_ms, e) for e in events]


# ----------------------------------------------------------------------
# Q1-sliding / Nexmark Q5: hot items
# ----------------------------------------------------------------------

def hot_items_template(
    bids: Sequence[Bid], window_ms: int = 10_000, slide_ms: int = 2_000
) -> PipelineTemplate:
    """Hottest auction per sliding window.

    Emits ``(window_end_ms, auction_id, bid_count)`` rows; windows fire
    in event-time order as the watermark passes their end. Stage names
    match the operators of
    :func:`repro.workloads.queries.q1_sliding` (``map``,
    ``sliding_window``) so the sharded executor can instantiate the
    template onto that logical graph's physical expansion.
    """

    def add(acc: SizedCounter, bid: Bid) -> SizedCounter:
        acc.increment(bid.auction_id)
        return acc

    def result(_key, window: Window, acc):
        hottest = max(acc.items(), key=lambda kv: (kv[1], -kv[0]))
        return (window.end_ms, hottest[0], hottest[1])

    def window_factory():
        return WindowAggregateOperator(
            "sliding_window",
            assigner=SlidingWindows(window_ms, slide_ms),
            key_fn=lambda _bid: "all",  # global hot-items ranking
            init_fn=SizedCounter,
            add_fn=add,
            result_fn=result,
        )

    return (
        PipelineTemplate("hot-items")
        .add_source(records_from(bids))
        .then("map", lambda: MapOperator("map", lambda bid: bid))
        .then("sliding_window", window_factory)
    )


# ----------------------------------------------------------------------
# Q2-join / Nexmark Q8: persons joined with their new auctions
# ----------------------------------------------------------------------

def new_user_auctions_template(
    persons: Sequence[Person],
    auctions: Sequence[Auction],
    window_ms: int = 10_000,
) -> PipelineTemplate:
    """Persons and the auctions they opened in the same tumbling window.

    Emits ``(person_id, auction_id)`` pairs. The persons source is
    added first, so it maps to the LEFT join side and (positionally) to
    ``source_persons`` of
    :func:`repro.workloads.queries.q2_join`; that graph's ``map_*``
    operators have no template stage and run as identity relays.
    """

    def join_factory():
        return WindowJoinOperator(
            "tumbling_join",
            window_size_ms=window_ms,
            left_key_fn=lambda person: person.person_id,
            right_key_fn=lambda auction: auction.seller_id,
            result_fn=lambda person, auction: (
                person.person_id,
                auction.auction_id,
            ),
        )

    return (
        PipelineTemplate("new-user-auctions")
        .add_source(records_from(persons), tag="persons")
        .add_source(records_from(auctions), tag="auctions")
        .then("tumbling_join", join_factory)
    )


# ----------------------------------------------------------------------
# Q6-session / Nexmark Q11: per-bidder bid sessions
# ----------------------------------------------------------------------

def winning_bid_averages(
    auctions: Sequence[Auction],
    bids: Sequence[Bid],
    horizon_ms: int = 1 << 40,
) -> Tuple[dict, "PipelineStats"]:
    """Q5-aggregate / Nexmark Q6: average winning-bid price per seller.

    Composed from two pipelines (the runtime keeps joins at chain heads,
    so multi-stage queries compose by feeding one pipeline's outputs to
    the next — the same decomposition the logical graph of
    ``q5_aggregate`` uses):

    1. per-auction winning bid: max bid price keyed by auction over the
       whole horizon;
    2. join with the auction stream on auction id, then average the
       winning prices per seller.

    Returns the seller -> average mapping plus combined statistics.
    """
    from repro.runtime.windows import TumblingWindows

    def max_price(acc, bid: Bid):
        return max(acc, bid.price)

    winning = WindowAggregateOperator(
        "winning_bid",
        assigner=TumblingWindows(horizon_ms),
        key_fn=lambda bid: bid.auction_id,
        init_fn=lambda: 0,
        add_fn=max_price,
        result_fn=lambda auction_id, _w, price: (auction_id, price),
    )
    stage1 = (
        Pipeline("winning-bids")
        .add_source(records_from(bids))
        .then(winning)
    )
    result1 = stage1.run()

    join = WindowJoinOperator(
        "seller_join",
        window_size_ms=horizon_ms,
        left_key_fn=lambda auction: auction.auction_id,
        right_key_fn=lambda pair: pair[0],
        result_fn=lambda auction, pair: (auction.seller_id, pair[1]),
    )

    def add_price(acc, pair):
        total, count = acc
        return (total + pair[1], count + 1)

    averager = WindowAggregateOperator(
        "avg_price",
        assigner=TumblingWindows(horizon_ms),
        key_fn=lambda pair: pair[0],
        init_fn=lambda: (0, 0),
        add_fn=add_price,
        result_fn=lambda seller, _w, acc: (seller, acc[0] / acc[1]),
    )
    stage2 = (
        Pipeline("avg-per-seller")
        .add_source(records_from(auctions), tag="auctions")
        .add_source(result1.outputs, tag="winning")
        .then(join)
        .then(averager)
    )
    result2 = stage2.run()
    averages = dict(result2.output_values())
    stats = PipelineStats(
        operator_stats={
            **result1.operator_stats, **result2.operator_stats
        },
        state_stats={**result1.state_stats, **result2.state_stats},
    )
    return averages, stats


class PipelineStats:
    """Combined per-operator statistics of a multi-stage composition."""

    def __init__(self, operator_stats, state_stats) -> None:
        self.operator_stats = operator_stats
        self.state_stats = state_stats


def bid_sessions_template(
    bids: Sequence[Bid], gap_ms: int = 5_000
) -> PipelineTemplate:
    """Per-bidder session windows of bid activity.

    Emits ``(bidder_id, session_start_ms, session_last_ms, bid_count)``
    rows matching the reference semantics of
    :func:`repro.workloads.nexmark.session_windows`. Stage names match
    :func:`repro.workloads.queries.q6_session` (``map``,
    ``session_window``).
    """
    gap = gap_ms

    def session_factory():
        return SessionWindowOperator(
            "session_window",
            gap_ms=gap_ms,
            key_fn=lambda bid: bid.bidder_id,
            init_fn=lambda: 0,
            add_fn=lambda acc, _bid: acc + 1,
            result_fn=lambda key, window, acc: (
                key,
                window.start_ms,
                window.end_ms - gap,
                acc,
            ),
        )

    return (
        PipelineTemplate("bid-sessions")
        .add_source(records_from(bids))
        .then("map", lambda: MapOperator("map", lambda bid: bid))
        .then("session_window", session_factory)
    )
