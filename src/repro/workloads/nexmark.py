"""Record-level Nexmark-style event generation and reference semantics.

The paper's evaluation queries come from the Nexmark benchmark suite
(auctions, bids, persons) [Tucker et al. 2002; Apache Beam]. The fluid
simulator only needs per-record unit costs, but the examples and the
empirical validation tests use actual records: this module provides a
deterministic event generator and small single-process reference
implementations of the query semantics (sliding-window counts, tumbling
window join, session windows). The reference implementations are also
used to sanity-check the selectivity constants baked into
:mod:`repro.workloads.queries`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import cycle, islice
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

FIRST_PERSON_ID = 1000
FIRST_AUCTION_ID = 2000


@dataclass(frozen=True)
class Person:
    """A registered marketplace user."""

    person_id: int
    name: str
    city: str
    state: str
    timestamp_ms: int


@dataclass(frozen=True)
class Auction:
    """An auction opened by a seller."""

    auction_id: int
    seller_id: int
    category: int
    initial_bid: int
    expires_ms: int
    timestamp_ms: int


@dataclass(frozen=True)
class Bid:
    """A bid placed on an open auction."""

    auction_id: int
    bidder_id: int
    price: int
    timestamp_ms: int


Event = Tuple[str, object]  # ("person"|"auction"|"bid", record)

#: The event kinds: the tags of :meth:`NexmarkGenerator.take`, in the
#: order of the lists :meth:`NexmarkGenerator.take_by_kind` returns.
KINDS = ("person", "auction", "bid")
_PERSON, _AUCTION, _BID = range(3)

_CITIES = ["Boston", "Seattle", "Austin", "Portland", "Chicago", "Denver"]
_STATES = ["MA", "WA", "TX", "OR", "IL", "CO"]
_NAMES = ["ada", "grace", "alan", "edsger", "barbara", "dennis", "ken", "leslie"]
#: Bids draw from the most recently opened auctions, at most this many.
_LIVE_AUCTIONS = 500
#: Auction categories are drawn below this bound; initial bids and bid
#: prices are 1 plus a draw below theirs.
_CATEGORIES = 10
_INITIAL_BID_BOUND = 999
_PRICE_BOUND = 9_999


class NexmarkGenerator:
    """Deterministic Nexmark event stream generator.

    Events are generated in timestamp order with the classic Nexmark
    person:auction:bid proportions of 1:3:46 by default; each cycle of
    events starts with its persons, then its auctions, then its bids. A
    stream depends only on the seed and on the Mersenne Twister's
    ``getrandbits`` output: every value is drawn below a bound ``n`` by
    CPython's own rule (draw ``n.bit_length()`` bits until the draw is
    below ``n``), the rule ``random.choice`` and ``randrange`` follow.
    Two generators with the same seed yield identical streams, and
    consecutive calls continue one stream: ``take(a) + take(b)`` equals
    ``take(a + b)``.

    :meth:`take_by_kind` builds only the kinds its caller asks for.
    Kinds that a caller does not ask for are drawn but not built, so the
    records it does build are those :meth:`take` returns.

    Example:
        >>> gen = NexmarkGenerator(seed=7, events_per_second=100.0)
        >>> kinds = [kind for kind, _ in gen.take(50)]
        >>> kinds.count("bid") > kinds.count("auction") > kinds.count("person")
        True
    """

    def __init__(
        self,
        seed: int = 0,
        events_per_second: float = 1000.0,
        person_proportion: int = 1,
        auction_proportion: int = 3,
        bid_proportion: int = 46,
        auction_duration_ms: int = 60_000,
    ) -> None:
        if not (math.isfinite(events_per_second) and events_per_second > 0):
            raise ValueError(
                f"events_per_second must be finite and positive, got "
                f"{events_per_second!r}"
            )
        if min(person_proportion, auction_proportion, bid_proportion) < 1:
            raise ValueError("all proportions must be >= 1")
        self._bits = random.Random(seed).getrandbits
        self._events_per_second = events_per_second
        #: The kind of each event of one cycle, in emission order.
        self._slots = (
            (_PERSON,) * person_proportion
            + (_AUCTION,) * auction_proportion
            + (_BID,) * bid_proportion
        )
        self._auction_duration_ms = auction_duration_ms
        self._next_auction_id = FIRST_AUCTION_ID
        self._emitted = 0
        self._live_auctions: List[int] = []
        self._known_persons: List[int] = []

    # ------------------------------------------------------------------
    def _kinds(self, count: int) -> Iterator[int]:
        """The kind of each of the next ``count`` events."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        start = self._emitted % len(self._slots)
        return islice(cycle(self._slots), start, start + count)

    def take_by_kind(
        self, count: int, kinds: Iterable[str]
    ) -> Tuple[List[Person], List[Auction], List[Bid]]:
        """The persons, auctions and bids of the next ``count`` events.

        Only the kinds named in ``kinds`` are built; a kind left out comes
        back as an empty list, though its values are still drawn.
        """
        wanted = set(kinds)
        unknown = wanted.difference(KINDS)
        if unknown:
            raise ValueError(
                f"unknown event kind {min(unknown)!r}; known: {', '.join(KINDS)}"
            )
        persons: List[Person] = []
        auctions: List[Auction] = []
        bids: List[Bid] = []
        keep_persons = "person" in wanted
        keep_auctions = "auction" in wanted
        keep_bids = "bid" in wanted
        bits = self._bits
        rate = self._events_per_second
        duration = self._auction_duration_ms
        known = self._known_persons
        live = self._live_auctions
        auction_id = self._next_auction_id
        first = self._emitted
        # Every draw below a bound n is inlined as ``r = bits(k)``,
        # repeated while ``r >= n``, with k = n.bit_length(). Slot order
        # puts a person before the first auction and an auction before
        # the first bid, so ``known`` and ``live`` are never empty when
        # drawn from.
        names_n, cities_n, states_n = len(_NAMES), len(_CITIES), len(_STATES)
        names_k, cities_k, states_k = (
            names_n.bit_length(), cities_n.bit_length(), states_n.bit_length()
        )
        category_k = _CATEGORIES.bit_length()
        initial_k = _INITIAL_BID_BOUND.bit_length()
        price_k = _PRICE_BOUND.bit_length()
        for emitted, kind in zip(range(first, first + count), self._kinds(count)):
            if kind == _BID:
                n = len(live)
                k = n.bit_length()
                r = bits(k)
                while r >= n:
                    r = bits(k)
                auction = live[r]
                n = len(known)
                k = n.bit_length()
                r = bits(k)
                while r >= n:
                    r = bits(k)
                bidder = known[r]
                r = bits(price_k)
                while r >= _PRICE_BOUND:
                    r = bits(price_k)
                if keep_bids:
                    ts = int(emitted * 1000.0 / rate)
                    bids.append(Bid(auction, bidder, 1 + r, ts))
            elif kind == _AUCTION:
                live.append(auction_id)
                if len(live) > _LIVE_AUCTIONS:
                    live.pop(0)
                n = len(known)
                k = n.bit_length()
                r = bits(k)
                while r >= n:
                    r = bits(k)
                seller = known[r]
                category = bits(category_k)
                while category >= _CATEGORIES:
                    category = bits(category_k)
                r = bits(initial_k)
                while r >= _INITIAL_BID_BOUND:
                    r = bits(initial_k)
                if keep_auctions:
                    ts = int(emitted * 1000.0 / rate)
                    auctions.append(
                        Auction(auction_id, seller, category, 1 + r, ts + duration, ts)
                    )
                auction_id += 1
            else:
                person_id = FIRST_PERSON_ID + len(known)
                known.append(person_id)
                name = bits(names_k)
                while name >= names_n:
                    name = bits(names_k)
                city = bits(cities_k)
                while city >= cities_n:
                    city = bits(cities_k)
                state = bits(states_k)
                while state >= states_n:
                    state = bits(states_k)
                if keep_persons:
                    ts = int(emitted * 1000.0 / rate)
                    persons.append(Person(
                        person_id, _NAMES[name], _CITIES[city], _STATES[state], ts
                    ))
        self._emitted = first + count
        self._next_auction_id = auction_id
        return persons, auctions, bids

    def take(self, count: int) -> List[Event]:
        """Materialise the next ``count`` events as ``(kind, record)``."""
        kinds = list(self._kinds(count))
        built = [iter(records) for records in self.take_by_kind(count, KINDS)]
        return [(KINDS[kind], next(built[kind])) for kind in kinds]

    def events(self) -> Iterator[Event]:
        """Yield an unbounded, timestamp-ordered event stream."""
        while True:
            yield from self.take(1)


# ----------------------------------------------------------------------
# Reference query semantics (single-process, record level). These exist
# to validate the selectivity constants used by the fluid model and to
# power the record-level example application.
# ----------------------------------------------------------------------

def sliding_window_hot_items(
    bids: Sequence[Bid], window_ms: int = 10_000, slide_ms: int = 2_000
) -> List[Tuple[int, int, int]]:
    """Nexmark Q5 semantics: the hottest auction per sliding window.

    Returns one ``(window_end_ms, auction_id, bid_count)`` row per
    window. This is the logical computation behind Q1-sliding.
    """
    if window_ms <= 0 or slide_ms <= 0:
        raise ValueError("window and slide must be positive")
    if not bids:
        return []
    max_ts = max(b.timestamp_ms for b in bids)
    results: List[Tuple[int, int, int]] = []
    window_end = window_ms
    while window_end <= max_ts + slide_ms:
        window_start = window_end - window_ms
        counts: Dict[int, int] = {}
        for bid in bids:
            if window_start <= bid.timestamp_ms < window_end:
                counts[bid.auction_id] = counts.get(bid.auction_id, 0) + 1
        if counts:
            hottest = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
            results.append((window_end, hottest[0], hottest[1]))
        window_end += slide_ms
    return results


def tumbling_window_join(
    persons: Sequence[Person],
    auctions: Sequence[Auction],
    window_ms: int = 10_000,
) -> List[Tuple[int, int]]:
    """Nexmark Q8 semantics: new persons who opened auctions in a window.

    Returns ``(person_id, auction_id)`` pairs for persons and their
    auctions that fall in the same tumbling window. This is the logical
    computation behind Q2-join.
    """
    if window_ms <= 0:
        raise ValueError("window must be positive")
    results: List[Tuple[int, int]] = []
    persons_by_window: Dict[int, Dict[int, Person]] = {}
    for person in persons:
        bucket = person.timestamp_ms // window_ms
        persons_by_window.setdefault(bucket, {})[person.person_id] = person
    for auction in auctions:
        bucket = auction.timestamp_ms // window_ms
        window_persons = persons_by_window.get(bucket, {})
        if auction.seller_id in window_persons:
            results.append((auction.seller_id, auction.auction_id))
    return results


def session_windows(
    bids: Sequence[Bid], gap_ms: int = 5_000
) -> List[Tuple[int, int, int, int]]:
    """Nexmark Q11 semantics: per-bidder session windows of bid activity.

    A session closes when a bidder is inactive for longer than ``gap_ms``.
    Returns ``(bidder_id, session_start_ms, session_end_ms, bid_count)``
    rows. This is the logical computation behind Q6-session.
    """
    if gap_ms <= 0:
        raise ValueError("gap must be positive")
    by_bidder: Dict[int, List[int]] = {}
    for bid in sorted(bids, key=lambda b: b.timestamp_ms):
        by_bidder.setdefault(bid.bidder_id, []).append(bid.timestamp_ms)
    sessions: List[Tuple[int, int, int, int]] = []
    for bidder, stamps in sorted(by_bidder.items()):
        start = prev = stamps[0]
        count = 1
        for ts in stamps[1:]:
            if ts - prev > gap_ms:
                sessions.append((bidder, start, prev, count))
                start = ts
                count = 0
            count += 1
            prev = ts
        sessions.append((bidder, start, prev, count))
    return sessions


def average_price_per_seller(
    auctions: Sequence[Auction], bids: Sequence[Bid]
) -> Dict[int, float]:
    """Nexmark Q6 semantics: average winning-bid price per seller.

    The winning bid of an auction is its highest bid. This is the logical
    computation behind Q5-aggregate.
    """
    winning: Dict[int, int] = {}
    for bid in bids:
        if bid.auction_id not in winning or bid.price > winning[bid.auction_id]:
            winning[bid.auction_id] = bid.price
    totals: Dict[int, List[int]] = {}
    for auction in auctions:
        if auction.auction_id in winning:
            totals.setdefault(auction.seller_id, []).append(
                winning[auction.auction_id]
            )
    return {
        seller: sum(prices) / len(prices) for seller, prices in sorted(totals.items())
    }


def empirical_selectivity(events: Sequence[Event], kind: str) -> float:
    """Fraction of a mixed event stream that is of ``kind``.

    Used by tests to confirm the generator respects its configured
    proportions, which in turn justifies the selectivity constants of the
    filter operators in :mod:`repro.workloads.queries`.
    """
    if not events:
        raise ValueError("need at least one event")
    matching = sum(1 for k, _ in events if k == kind)
    return matching / len(events)
