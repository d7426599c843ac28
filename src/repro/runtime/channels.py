"""Bounded in-memory channels connecting sharded operator instances.

A :class:`BoundedChannel` is the record-level analogue of the fluid
simulator's bounded downstream buffers (DESIGN.md §2): a FIFO queue of
*items* — data records and in-band watermarks — with a fixed credit
budget measured in data records. A producer that finds no free credit
must stop (head-of-line blocking, the mechanism behind credit-based
backpressure); watermarks and window-trigger flushes bypass the credit
check so that event-time progress can never deadlock behind a full
buffer (flushes are tracked as ``overflow_puts`` instead).

Every enqueued item carries a *ticket* — a globally increasing sequence
number handed out by the executor — so a consumer with several input
channels can merge them deterministically (lowest ticket first) without
depending on dict ordering or arrival races. The single-process
scheduler hands out tickets deterministically, which is what makes
double runs byte-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional, Tuple

from repro.runtime.operators import Record

#: Item kinds (first element of every queued tuple after the ticket).
ITEM_RECORD = 0
ITEM_WATERMARK = 1


@dataclass
class ChannelStats:
    """Occupancy and backpressure counters for one channel.

    Attributes:
        enqueued: Data records accepted (credit-checked puts).
        dequeued: Data records consumed.
        watermarks: Watermark items forwarded.
        blocked_puts: Put attempts rejected because the buffer was full —
            each one is a producer turn ended by backpressure.
        overflow_puts: Forced puts beyond capacity (window-trigger
            flushes, which must not deadlock on a full buffer).
        peak_occupancy: High-water mark of queued data records.
    """

    enqueued: int = 0
    dequeued: int = 0
    watermarks: int = 0
    blocked_puts: int = 0
    overflow_puts: int = 0
    peak_occupancy: int = 0


class BoundedChannel:
    """A FIFO channel with credit-based flow control.

    Args:
        name: Diagnostic name, conventionally ``"src_uid->dst_uid"``.
        capacity: Credit budget in data records; ``None`` disables the
            credit check entirely.
    """

    __slots__ = ("name", "capacity", "stats", "_items", "_occupancy")

    def __init__(self, name: str, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.stats = ChannelStats()
        self._items: Deque[Tuple[int, int, Any]] = deque()
        self._occupancy = 0  # data records only; watermarks are free

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Data records currently buffered."""
        return self._occupancy

    def free_credit(self) -> Optional[int]:
        """Remaining credit, or ``None`` for an unbounded channel."""
        if self.capacity is None:
            return None
        return self.capacity - self._occupancy

    def try_put(self, ticket: int, record: Record) -> bool:
        """Enqueue a data record if credit allows; False when blocked."""
        if self.capacity is not None and self._occupancy >= self.capacity:
            self.stats.blocked_puts += 1
            return False
        self._enqueue_record(ticket, record)
        return True

    def force_put(self, ticket: int, record: Record) -> None:
        """Enqueue a data record ignoring credit (window flush path)."""
        if self.capacity is not None and self._occupancy >= self.capacity:
            self.stats.overflow_puts += 1
        self._enqueue_record(ticket, record)

    def put_watermark(self, ticket: int, watermark_ms: int) -> None:
        """Enqueue an in-band watermark (never consumes credit)."""
        self.stats.watermarks += 1
        self._items.append((ticket, ITEM_WATERMARK, watermark_ms))

    def _enqueue_record(self, ticket: int, record: Record) -> None:
        self._items.append((ticket, ITEM_RECORD, record))
        self._occupancy += 1
        self.stats.enqueued += 1
        if self._occupancy > self.stats.peak_occupancy:
            self.stats.peak_occupancy = self._occupancy

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def head_ticket(self) -> Optional[int]:
        """Ticket of the next item, or ``None`` when empty."""
        if not self._items:
            return None
        return self._items[0][0]

    def head_kind(self) -> Optional[int]:
        """Kind of the next item, or ``None`` when empty."""
        if not self._items:
            return None
        return self._items[0][1]

    def get(self) -> Tuple[int, int, Any]:
        """Dequeue the next ``(ticket, kind, payload)`` item."""
        ticket, kind, payload = self._items.popleft()
        if kind == ITEM_RECORD:
            self._occupancy -= 1
            self.stats.dequeued += 1
        return ticket, kind, payload

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"BoundedChannel({self.name}, {self._occupancy}/{cap})"
