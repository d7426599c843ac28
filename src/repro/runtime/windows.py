"""Event-time window assigners.

The semantics follow the dataflow model [Akidau et al., VLDB 2015] the
paper's section 2.1 builds on: a window is a half-open event-time
interval ``[start, end)``; an element is assigned to every window whose
interval contains its timestamp. Session windows are element-defined and
merge on overlap, handled by :class:`SessionMerger`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True, order=True)
class Window:
    """A half-open event-time interval ``[start_ms, end_ms)``."""

    start_ms: int
    end_ms: int

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ValueError("window end must be after start")

    def contains(self, timestamp_ms: int) -> bool:
        return self.start_ms <= timestamp_ms < self.end_ms

    def intersects(self, other: "Window") -> bool:
        return self.start_ms < other.end_ms and other.start_ms < self.end_ms

    def touches_or_intersects(self, other: "Window") -> bool:
        """Overlap-or-touch, the session-merging predicate: like Flink's
        ``TimeWindow.intersects``, two sessions whose intervals merely
        touch (one ends exactly where the other starts) still merge —
        equivalently, elements exactly ``gap`` apart share a session."""
        return self.start_ms <= other.end_ms and other.start_ms <= self.end_ms

    def merge(self, other: "Window") -> "Window":
        return Window(
            min(self.start_ms, other.start_ms), max(self.end_ms, other.end_ms)
        )


class TumblingWindows:
    """Fixed, non-overlapping windows of ``size_ms``."""

    def __init__(self, size_ms: int) -> None:
        if size_ms <= 0:
            raise ValueError("window size must be positive")
        self.size_ms = size_ms

    def assign(self, timestamp_ms: int) -> List[Window]:
        start = (timestamp_ms // self.size_ms) * self.size_ms
        return [Window(start, start + self.size_ms)]


class SlidingWindows:
    """Overlapping windows of ``size_ms`` sliding every ``slide_ms``.

    An element belongs to ``size/slide`` windows (the pane multiplicity
    that makes Q1-sliding's state access cost high, paper section 3.2).
    """

    def __init__(self, size_ms: int, slide_ms: int) -> None:
        if size_ms <= 0 or slide_ms <= 0:
            raise ValueError("size and slide must be positive")
        if size_ms % slide_ms != 0:
            raise ValueError("size must be a multiple of slide")
        self.size_ms = size_ms
        self.slide_ms = slide_ms

    def assign(self, timestamp_ms: int) -> List[Window]:
        last_start = (timestamp_ms // self.slide_ms) * self.slide_ms
        windows = []
        start = last_start
        while start > timestamp_ms - self.size_ms:
            windows.append(Window(start, start + self.size_ms))
            start -= self.slide_ms
        return sorted(windows)


class SessionMerger:
    """Per-key session windows with gap-based merging.

    Each element opens a proto-session ``[ts, ts + gap)``; overlapping
    proto-sessions of the same key merge. :meth:`add` returns the merged
    session the element now belongs to.

    Every session is also indexed by its end in a min-heap of
    ``(end_ms, first-seen rank, key)`` entries, so :meth:`expire_due`
    finds the sessions a watermark closes without visiting every key.
    The heap is lazy: a session merged away leaves its entry behind,
    and the entry is dropped when it surfaces.
    """

    def __init__(self, gap_ms: int) -> None:
        if gap_ms <= 0:
            raise ValueError("gap must be positive")
        self.gap_ms = gap_ms
        self._sessions: Dict[object, List[Window]] = {}
        self._ranks: Dict[object, int] = {}
        self._ends: List[Tuple[int, int, object]] = []

    def add(self, key: object, timestamp_ms: int) -> Window:
        proto = Window(timestamp_ms, timestamp_ms + self.gap_ms)
        sessions = self._sessions.setdefault(key, [])
        merged = proto
        keep: List[Window] = []
        for window in sessions:
            if window.touches_or_intersects(merged):
                merged = merged.merge(window)
            else:
                keep.append(window)
        keep.append(merged)
        keep.sort()
        self._sessions[key] = keep
        rank = self._ranks.setdefault(key, len(self._ranks))
        heapq.heappush(self._ends, (merged.end_ms, rank, key))
        return merged

    def sessions(self, key: object) -> List[Window]:
        return list(self._sessions.get(key, []))

    def expire_before(self, key: object, watermark_ms: int) -> List[Window]:
        """Remove and return this key's sessions closed by the watermark.

        A session is closed once the watermark moves *strictly past* its
        end: merging is gap-inclusive, so an element stamped exactly at
        the session end (which a watermark equal to the end still
        permits) would extend it.
        """
        sessions = self._sessions.get(key, [])
        closed = [w for w in sessions if w.end_ms < watermark_ms]
        if closed:
            self._sessions[key] = [w for w in sessions if w.end_ms >= watermark_ms]
        return closed

    def expire_due(self, watermark_ms: int) -> List[Tuple[object, List[Window]]]:
        """Expire every session the watermark closes, key by key.

        Returns ``(key, closed sessions)`` pairs for exactly the keys
        that had a closed session, in first-seen order (the order of
        :meth:`keys`), each key's sessions as :meth:`expire_before`
        returns them.
        """
        due: Dict[int, object] = {}
        ends = self._ends
        while ends and ends[0][0] < watermark_ms:
            end_ms, rank, key = heapq.heappop(ends)
            # a merged-away or already expired session's entry is stale
            if rank not in due and any(
                w.end_ms == end_ms for w in self._sessions[key]
            ):
                due[rank] = key
        return [
            (key, self.expire_before(key, watermark_ms))
            for _, key in sorted(due.items())
        ]

    def keys(self) -> List[object]:
        return list(self._sessions.keys())
