"""Record-at-a-time streaming operators with event-time semantics.

Each operator consumes timestamped records and may emit results either
immediately (stateless transforms) or when the watermark closes a
window (stateful windows and joins). Every operator tracks the
statistics CAPSys' profiler measures: records in/out (selectivity) and
state access bytes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.runtime.state import KeyedState, StateStats
from repro.runtime.windows import SessionMerger, Window


@dataclass(frozen=True, order=True)
class Record:
    """A timestamped element."""

    timestamp_ms: int
    value: Any = field(compare=False)


@dataclass
class OperatorStats:
    """Record counters per operator (selectivity evidence)."""

    records_in: int = 0
    records_out: int = 0

    @property
    def selectivity(self) -> float:
        if self.records_in == 0:
            return 0.0
        return self.records_out / self.records_in


class Operator(abc.ABC):
    """Base operator: process records, react to watermarks."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("operator name must be non-empty")
        self.name = name
        self.stats = OperatorStats()
        self.state: Optional[KeyedState] = None

    @abc.abstractmethod
    def process(self, record: Record) -> List[Record]:
        """Consume one record, return immediate outputs."""

    def on_watermark(self, watermark_ms: int) -> List[Record]:
        """React to event-time progress; default: nothing to trigger."""
        return []

    def state_stats(self) -> StateStats:
        return self.state.stats if self.state is not None else StateStats()

    def _count_in(self) -> None:
        self.stats.records_in += 1

    def _emit(self, records: List[Record]) -> List[Record]:
        self.stats.records_out += len(records)
        return records


class MapOperator(Operator):
    """1:1 transform preserving timestamps."""

    def __init__(self, name: str, fn: Callable[[Any], Any]) -> None:
        super().__init__(name)
        self.fn = fn

    def process(self, record: Record) -> List[Record]:
        self._count_in()
        return self._emit([Record(record.timestamp_ms, self.fn(record.value))])


class FilterOperator(Operator):
    """Keep records whose value satisfies the predicate."""

    def __init__(self, name: str, predicate: Callable[[Any], bool]) -> None:
        super().__init__(name)
        self.predicate = predicate

    def process(self, record: Record) -> List[Record]:
        self._count_in()
        if self.predicate(record.value):
            return self._emit([record])
        return self._emit([])


class FlatMapOperator(Operator):
    """1:N transform preserving timestamps."""

    def __init__(self, name: str, fn: Callable[[Any], Iterable[Any]]) -> None:
        super().__init__(name)
        self.fn = fn

    def process(self, record: Record) -> List[Record]:
        self._count_in()
        return self._emit(
            [Record(record.timestamp_ms, v) for v in self.fn(record.value)]
        )


class WindowAggregateOperator(Operator):
    """Keyed windowed aggregation over tumbling or sliding windows.

    Accumulators live in keyed state under ``(key, window)``; the
    watermark fires every window whose end it passes, emitting
    ``result_fn(key, window, accumulator)`` at the window end timestamp.
    """

    def __init__(
        self,
        name: str,
        assigner,
        key_fn: Callable[[Any], Any],
        init_fn: Callable[[], Any],
        add_fn: Callable[[Any, Any], Any],
        result_fn: Callable[[Any, Window, Any], Any],
    ) -> None:
        super().__init__(name)
        self.assigner = assigner
        self.key_fn = key_fn
        self.init_fn = init_fn
        self.add_fn = add_fn
        self.result_fn = result_fn
        self.state = KeyedState()
        self._pending: Set[Tuple[Any, Window]] = set()

    def process(self, record: Record) -> List[Record]:
        self._count_in()
        key = self.key_fn(record.value)
        for window in self.assigner.assign(record.timestamp_ms):
            slot = (key, window)
            accumulator = self.state.get(slot)
            if accumulator is None and not self.state.contains(slot):
                accumulator = self.init_fn()
            accumulator = self.add_fn(accumulator, record.value)
            self.state.put(slot, accumulator)
            self._pending.add(slot)
        return self._emit([])

    def on_watermark(self, watermark_ms: int) -> List[Record]:
        ready = sorted(
            (slot for slot in self._pending if slot[1].end_ms <= watermark_ms),
            key=lambda slot: (slot[1], repr(slot[0])),
        )
        outputs: List[Record] = []
        for key, window in ready:
            accumulator = self.state.get((key, window))
            outputs.append(
                Record(
                    window.end_ms - 1,
                    self.result_fn(key, window, accumulator),
                )
            )
            self.state.delete((key, window))
            self._pending.discard((key, window))
        return self._emit(outputs)


class SessionWindowOperator(Operator):
    """Keyed session windows with gap-based merging.

    Merging sessions merge their accumulators; a session fires when the
    watermark passes its end.
    """

    def __init__(
        self,
        name: str,
        gap_ms: int,
        key_fn: Callable[[Any], Any],
        init_fn: Callable[[], Any],
        add_fn: Callable[[Any, Any], Any],
        result_fn: Callable[[Any, Window, Any], Any],
    ) -> None:
        super().__init__(name)
        self.merger = SessionMerger(gap_ms)
        self.key_fn = key_fn
        self.init_fn = init_fn
        self.add_fn = add_fn
        self.result_fn = result_fn
        self.state = KeyedState()

    def process(self, record: Record) -> List[Record]:
        self._count_in()
        key = self.key_fn(record.value)
        before = set(self.merger.sessions(key))
        merged = self.merger.add(key, record.timestamp_ms)
        # fold accumulators of any sessions the new element merged away
        absorbed = [
            w for w in before if w.touches_or_intersects(merged) and w != merged
        ]
        accumulator = self.init_fn()
        for window in absorbed:
            previous = self.state.get((key, window))
            if previous is not None:
                accumulator = _merge_accumulators(accumulator, previous)
            self.state.delete((key, window))
        existing = self.state.get((key, merged))
        if existing is not None:
            accumulator = _merge_accumulators(accumulator, existing)
        accumulator = self.add_fn(accumulator, record.value)
        self.state.put((key, merged), accumulator)
        return self._emit([])

    def on_watermark(self, watermark_ms: int) -> List[Record]:
        closed: List[Tuple[int, Tuple[str, Any], int, int, Record]] = []
        # only keys with a closed session, in first-seen key order
        for key, windows in self.merger.expire_due(watermark_ms):
            token = _session_key_token(key)
            for window in windows:
                accumulator = self.state.get((key, window))
                record = Record(
                    window.end_ms - 1,
                    self.result_fn(key, window, accumulator),
                )
                closed.append(
                    (record.timestamp_ms, token, window.start_ms, window.end_ms, record)
                )
                self.state.delete((key, window))
        # sessions of different keys may close at different event times
        # within one watermark advance; emit in event-time order, tie-
        # broken by session key and window bounds — never by the repr of
        # the result value, which may collide across keys
        closed.sort(key=lambda entry: entry[:4])
        return self._emit([entry[4] for entry in closed])


def _session_key_token(key: Any) -> Tuple[str, Any]:
    """A totally ordered proxy for an arbitrary session key.

    Common key types order natively within their group (numbers
    numerically, strings lexicographically); anything else falls back to
    ``(type name, repr)``. Grouping by type rank keeps the combined
    order total even for mixed key types.
    """
    if isinstance(key, (bool, int, float)):
        return ("0:num", (float(key), repr(key)))
    if isinstance(key, str):
        return ("1:str", key)
    if isinstance(key, bytes):
        return ("2:bytes", key)
    return (f"9:{type(key).__name__}", repr(key))


def _merge_accumulators(a: Any, b: Any) -> Any:
    """Merge two accumulators (lists concatenate, numbers add)."""
    if isinstance(a, list) and isinstance(b, list):
        return a + b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a + b
    raise TypeError(
        f"cannot merge session accumulators of types {type(a)}/{type(b)}"
    )


class WindowJoinOperator(Operator):
    """Tumbling-window inner join of two tagged input streams.

    Records arrive tagged (the executor routes each source to a side);
    both sides buffer per ``(window, key)``; when the watermark closes a
    window, matching pairs are emitted via ``result_fn(left, right)``.
    """

    LEFT = "left"
    RIGHT = "right"

    def __init__(
        self,
        name: str,
        window_size_ms: int,
        left_key_fn: Callable[[Any], Any],
        right_key_fn: Callable[[Any], Any],
        result_fn: Callable[[Any, Any], Any],
    ) -> None:
        super().__init__(name)
        if window_size_ms <= 0:
            raise ValueError("window size must be positive")
        self.window_size_ms = window_size_ms
        self.left_key_fn = left_key_fn
        self.right_key_fn = right_key_fn
        self.result_fn = result_fn
        self.state = KeyedState()
        # Per-window slot index in slot-creation order (an insertion-
        # ordered dict used as an ordered set): firing a window touches
        # only that window's own slots instead of rescanning the entire
        # keyed state per pending window.
        self._window_slots: Dict[Window, Dict[Tuple[str, Any], None]] = {}

    def _window_of(self, timestamp_ms: int) -> Window:
        start = (timestamp_ms // self.window_size_ms) * self.window_size_ms
        return Window(start, start + self.window_size_ms)

    def process_side(self, side: str, record: Record) -> List[Record]:
        if side not in (self.LEFT, self.RIGHT):
            raise ValueError(f"unknown join side {side!r}")
        self._count_in()
        key_fn = self.left_key_fn if side == self.LEFT else self.right_key_fn
        key = key_fn(record.value)
        window = self._window_of(record.timestamp_ms)
        slot = (side, window, key)
        buffer = self.state.get(slot) or []
        buffer.append(record.value)
        self.state.put(slot, buffer)
        self._window_slots.setdefault(window, {})[(side, key)] = None
        return self._emit([])

    def process(self, record: Record) -> List[Record]:
        raise RuntimeError(
            "WindowJoinOperator needs tagged input; use process_side()"
        )

    def on_watermark(self, watermark_ms: int) -> List[Record]:
        outputs: List[Record] = []
        fired = sorted(
            w for w in self._window_slots if w.end_ms <= watermark_ms
        )
        for window in fired:
            # Slot-creation order within the window equals the global
            # state-insertion order restricted to it, so outputs are
            # byte-identical to the former whole-state rescans — at a
            # cost proportional to this window's own state.
            slots = self._window_slots.pop(window)
            lefts: Dict[Any, List[Any]] = {}
            for side, key in slots:
                if side == self.LEFT:
                    lefts[key] = self.state.get((side, window, key))
            for side, key in slots:
                if side != self.RIGHT or key not in lefts:
                    continue
                rights = self.state.get((side, window, key))
                for left_value in lefts[key]:
                    for right_value in rights:
                        outputs.append(
                            Record(
                                window.end_ms - 1,
                                self.result_fn(left_value, right_value),
                            )
                        )
            for side, key in slots:
                self.state.delete((side, window, key))
        return self._emit(outputs)
