"""Keyed state with access accounting.

A minimal RocksDB-stand-in: a per-key map whose reads and writes are
counted and sized, so a pipeline run reports the quantities CAPSys'
profiling phase measures on the real state backend — bytes read and
written per record (paper section 5.1) — for the runtime queries.

A value is sized once, when it is written; a read charges the size its
last write recorded, as a store that returns the bytes it was given
would. Accumulators that grow by one entry per record
(:class:`SizedCounter`) keep their own size, so writing one back costs
O(1) rather than a walk over every entry.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Tuple


def default_sizer(value: Any) -> int:
    """Rough serialized-size estimate of a state value in bytes.

    Containers are sized recursively, to any depth: 8 bytes plus the
    sizes of their elements (of keys and values, for a dict). This
    approximates what a serializer would write without requiring one.
    A :class:`SizedCounter` reports the size it keeps itself, which
    equals that walk.
    """
    if value is None:
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple, set)):
        return 8 + sum(default_sizer(v) for v in value)
    if isinstance(value, dict):
        if isinstance(value, SizedCounter):
            return value.state_bytes
        return 8 + sum(
            default_sizer(k) + default_sizer(v) for k, v in value.items()
        )
    return max(8, sys.getsizeof(value) // 2)


class SizedCounter(dict):
    """A ``key -> count`` dict that keeps its own :func:`default_sizer` size.

    :meth:`increment` is its only mutator: a newly seen key adds its
    own size plus 8 bytes for its count, and a count stays 8 bytes as
    it grows (it is an int), so :attr:`state_bytes` equals
    ``default_sizer(dict(counter))`` after any sequence of increments.
    Every other dict mutator raises, which keeps that true.
    """

    __slots__ = ("state_bytes",)

    def __init__(self) -> None:
        super().__init__()
        self.state_bytes = 8  # default_sizer's container overhead

    def increment(self, key: Any) -> None:
        count = self.get(key)
        if count is None:
            self.state_bytes += default_sizer(key) + 8
            count = 0
        dict.__setitem__(self, key, count + 1)

    def _refuse(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("a SizedCounter changes only through increment()")

    __setitem__ = __delitem__ = __ior__ = _refuse
    setdefault = update = pop = popitem = clear = _refuse


@dataclass
class StateStats:
    """Access counters for one state store."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def io_bytes(self) -> int:
        """Total state-access bytes (the paper's state access metric)."""
        return self.bytes_read + self.bytes_written


class KeyedState:
    """A keyed key-value store with access accounting.

    Keys are arbitrary hashables (typically ``(element_key, window)``
    pairs); values are whatever the operator accumulates.

    :meth:`put` sizes the value and records that size beside it;
    :meth:`get` charges the recorded size without sizing the value
    again. That equals sizing the value at read time under this
    contract: a value is not mutated between its ``put`` and a later
    ``get`` unless it is ``put`` again. Every operator in
    :mod:`repro.runtime.operators` complies: a value it reads and then
    changes is ``put`` back before it is read again.
    """

    def __init__(self, sizer: Callable[[Any], int] = default_sizer) -> None:
        # key -> (value, its size as of its last put)
        self._table: Dict[Any, Tuple[Any, int]] = {}
        self._sizer = sizer
        self.stats = StateStats()

    def get(self, key: Any, default: Any = None) -> Any:
        self.stats.reads += 1
        entry = self._table.get(key)
        if entry is None:
            return default
        self.stats.bytes_read += entry[1]
        return entry[0]

    def put(self, key: Any, value: Any) -> None:
        size = self._sizer(value)
        self.stats.writes += 1
        self.stats.bytes_written += size
        self._table[key] = (value, size)

    def delete(self, key: Any) -> None:
        if key in self._table:
            self.stats.deletes += 1
            del self._table[key]

    def contains(self, key: Any) -> bool:
        return key in self._table

    def keys(self) -> Iterator[Any]:
        # iteration used by window triggers; counts as a scan read
        self.stats.reads += 1
        return iter(list(self._table.keys()))

    def size_bytes(self) -> int:
        """Retained state size: every key's size plus its value's size
        as recorded at its last ``put``. A diagnostic; no access
        counter reads it."""
        return sum(self._sizer(key) + size for key, (_, size) in self._table.items())

    def __len__(self) -> int:
        return len(self._table)
