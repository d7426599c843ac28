"""The record runtime's state path: sizing at write, self-sized counters,
and session expiry indexed by session end.

Each optimisation is checked against what it replaced: the end-time
heap against a faithful copy of the all-keys session trigger, and the
self-sized counter against the recursive sizer.
"""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.operators import (
    Record,
    SessionWindowOperator,
    _session_key_token,
)
from repro.runtime.state import KeyedState, SizedCounter, default_sizer
from repro.runtime.windows import SessionMerger, Window


class _AllKeysSession(SessionWindowOperator):
    """The pre-index session trigger: every key ever seen, every watermark.

    A faithful copy of the algorithm the end-time heap replaced, kept as
    the output-equivalence reference for it.
    """

    def on_watermark(self, watermark_ms):
        closed = []
        for key in list(self.merger.keys()):
            token = _session_key_token(key)
            for window in self.merger.expire_before(key, watermark_ms):
                accumulator = self.state.get((key, window))
                record = Record(
                    window.end_ms - 1,
                    self.result_fn(key, window, accumulator),
                )
                closed.append(
                    (record.timestamp_ms, token, window.start_ms, window.end_ms, record)
                )
                self.state.delete((key, window))
        closed.sort(key=lambda entry: entry[:4])
        return self._emit([entry[4] for entry in closed])


class OpaqueKey:
    """A session key whose repr collides with every other instance."""

    def __repr__(self):
        return "<opaque>"


_OPAQUE = (OpaqueKey(), OpaqueKey(), OpaqueKey())
#: ints, strings, a tuple, a bool and colliding-repr custom keys
KEYS = (3, 10, 9, "a", "b", ("t", 1), True, *_OPAQUE)


def _session_op(cls, gap_ms):
    return cls(
        "sess",
        gap_ms=gap_ms,
        key_fn=lambda value: value[0],
        init_fn=list,
        add_fn=lambda acc, value: acc + [value[1]],
        result_fn=lambda key, window, acc: (
            key, window.start_ms, window.end_ms, tuple(acc)
        ),
    )


def _counting_expiry(op):
    """Count the keys ``op``'s merger visits through ``expire_before``."""
    visits = []
    inner = op.merger.expire_before

    def expire_before(key, watermark_ms):
        visits.append(key)
        return inner(key, watermark_ms)

    op.merger.expire_before = expire_before
    return visits


def _keys_with_due_session(merger, watermark_ms):
    return sum(
        any(w.end_ms < watermark_ms for w in merger.sessions(key))
        for key in merger.keys()
    )


def _state_tuple(stats):
    return (
        stats.reads, stats.writes, stats.deletes,
        stats.bytes_read, stats.bytes_written,
    )


#: A stream step: a record (key index, timestamp, payload) or a watermark.
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.integers(min_value=0, max_value=len(KEYS) - 1),
            st.integers(min_value=0, max_value=300),
            st.integers(min_value=0, max_value=9),
        ),
        st.tuples(st.just("watermark"), st.integers(min_value=-5, max_value=320)),
    ),
    max_size=80,
)


def _drive(op, steps):
    """Feed ``steps`` to ``op``, flushing at the end; return every
    watermark's ``(timestamp, value)`` output sequence."""
    fired = []
    for step in steps + [("watermark", 2**62)]:
        if step[0] == "record":
            _, key_index, ts, payload = step
            op.process(Record(ts, (KEYS[key_index], payload)))
        else:
            out = op.on_watermark(step[1])
            fired.append([(r.timestamp_ms, r.value) for r in out])
    return fired


class TestSessionExpiryEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(steps=_steps, gap_ms=st.integers(min_value=1, max_value=25))
    def test_heap_expiry_matches_all_keys_scan(self, steps, gap_ms):
        indexed = _session_op(SessionWindowOperator, gap_ms)
        scan = _session_op(_AllKeysSession, gap_ms)
        assert _drive(indexed, steps) == _drive(scan, steps)
        assert _state_tuple(indexed.state.stats) == _state_tuple(scan.state.stats)
        assert (indexed.stats.records_in, indexed.stats.records_out) == (
            scan.stats.records_in, scan.stats.records_out,
        )

    @settings(max_examples=200, deadline=None)
    @given(steps=_steps, gap_ms=st.integers(min_value=1, max_value=25))
    def test_visits_only_keys_with_a_due_session(self, steps, gap_ms):
        op = _session_op(SessionWindowOperator, gap_ms)
        visits = _counting_expiry(op)
        for step in steps + [("watermark", 2**62)]:
            if step[0] == "record":
                _, key_index, ts, payload = step
                op.process(Record(ts, (KEYS[key_index], payload)))
                continue
            due = _keys_with_due_session(op.merger, step[1])
            before = len(visits)
            op.on_watermark(step[1])
            assert len(visits) - before <= due

    def test_colliding_reprs_match_the_all_keys_scan(self):
        """Keys whose reprs collide tie on event time and key token; the
        stable sort then keeps first-seen key order, which the heap must
        reproduce."""
        k1, k2 = _OPAQUE[0], _OPAQUE[1]
        for first, second in ((k1, k2), (k2, k1)):
            steps = [
                ("record", KEYS.index(first), 2, 0),    # [2, 7)
                ("record", KEYS.index(second), 0, 1),   # [0, 5) ...
                ("record", KEYS.index(second), 2, 2),   # ... merges to [0, 7)
                ("record", KEYS.index(first), 20, 3),   # [20, 25)
                ("record", KEYS.index(second), 20, 4),  # [20, 25)
            ]
            indexed = _drive(_session_op(SessionWindowOperator, 5), steps)
            scan = _drive(_session_op(_AllKeysSession, 5), steps)
            assert indexed == scan
            # both [20, 25) sessions tie completely: first-seen key first
            assert [v[0] for _, v in indexed[-1] if v[1] == 20] == [first, second]

    def test_many_idle_keys_are_not_revisited(self):
        """One key per 10 ms, each firing one watermark later: the old
        scan visited every key on every watermark (quadratic); the heap
        visits each key once."""
        op = _session_op(SessionWindowOperator, 5)
        visits = _counting_expiry(op)
        keys = 300
        for i in range(keys):
            op.process(Record(10 * i, (i, 0)))
            op.on_watermark(10 * i)
        op.on_watermark(2**62)
        assert len(visits) == keys
        assert op.stats.records_out == keys


class TestSessionMergerExpireDue:
    def test_returns_due_keys_in_first_seen_order(self):
        m = SessionMerger(gap_ms=5)
        m.add("late", 100)
        m.add("b", 0)
        m.add("a", 1)
        assert m.expire_due(50) == [("b", [Window(0, 5)]), ("a", [Window(1, 6)])]
        assert m.expire_due(50) == []
        assert m.expire_due(2**62) == [("late", [Window(100, 105)])]

    def test_merged_away_sessions_are_not_due(self):
        m = SessionMerger(gap_ms=5)
        m.add("k", 0)    # [0, 5)
        m.add("k", 4)    # merges to [0, 9); the [0, 5) entry goes stale
        assert m.expire_due(6) == []
        assert m.expire_due(10) == [("k", [Window(0, 9)])]

    def test_sessions_expired_directly_are_skipped(self):
        m = SessionMerger(gap_ms=5)
        m.add("k", 0)
        assert m.expire_before("k", 50) == [Window(0, 5)]
        assert m.expire_due(50) == []


class TestSizedCounter:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(),
                st.text(max_size=6),
                st.booleans(),
                st.tuples(st.integers(), st.text(max_size=3)),
            ),
            max_size=60,
        )
    )
    def test_state_bytes_equals_the_recursive_walk(self, keys):
        acc = SizedCounter()
        assert acc.state_bytes == default_sizer({})
        for key in keys:
            acc.increment(key)
            assert acc.state_bytes == default_sizer(dict(acc))
        assert dict(acc) == dict(Counter(keys))
        assert default_sizer(acc) == acc.state_bytes

    def test_other_mutators_are_refused(self):
        acc = SizedCounter()
        acc.increment("a")
        with pytest.raises(TypeError):
            acc["a"] = 5
        with pytest.raises(TypeError):
            acc.update({"b": 1})
        with pytest.raises(TypeError):
            acc.pop("a")
        with pytest.raises(TypeError):
            del acc["a"]
        with pytest.raises(TypeError):
            acc |= {"c": 1}
        assert acc == {"a": 1}
        assert acc.state_bytes == default_sizer({"a": 1})


def _chain_sizer(value):
    """The sizer before its exact-type tests: the isinstance chain alone.

    A faithful copy, kept as the reference the exact-type tests must
    match on every value.
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
        return 8 + sum(_chain_sizer(v) for v in value)
    if isinstance(value, dict):
        if isinstance(value, SizedCounter):
            return value.state_bytes
        return 8 + sum(_chain_sizer(k) + _chain_sizer(v) for k, v in value.items())
    return max(8, sys.getsizeof(value) // 2)


class _Int(int):
    pass


class _Str(str):
    pass


class _List(list):
    pass


class _Tuple(tuple):
    pass


def _counter(keys):
    acc = SizedCounter()
    for key in keys:
        acc.increment(key)
    return acc


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=5),
    st.binary(max_size=5),
    st.integers().map(_Int),
    st.text(max_size=5).map(_Str),
    st.builds(OpaqueKey),
    st.lists(st.integers(), max_size=4).map(_counter),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(_List),
        st.lists(inner, max_size=4).map(_Tuple),
        st.frozensets(st.integers(), max_size=4).map(set),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=12,
)


class TestSizerExactTypes:
    @settings(max_examples=400, deadline=None)
    @given(_VALUES)
    def test_sizes_every_value_as_the_isinstance_chain(self, value):
        assert default_sizer(value) == _chain_sizer(value)

    def test_subclasses_size_as_before(self):
        assert default_sizer(True) == 8
        assert default_sizer(_Str("abc")) == 3
        assert default_sizer(_List([1, 2])) == 24
        assert default_sizer(_counter(["a", "a", 7])) == 8 + (1 + 8) + (8 + 8)

    def test_a_window_sizes_as_the_pair_it_holds(self):
        # a Window is a tuple of two ints; as a frozen dataclass it was
        # sized from sys.getsizeof. Only KeyedState.size_bytes sizes one
        # (in a slot key); no access counter does.
        assert default_sizer(Window(0, 10)) == default_sizer((0, 10)) == 24
        state = KeyedState()
        state.put(("k", Window(0, 10)), 5)
        assert state.size_bytes() == (8 + 1 + 24) + 8


class TestSizeAtWrite:
    def test_read_charges_the_size_recorded_at_write(self):
        state = KeyedState()
        value = [1, 2]
        state.put("k", value)
        assert state.stats.bytes_written == 24
        assert state.get("k") is value
        assert state.stats.bytes_read == 24
        state.put("k", value + [3])
        state.get("k")
        assert state.stats.bytes_read == 24 + 32

    def test_absent_keys_charge_nothing(self):
        state = KeyedState()
        assert state.get("missing", "dflt") == "dflt"
        assert (state.stats.reads, state.stats.bytes_read) == (1, 0)

    def test_stored_none_is_a_one_byte_read(self):
        state = KeyedState()
        state.put("k", None)
        assert state.get("k", "dflt") is None
        assert state.stats.bytes_read == 1

    def test_size_bytes_sums_keys_and_recorded_value_sizes(self):
        state = KeyedState()
        state.put("ab", [1, 2])
        state.put(("x", 1), "hello")
        assert state.size_bytes() == (2 + 24) + (8 + 1 + 8 + 5)
        state.delete("ab")
        assert state.size_bytes() == 8 + 1 + 8 + 5
