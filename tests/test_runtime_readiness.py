"""Skipping a watermark call that cannot fire changes nothing.

Both executors ask :meth:`Operator.can_fire` before each
``on_watermark`` call and skip the call when it answers False. The
window operators answer from their earliest pending window end (the
session operator from the top of its end heap, which may be stale), so
a skipped call is one that would have emitted nothing and touched no
state. The property test drives each window operator twice over the
same random stream, once with the skip and once calling
``on_watermark`` on every advance, and requires equal outputs,
operator stats and state stats. The rest checks the default rule: an
operator that overrides ``on_watermark`` without declaring readiness
is called on every advance, in ``Pipeline.run`` and in the sharded
scheduler alike.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.physical import PhysicalGraph
from repro.runtime.executor import Pipeline
from repro.runtime.operators import (
    MapOperator,
    Operator,
    Record,
    SessionWindowOperator,
    WindowAggregateOperator,
    WindowJoinOperator,
)
from repro.runtime.parallel import PipelineTemplate, ShardedExecutor
from repro.runtime.state import SizedCounter
from repro.runtime.windows import SlidingWindows, TumblingWindows
from repro.workloads.queries import q1_sliding

_END = 2**62
KEYS = (1, 2, 3, "a", ("t", 1))


def _tumbling():
    return WindowAggregateOperator(
        "tumbling",
        assigner=TumblingWindows(20),
        key_fn=lambda value: value[0],
        init_fn=lambda: 0,
        add_fn=lambda acc, _value: acc + 1,
        result_fn=lambda key, window, acc: (key, window.start_ms, acc),
    )


def _count(acc, value):
    acc.increment(value[1])
    return acc


def _sliding():
    return WindowAggregateOperator(
        "sliding",
        assigner=SlidingWindows(30, 10),
        key_fn=lambda value: value[0],
        init_fn=SizedCounter,
        add_fn=_count,
        result_fn=lambda key, window, acc: (key, window.end_ms, sorted(acc.items())),
    )


def _session():
    return SessionWindowOperator(
        "session",
        gap_ms=7,
        key_fn=lambda value: value[0],
        init_fn=list,
        add_fn=lambda acc, value: acc + [value[1]],
        result_fn=lambda key, window, acc: (key, window.start_ms, window.end_ms, acc),
    )


def _join():
    return WindowJoinOperator(
        "join",
        window_size_ms=25,
        left_key_fn=lambda value: value[0],
        right_key_fn=lambda value: value[0],
        result_fn=lambda left, right: (left, right),
    )


FACTORIES = {
    "tumbling": _tumbling,
    "sliding": _sliding,
    "session": _session,
    "join": _join,
}

#: ("record", timestamp, key, join side) or ("advance", watermark step);
#: records may be late, as the executors allow
STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.integers(0, 300),
            st.sampled_from(KEYS),
            st.sampled_from((WindowJoinOperator.LEFT, WindowJoinOperator.RIGHT)),
        ),
        st.tuples(st.just("advance"), st.integers(1, 40)),
    ),
    max_size=80,
)


def _drive(op, steps, skip):
    """Run ``steps`` through ``op``; returns outputs, stats and calls."""
    outputs = []
    calls = 0
    watermark = -1

    def advance(to):
        nonlocal calls
        if skip and not op.can_fire(to):
            return
        calls += 1
        outputs.extend(op.on_watermark(to))

    for seq, step in enumerate(steps):
        if step[0] == "record":
            _, timestamp, key, side = step
            record = Record(timestamp, (key, seq))
            if isinstance(op, WindowJoinOperator):
                outputs.extend(op.process_side(side, record))
            else:
                outputs.extend(op.process(record))
        else:
            watermark += step[1]
            advance(watermark)
    advance(_END)
    return (
        [(record.timestamp_ms, record.value) for record in outputs],
        op.stats,
        op.state_stats(),
        calls,
    )


class TestSkipIsExact:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @settings(max_examples=120, deadline=None)
    @given(steps=STEPS)
    def test_skip_equals_calling_on_every_advance(self, name, steps):
        make = FACTORIES[name]
        skipped = _drive(make(), steps, skip=True)
        every = _drive(make(), steps, skip=False)
        assert skipped[:3] == every[:3]
        assert skipped[3] <= every[3]

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_a_pending_window_is_ready_only_once_it_can_close(self, name):
        op = FACTORIES[name]()
        assert not op.can_fire(_END)  # nothing pending
        record = Record(3, ("a", 0))
        if isinstance(op, WindowJoinOperator):
            op.process_side(WindowJoinOperator.LEFT, record)
            op.process_side(WindowJoinOperator.RIGHT, record)
        else:
            op.process(record)
        # the earliest window the record opens ends at `first_end`
        # (tumbling [0, 20), sliding [-20, 10), join [0, 25)); its session
        # [3, 10) closes only once the watermark is strictly past its end
        first_end = {"tumbling": 20, "sliding": 10, "join": 25, "session": 11}[name]
        assert not op.can_fire(first_end - 1)
        assert op.can_fire(first_end)
        assert op.on_watermark(_END)
        assert not op.can_fire(_END)

    def test_stateless_operators_never_need_a_call(self):
        assert not MapOperator("m", lambda value: value).can_fire(_END)


class _Recording(Operator):
    """Overrides on_watermark without declaring readiness."""

    def __init__(self, name):
        super().__init__(name)
        self.seen = []

    def process(self, record):
        self._count_in()
        return self._emit([record])

    def on_watermark(self, watermark_ms):
        self.seen.append(watermark_ms)
        return []


class _NeverReady(_Recording):
    """Declares that no watermark can fire anything."""

    def can_fire(self, watermark_ms):
        return False


class _PatchedAggregate(WindowAggregateOperator):
    """Replaces the aggregate's on_watermark but keeps its can_fire."""

    def __init__(self, name):
        super().__init__(
            name,
            assigner=TumblingWindows(1_000),
            key_fn=lambda value: value,
            init_fn=lambda: 0,
            add_fn=lambda acc, _value: acc + 1,
            result_fn=lambda key, window, acc: (key, acc),
        )
        self.seen = []

    def on_watermark(self, watermark_ms):
        self.seen.append(watermark_ms)
        return super().on_watermark(watermark_ms)


#: timestamps with repeats, so some records do not advance event time
TIMESTAMPS = (0, 5, 5, 9, 30, 30, 31, 70)
ADVANCES = [0, 5, 9, 30, 31, 70, _END]


def _records():
    return [Record(ts, seq) for seq, ts in enumerate(TIMESTAMPS)]


class TestUndeclaredReadiness:
    def test_base_rule(self):
        assert _Recording("r").can_fire(0)
        assert not _NeverReady("n").can_fire(_END)
        # the aggregate's own readiness does not speak for a replaced
        # on_watermark: nothing is pending, yet it must be called
        assert _PatchedAggregate("p").can_fire(0)

    @pytest.mark.parametrize("cls", [_Recording, _PatchedAggregate])
    def test_pipeline_calls_it_on_every_advance(self, cls):
        op = cls("relay")
        Pipeline("p").add_source(_records()).then(op).run()
        assert op.seen == ADVANCES

    def test_pipeline_skips_an_operator_that_is_never_ready(self):
        op = _NeverReady("relay")
        result = Pipeline("p").add_source(_records()).then(op).run()
        assert op.seen == []
        assert len(result.outputs) == len(TIMESTAMPS)

    @pytest.mark.parametrize(
        "cls, advances",
        [(_Recording, ADVANCES), (_PatchedAggregate, ADVANCES), (_NeverReady, [])],
    )
    def test_sharded_scheduler_follows_the_same_rule(self, cls, advances):
        built = []

        def factory(name):
            def make():
                op = cls(name)
                built.append(op)
                return op
            return make

        template = (
            PipelineTemplate("t")
            .add_source(_records())
            .then("map", factory("map"))
            .then("sliding_window", factory("sliding_window"))
        )
        physical = PhysicalGraph.expand(q1_sliding(1, 1, 1))
        result = ShardedExecutor(template, physical=physical).run()
        # assembly also builds probe operators; the two that ran got input
        ran = [op for op in built if op.stats.records_in]
        assert len(ran) == 2
        for op in ran:
            assert op.seen == advances
        assert result.records_ingested == len(TIMESTAMPS)
