"""Pinned state-access statistics of the runtime queries.

CAPSys profiles each operator's state-access bytes per record (paper
section 5.1); in the record runtime :class:`~repro.runtime.state.KeyedState`
measures them, and they ground the fluid model's per-record unit costs.
The literals below were captured from the runtime that re-sized every
value on each read; however state sizing is implemented, these counts
and bytes must not move by a single byte.

Every case runs the ``events`` dataset of
``tests/test_runtime_pipelines.py``.
"""

import pytest

from repro.dataflow.physical import PhysicalGraph
from repro.runtime.parallel import ShardedExecutor
from repro.runtime.queries import (
    bid_sessions_template,
    hot_items_template,
    new_user_auctions_template,
    winning_bid_averages,
)
from repro.workloads.nexmark import NexmarkGenerator
from repro.workloads.queries import q1_sliding, q2_join, q6_session


@pytest.fixture(scope="module")
def events():
    gen = NexmarkGenerator(seed=11, events_per_second=500.0)
    stream = gen.take(8000)
    return {
        "persons": [r for kind, r in stream if kind == "person"],
        "auctions": [r for kind, r in stream if kind == "auction"],
        "bids": [r for kind, r in stream if kind == "bid"],
    }


def _template(query, events):
    if query == "q1":
        return hot_items_template(events["bids"])
    if query == "q2":
        return new_user_auctions_template(events["persons"], events["auctions"])
    return bid_sessions_template(events["bids"])


def _measure(operator_stats, state_stats):
    """Per operator: (reads, writes, deletes, bytes_read, bytes_written,
    io_bytes_per_record), stateless operators left out."""
    measured = {}
    for name, st in sorted(state_stats.items()):
        if st.reads == st.writes == st.deletes == 0:
            continue
        records_in = operator_stats[name].records_in
        measured[name] = (
            st.reads,
            st.writes,
            st.deletes,
            st.bytes_read,
            st.bytes_written,
            st.io_bytes / records_in if records_in else 0.0,
        )
    return measured


def _result_stats(result):
    return _measure(result.operator_stats, result.state_stats)


def _pipeline_stats(query, events):
    return _result_stats(_template(query, events).build_pipeline().run())


def _exact_stats(query, events):
    return _result_stats(ShardedExecutor(_template(query, events)).run())


#: Q1 keyed by a constant and Q6 keyed by bidder over 2 and 3 shards.
_SEMANTIC_GRAPHS = {"q1": q1_sliding(1, 2, 2), "q6": q6_session(1, 2, 3)}

#: Every operator at parallelism 1: the slice scheduler must reproduce
#: Pipeline.run's counts.
_SINGLE_INSTANCE_GRAPHS = {
    "q1": q1_sliding(1, 1, 1),
    "q2": q2_join(1, 1, 1),
    "q6": q6_session(1, 1, 1),
}


def _scheduled(graph, query, events):
    physical = PhysicalGraph.expand(graph)
    template = _template(query, events)
    return ShardedExecutor(template, physical=physical).run()


def _semantic_stats(query, events):
    return _result_stats(_scheduled(_SEMANTIC_GRAPHS[query], query, events))


def _winning_bid_stats(events):
    _averages, stats = winning_bid_averages(events["auctions"], events["bids"])
    return _measure(stats.operator_stats, stats.state_stats)


#: (reads, writes, deletes, bytes_read, bytes_written, io_bytes_per_record)
PINNED = {
    "q1": {
        "sliding_window": (
            36812, 36800, 12, 125995504, 125995504, 34237.90869565217
        ),
    },
    "q2": {"tumbling_join": (903, 640, 336, 45332, 49780, 148.6125)},
    "q6": {"session_window": (14720, 7360, 7360, 58880, 58880, 16.0)},
}
PINNED_SEMANTIC = {
    "q1": {
        "sliding_window": (
            36812, 36800, 12, 126002608, 126002608, 34239.83913043478
        ),
    },
    "q6": {"session_window": (14169, 7360, 6809, 58880, 58880, 16.0)},
}
PINNED_WINNING_BIDS = {
    "avg_price": (565, 451, 114, 10824, 10824, 48.0),
    "seller_join": (1862, 931, 931, 31712, 31712, 68.12459720730398),
    "winning_bid": (7811, 7360, 451, 58880, 58880, 16.0),
}


@pytest.mark.parametrize("query", ["q1", "q2", "q6"])
def test_pipeline_run_state_stats_are_pinned(events, query):
    assert _pipeline_stats(query, events) == PINNED[query]


@pytest.mark.parametrize("query", ["q1", "q2", "q6"])
def test_exact_mode_state_stats_are_pinned(events, query):
    assert _exact_stats(query, events) == PINNED[query]


@pytest.mark.parametrize("query", ["q1", "q2", "q6"])
def test_single_instance_scheduler_state_stats_are_pinned(events, query):
    result = _scheduled(_SINGLE_INSTANCE_GRAPHS[query], query, events)
    assert _result_stats(result) == PINNED[query]


@pytest.mark.parametrize("query", ["q1", "q6"])
def test_semantic_mode_state_stats_are_pinned(events, query):
    assert _semantic_stats(query, events) == PINNED_SEMANTIC[query]


def test_sharded_result_reports_io_bytes_per_record(events):
    result = _scheduled(_SEMANTIC_GRAPHS["q1"], "q1", events)
    pinned = PINNED_SEMANTIC["q1"]["sliding_window"][-1]
    assert result.io_bytes_per_record("sliding_window") == pinned


def test_winning_bid_averages_state_stats_are_pinned(events):
    assert _winning_bid_stats(events) == PINNED_WINNING_BIDS
