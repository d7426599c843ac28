"""Tests for the sharded executor: bitwise parity with the
single-threaded executor at parallelism 1, semantic equivalence under
parallelism, backpressure under tight channel credits, and double-run
determinism."""

import pytest

from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.dataflow.physical import PhysicalGraph
from repro.observability import Tracer
from repro.placement.flink_evenly import FlinkEvenlyStrategy
from repro.runtime.operators import MapOperator
from repro.runtime.parallel import (
    PipelineTemplate,
    ShardedExecutor,
    stable_hash,
)
from repro.runtime.queries import (
    bid_sessions_template,
    hot_items_template,
    new_user_auctions_template,
)
from repro.runtime.state import StateStats
from repro.workloads.nexmark import NexmarkGenerator
from repro.workloads.queries import q1_sliding, q2_join, q6_session


@pytest.fixture(scope="module")
def events():
    stream = NexmarkGenerator(seed=11, events_per_second=500.0).take(8000)
    return {
        "persons": [r for kind, r in stream if kind == "person"],
        "auctions": [r for kind, r in stream if kind == "auction"],
        "bids": [r for kind, r in stream if kind == "bid"],
    }


def _keyed(result):
    """Comparable output projection (Record.value doesn't compare)."""
    return [(r.timestamp_ms, r.value) for r in result.outputs]


def _multiset(result):
    return sorted((r.timestamp_ms, repr(r.value)) for r in result.outputs)


def _template(query, events):
    if query == "q1":
        return hot_items_template(events["bids"])
    if query == "q2":
        return new_user_auctions_template(events["persons"], events["auctions"])
    return bid_sessions_template(events["bids"])


class TestStableHash:
    def test_deterministic_across_types(self):
        assert stable_hash("k") == stable_hash("k")
        assert stable_hash(42) == stable_hash(42)
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_spreads_keys(self):
        buckets = {stable_hash(i) % 4 for i in range(100)}
        assert len(buckets) == 4


class TestTemplateValidation:
    def test_requires_source_and_stage(self):
        with pytest.raises(ValueError):
            PipelineTemplate("t").validate()
        with pytest.raises(ValueError):
            PipelineTemplate("t").add_source([]).validate()

    def test_rejects_mismatched_factory_name(self):
        t = (
            PipelineTemplate("t")
            .add_source([])
            .then("map", lambda: MapOperator("other", lambda v: v))
        )
        with pytest.raises(ValueError):
            t.validate()

    def test_rejects_third_source_and_duplicate_stage(self):
        t = PipelineTemplate("t").add_source([], tag="a").add_source([], tag="b")
        with pytest.raises(ValueError):
            t.add_source([], tag="c")
        t2 = PipelineTemplate("t").then("m", lambda: MapOperator("m", lambda v: v))
        with pytest.raises(ValueError):
            t2.then("m", lambda: MapOperator("m", lambda v: v))

    def test_join_arity_checks(self, events):
        single = new_user_auctions_template(events["persons"], events["auctions"])
        single.sources = single.sources[:1]
        with pytest.raises(ValueError):
            single.validate()
        two_source_map = (
            PipelineTemplate("t")
            .add_source([], tag="a")
            .add_source([], tag="b")
            .then("m", lambda: MapOperator("m", lambda v: v))
        )
        with pytest.raises(ValueError):
            two_source_map.validate()


class TestDegenerateModeBitwiseParity:
    """parallelism=1, no cluster: the sharded executor must reproduce
    Pipeline.run outputs and statistics exactly, record for record —
    without a physical graph by running it, and on an all-parallelism-1
    physical graph through the slice scheduler."""

    @pytest.mark.parametrize("query", ["q1", "q2", "q6"])
    def test_outputs_and_stats_match_pipeline(self, events, query):
        template = _template(query, events)
        expected = template.build_pipeline().run()
        got = ShardedExecutor(template).run()
        assert _keyed(got) == _keyed(expected)
        assert got.records_ingested == expected.records_ingested
        for op, stats in expected.operator_stats.items():
            mine = got.operator_stats[op]
            assert (mine.records_in, mine.records_out) == (
                stats.records_in,
                stats.records_out,
            )
        for op, st in expected.state_stats.items():
            mine = got.state_stats[op]
            assert (
                mine.reads,
                mine.writes,
                mine.deletes,
                mine.bytes_read,
                mine.bytes_written,
            ) == (st.reads, st.writes, st.deletes, st.bytes_read, st.bytes_written)

    @pytest.mark.parametrize(
        "query, graph",
        [
            ("q1", q1_sliding(1, 1, 1)),
            ("q2", q2_join(1, 1, 1)),
            ("q6", q6_session(1, 1, 1)),
        ],
        ids=["q1", "q2", "q6"],
    )
    def test_physical_graph_all_par_one_is_still_exact(self, events, query, graph):
        template = _template(query, events)
        got = ShardedExecutor(
            template, physical=PhysicalGraph.expand(graph)
        ).run()
        expected = template.build_pipeline().run()
        assert _keyed(got) == _keyed(expected)
        assert got.records_ingested == expected.records_ingested
        for op, stats in expected.operator_stats.items():
            assert got.operator_stats[op] == stats
        # identity relays (Q2's maps) are stateless
        for op, stats in got.state_stats.items():
            assert stats == expected.state_stats.get(op, StateStats())


class TestShardedSemanticEquivalence:
    """parallelism>1: outputs are a permutation of the single-threaded
    reference (hash partitioning reorders across shards, never drops or
    duplicates)."""

    @pytest.mark.parametrize(
        "query, graph",
        [
            ("q1", q1_sliding(1, 2, 2)),
            ("q2", q2_join(1, 2, 3)),
            ("q6", q6_session(1, 2, 3)),
        ],
        ids=["q1x2", "q2x3", "q6x3"],
    )
    def test_multiset_equivalence(self, events, query, graph):
        template = _template(query, events)
        physical = PhysicalGraph.expand(graph)
        got = ShardedExecutor(template, physical=physical).run()
        expected = template.build_pipeline().run()
        assert _multiset(got) == _multiset(expected)
        assert got.records_ingested == expected.records_ingested

    def test_per_instance_stats_sum_to_operator_stats(self, events):
        physical = PhysicalGraph.expand(q1_sliding(1, 2, 2))
        got = ShardedExecutor(
            hot_items_template(events["bids"]), physical=physical
        ).run()
        for op, stats in got.operator_stats.items():
            per_instance = [
                s
                for uid, s in got.instance_stats.items()
                if uid.split("/")[-1].rsplit("[", 1)[0] == op
            ]
            assert sum(s.records_in for s in per_instance) == stats.records_in
            assert sum(s.records_out for s in per_instance) == stats.records_out


class TestBackpressure:
    def test_tight_credits_block_producers_but_keep_outputs(self, events):
        bids = events["bids"][:2000]
        physical = PhysicalGraph.expand(q1_sliding(1, 2, 2))
        got = ShardedExecutor(
            hot_items_template(bids), physical=physical,
            channel_capacity_records=4,
        ).run()
        expected = hot_items_template(bids).build_pipeline().run()
        assert _multiset(got) == _multiset(expected)
        blocked = sum(s.blocked_puts for s in got.channel_stats.values())
        assert blocked > 0
        for stats in got.channel_stats.values():
            # window flushes may overflow, but credit-checked puts never
            # exceed capacity by themselves
            if stats.overflow_puts == 0:
                assert stats.peak_occupancy <= 4


class TestPacedInputs:
    def _executor(self, bids, source_rates=None):
        physical = PhysicalGraph.expand(q1_sliding(1, 2, 2))
        cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(4), count=2)
        plan = FlinkEvenlyStrategy(seed=0).place_validated(physical, cluster)
        return ShardedExecutor(
            hot_items_template(bids),
            physical=physical,
            plan=plan,
            cluster=cluster,
            source_rates={"source": 460.0} if source_rates is None else source_rates,
        )

    def test_a_source_without_a_rate_is_rejected(self, events):
        with pytest.raises(ValueError, match="'source'"):
            self._executor(events["bids"], source_rates={"other": 460.0})

    @pytest.mark.parametrize("duration", [float("inf"), float("nan"), 0.0, -1.0])
    def test_duration_must_be_finite_and_positive(self, events, duration):
        # an infinite duration would pace slices forever
        executor = self._executor(events["bids"])
        with pytest.raises(ValueError, match="duration_s"):
            executor.run(duration_s=duration)
        # rejected before any slice: a valid run afterwards is a fresh one
        fresh = self._executor(events["bids"]).run(duration_s=4.0)
        assert executor.run(duration_s=4.0).summary == fresh.summary

    @pytest.mark.parametrize("warmup", [4.0, 50.0, -1.0, float("nan")])
    def test_warmup_must_lie_below_the_duration(self, events, warmup):
        # at the end, past it, negative, not a number
        with pytest.raises(ValueError, match="warmup_s"):
            self._executor(events["bids"]).run(duration_s=4.0, warmup_s=warmup)

    def test_warmup_must_lie_below_the_last_slice_end(self, events):
        bids = events["bids"][:200]
        # with no duration the run ends with the last slice that drains
        end = self._executor(bids).run().summary.duration_s
        for warmup in (end, end + 1.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="warmup_s"):
                self._executor(bids).run(warmup_s=warmup)
        summary = self._executor(bids).run(warmup_s=end - 0.05).summary
        assert summary.duration_s == pytest.approx(0.05)


class TestDoubleRunDeterminism:
    def _run_traced(self, events):
        graph = q1_sliding(1, 2, 2)
        physical = PhysicalGraph.expand(graph)
        cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(4), count=2)
        plan = FlinkEvenlyStrategy(seed=0).place_validated(physical, cluster)
        tracer = Tracer(run_id="det-check")
        result = ShardedExecutor(
            hot_items_template(events["bids"]),
            physical=physical,
            plan=plan,
            cluster=cluster,
            source_rates={"source": 460.0},
            tracer=tracer,
        ).run(duration_s=12.0, warmup_s=2.0)
        return result, tracer.to_jsonl("sim")

    def test_paced_runs_are_byte_identical(self, events):
        first, trace_a = self._run_traced(events)
        second, trace_b = self._run_traced(events)
        assert trace_a == trace_b
        assert len(trace_a) > 0
        assert _multiset(first) == _multiset(second)
        assert first.summary == second.summary

    def test_paced_summary_hits_uncontended_target(self, events):
        result, _trace = self._run_traced(events)
        assert result.summary is not None
        assert result.summary.target_rate == pytest.approx(460.0)
        # far below saturation: the sources release exactly on pace
        assert result.summary.throughput == pytest.approx(460.0)
        assert result.summary.backpressure == pytest.approx(0.0)

    def test_shard_spans_are_emitted(self, events):
        _result, trace = self._run_traced(events)
        assert '"runtime.shard"' in trace
