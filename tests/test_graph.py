"""Unit tests for the logical dataflow graph model."""

import math

import pytest

from repro.dataflow.graph import (
    GcSpikeProfile,
    GraphValidationError,
    LogicalGraph,
    OperatorSpec,
    Partitioning,
    chain_operators,
)


def simple_graph() -> LogicalGraph:
    g = LogicalGraph("g")
    g.add_operator(OperatorSpec("src", is_source=True), parallelism=2)
    g.add_operator(OperatorSpec("map", cpu_per_record=1e-5), parallelism=3)
    g.add_operator(OperatorSpec("win", io_bytes_per_record=1024.0), parallelism=4)
    g.add_edge("src", "map", Partitioning.REBALANCE)
    g.add_edge("map", "win", Partitioning.HASH)
    return g


class TestOperatorSpec:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            OperatorSpec("")

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            OperatorSpec("op", cpu_per_record=-1.0)
        with pytest.raises(ValueError):
            OperatorSpec("op", io_bytes_per_record=-1.0)
        with pytest.raises(ValueError):
            OperatorSpec("op", selectivity=-0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            OperatorSpec("op", cpu_per_record=math.inf)
        with pytest.raises(ValueError):
            OperatorSpec("op", out_record_bytes=math.nan)

    def test_net_bytes_per_record_is_selectivity_adjusted(self):
        spec = OperatorSpec("op", out_record_bytes=100.0, selectivity=0.5)
        assert spec.net_bytes_per_record == pytest.approx(50.0)

    def test_scaled_multiplies_each_dimension(self):
        spec = OperatorSpec(
            "op", cpu_per_record=1.0, io_bytes_per_record=2.0, out_record_bytes=4.0
        )
        scaled = spec.scaled(cpu=2.0, io=3.0, net=0.5)
        assert scaled.cpu_per_record == pytest.approx(2.0)
        assert scaled.io_bytes_per_record == pytest.approx(6.0)
        assert scaled.out_record_bytes == pytest.approx(2.0)
        assert scaled.name == "op"

    def test_specs_are_hashable_value_objects(self):
        a = OperatorSpec("op", cpu_per_record=1.0)
        b = OperatorSpec("op", cpu_per_record=1.0)
        assert a == b
        assert hash(a) == hash(b)


class TestGcSpikeProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            GcSpikeProfile(period_s=0.0)
        with pytest.raises(ValueError):
            GcSpikeProfile(period_s=10.0, duration_s=11.0)
        with pytest.raises(ValueError):
            GcSpikeProfile(magnitude=-1.0)

    def test_active_windows(self):
        gc = GcSpikeProfile(period_s=30.0, duration_s=5.0)
        assert gc.active(0.0)
        assert gc.active(4.9)
        assert not gc.active(5.1)
        assert gc.active(30.0)
        assert gc.active(31.0, phase_s=3.0)

    def test_phase_shifts_window(self):
        gc = GcSpikeProfile(period_s=30.0, duration_s=5.0)
        assert gc.active(0.0, phase_s=0.0)
        assert not gc.active(0.0, phase_s=10.0)
        assert gc.active(20.0, phase_s=10.0)


class TestLogicalGraphConstruction:
    def test_duplicate_operator_rejected(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("a", is_source=True))
        with pytest.raises(GraphValidationError):
            g.add_operator(OperatorSpec("a"))

    def test_edge_to_unknown_operator_rejected(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("a", is_source=True))
        with pytest.raises(GraphValidationError):
            g.add_edge("a", "missing")

    def test_duplicate_edge_rejected(self):
        g = simple_graph()
        with pytest.raises(GraphValidationError):
            g.add_edge("src", "map")

    def test_self_loop_rejected(self):
        g = simple_graph()
        with pytest.raises(ValueError):
            g.add_edge("map", "map")

    def test_parallelism_must_be_positive(self):
        g = simple_graph()
        with pytest.raises(GraphValidationError):
            g.set_parallelism("map", 0)

    def test_total_tasks(self):
        assert simple_graph().total_tasks() == 9

    def test_with_parallelism_does_not_mutate_original(self):
        g = simple_graph()
        clone = g.with_parallelism({"map": 7})
        assert clone.parallelism("map") == 7
        assert g.parallelism("map") == 3
        assert clone.parallelism("win") == 4

    def test_with_parallelism_rejects_unknown_operator(self):
        with pytest.raises(GraphValidationError, match="ghost"):
            simple_graph().with_parallelism({"ghost": 2})

    def test_job_id_defaults_to_name(self):
        assert LogicalGraph("q").job_id == "q"
        assert LogicalGraph("q", job_id="tenant-1/q").job_id == "tenant-1/q"


class TestValidation:
    def test_valid_graph_passes(self):
        simple_graph().validate()

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphValidationError):
            LogicalGraph("g").validate()

    def test_graph_without_source_rejected(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("a"))
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_source_with_upstream_rejected(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("a", is_source=True))
        g.add_operator(OperatorSpec("b", is_source=True))
        g.add_edge("a", "b")
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_unreachable_operator_rejected(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("a", is_source=True))
        g.add_operator(OperatorSpec("b"))
        g.add_operator(OperatorSpec("c"))
        g.add_edge("b", "c")
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_non_source_without_input_rejected(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("a", is_source=True))
        g.add_operator(OperatorSpec("b"))
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_cycle_rejected(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("a", is_source=True))
        g.add_operator(OperatorSpec("b"))
        g.add_operator(OperatorSpec("c"))
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "b")
        with pytest.raises(GraphValidationError):
            g.topological_order()

    def test_forward_edge_requires_equal_parallelism(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("a", is_source=True), parallelism=2)
        g.add_operator(OperatorSpec("b"), parallelism=3)
        g.add_edge("a", "b", Partitioning.FORWARD)
        with pytest.raises(GraphValidationError):
            g.validate()
        g.set_parallelism("b", 2)
        g.validate()


class TestTopologicalOrder:
    def test_linear_chain(self):
        assert simple_graph().topological_order() == ["src", "map", "win"]

    def test_diamond_is_deterministic(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("s", is_source=True))
        g.add_operator(OperatorSpec("l"))
        g.add_operator(OperatorSpec("r"))
        g.add_operator(OperatorSpec("join"))
        g.add_edge("s", "l")
        g.add_edge("s", "r")
        g.add_edge("l", "join")
        g.add_edge("r", "join")
        order = g.topological_order()
        assert order[0] == "s"
        assert order[-1] == "join"
        assert order == g.topological_order()  # stable

    def test_sources_and_sinks(self):
        g = simple_graph()
        assert g.sources() == ["src"]
        assert g.sinks() == ["win"]


class TestChaining:
    def chainable(self) -> LogicalGraph:
        g = LogicalGraph("g")
        g.add_operator(
            OperatorSpec("src", is_source=True, cpu_per_record=1e-6, selectivity=2.0),
            parallelism=2,
        )
        g.add_operator(
            OperatorSpec("map", cpu_per_record=1e-5, selectivity=0.5, out_record_bytes=64.0),
            parallelism=2,
        )
        g.add_operator(OperatorSpec("sink", cpu_per_record=1e-6), parallelism=3)
        g.add_edge("src", "map", Partitioning.FORWARD)
        g.add_edge("map", "sink", Partitioning.HASH)
        return g

    def test_chain_merges_costs_with_multiplicity(self):
        g = self.chainable()
        chained = chain_operators(g, ["src", "map"], "src+map")
        spec = chained.operator("src+map")
        # src costs 1e-6 per record; map sees 2 records per src record.
        assert spec.cpu_per_record == pytest.approx(1e-6 + 2.0 * 1e-5)
        assert spec.selectivity == pytest.approx(2.0 * 0.5)
        assert spec.out_record_bytes == pytest.approx(64.0)
        assert spec.is_source
        chained.validate()
        assert chained.parallelism("src+map") == 2

    def test_chain_rewires_downstream_edges(self):
        chained = chain_operators(self.chainable(), ["src", "map"], "sm")
        assert [e.dst for e in chained.downstream("sm")] == ["sink"]

    def test_chain_rejects_mismatched_parallelism(self):
        g = self.chainable()
        g.set_parallelism("sink", 2)
        g2 = LogicalGraph("h")
        g2.add_operator(OperatorSpec("a", is_source=True), parallelism=1)
        g2.add_operator(OperatorSpec("b"), parallelism=2)
        g2.add_edge("a", "b")
        with pytest.raises(GraphValidationError):
            chain_operators(g2, ["a", "b"], "ab")

    def test_chain_rejects_non_adjacent(self):
        g = self.chainable()
        with pytest.raises(GraphValidationError):
            chain_operators(g, ["src", "sink"], "x")

    def test_chain_rejects_escaping_edges(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("a", is_source=True))
        g.add_operator(OperatorSpec("b"))
        g.add_operator(OperatorSpec("c"))
        g.add_operator(OperatorSpec("d"))
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("b", "d")  # b is interior of a->b->c but also feeds d
        with pytest.raises(GraphValidationError):
            chain_operators(g, ["a", "b", "c"], "abc")
