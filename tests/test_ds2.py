"""Unit tests for the DS2 scaling model."""

import pytest

from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.scaling.ds2 import DS2Controller, ScalingDecision
from repro.scaling.rates import OperatorRates


def chain_graph():
    g = LogicalGraph("job")
    g.add_operator(OperatorSpec("src", is_source=True), parallelism=2)
    g.add_operator(OperatorSpec("map", selectivity=0.5), parallelism=1)
    g.add_operator(OperatorSpec("agg", selectivity=0.1), parallelism=1)
    g.add_edge("src", "map", Partitioning.REBALANCE)
    g.add_edge("map", "agg", Partitioning.HASH)
    return g


def rates(true_map=100.0, true_agg=50.0, sel_map=0.5, sel_agg=0.1):
    def r(true_rate, sel):
        return OperatorRates(
            true_rate_per_task=true_rate,
            observed_rate=100.0,
            observed_output_rate=100.0 * sel,
            busy_fraction=0.8,
        )

    return {
        ("job", "src"): r(1e9, 1.0),
        ("job", "map"): r(true_map, sel_map),
        ("job", "agg"): r(true_agg, sel_agg),
    }


class TestDecide:
    def test_single_pass_sizing(self):
        ds2 = DS2Controller(chain_graph())
        decision = ds2.decide(rates(), {"src": 1000.0})
        # map: 1000 in / 100 per task -> 10; agg: 500 in / 50 -> 10
        assert decision.parallelism["map"] == 10
        assert decision.parallelism["agg"] == 10

    def test_selectivity_propagates(self):
        ds2 = DS2Controller(chain_graph())
        decision = ds2.decide(rates(sel_map=0.2), {"src": 1000.0})
        # agg input = 1000 * 0.2 = 200 -> 4 tasks
        assert decision.parallelism["agg"] == 4
        assert decision.target_input_rates["agg"] == pytest.approx(200.0)

    def test_source_parallelism_unchanged(self):
        ds2 = DS2Controller(chain_graph())
        decision = ds2.decide(rates(), {"src": 1000.0})
        assert decision.parallelism["src"] == 2

    def test_exact_fit_does_not_overshoot(self):
        ds2 = DS2Controller(chain_graph())
        decision = ds2.decide(rates(true_map=250.0), {"src": 1000.0})
        assert decision.parallelism["map"] == 4  # exactly 1000/250

    def test_utilisation_target_adds_headroom(self):
        ds2 = DS2Controller(chain_graph(), utilisation_target=0.5)
        decision = ds2.decide(rates(true_map=250.0), {"src": 1000.0})
        assert decision.parallelism["map"] == 8

    def test_max_parallelism_cap(self):
        ds2 = DS2Controller(chain_graph(), max_parallelism=3)
        decision = ds2.decide(rates(), {"src": 1000.0})
        assert decision.parallelism["map"] == 3

    def test_changed_flag(self):
        ds2 = DS2Controller(chain_graph())
        decision = ds2.decide(rates(), {"src": 1000.0})
        assert decision.changed
        again = ds2.decide(
            rates(), {"src": 1000.0}, current_parallelism=decision.parallelism
        )
        assert not again.changed

    def test_contention_inflates_parallelism(self):
        """Lower measured true rates (contention) -> DS2 overshoots:
        the paper's accuracy failure mechanism (section 6.4.1)."""
        ds2 = DS2Controller(chain_graph())
        clean = ds2.decide(rates(true_map=100.0), {"src": 1000.0})
        contended = ds2.decide(rates(true_map=60.0), {"src": 1000.0})
        assert contended.parallelism["map"] > clean.parallelism["map"]

    def test_missing_source_rate_raises(self):
        ds2 = DS2Controller(chain_graph())
        with pytest.raises(KeyError):
            ds2.decide(rates(), {})

    def test_starved_operator_uses_fallback_selectivity(self):
        g = chain_graph()
        ds2 = DS2Controller(g)
        starved = dict(rates())
        starved[("job", "map")] = OperatorRates(
            true_rate_per_task=100.0,
            observed_rate=0.0,
            observed_output_rate=0.0,
            busy_fraction=0.0,
        )
        decision = ds2.decide(starved, {"src": 1000.0})
        # falls back to spec selectivity 0.5 -> agg input 500
        assert decision.target_input_rates["agg"] == pytest.approx(500.0)

    def test_missing_operator_rates_fall_back_to_floor(self):
        ds2 = DS2Controller(chain_graph(), max_parallelism=7)
        decision = ds2.decide({}, {"src": 1000.0})
        assert decision.parallelism["map"] == 7  # floored true rate -> cap

    def test_total_tasks(self):
        decision = ScalingDecision(
            parallelism={"a": 2, "b": 3}, target_input_rates={}, changed=True
        )
        assert decision.total_tasks() == 5


class TestValidation:
    def test_utilisation_target_bounds(self):
        with pytest.raises(ValueError):
            DS2Controller(chain_graph(), utilisation_target=0.0)
        with pytest.raises(ValueError):
            DS2Controller(chain_graph(), utilisation_target=1.5)
