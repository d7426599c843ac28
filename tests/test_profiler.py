"""Unit tests for cost profiling (paper section 5.1).

The profiler isolates each operator on its own worker and derives
per-record unit costs from measured usage; these tests check that the
derived costs recover the ground-truth operator specs.
"""

import pytest

from repro.dataflow.cluster import M5D_2XLARGE, R5D_XLARGE
from repro.controller.profiler import CostProfiler
from repro.core.cost_model import UnitCosts
from repro.workloads import q1_sliding, q2_join, q3_inf


class TestProfiler:
    def test_recovers_q1_unit_costs(self):
        profiler = CostProfiler(R5D_XLARGE, profiling_rate=200.0, duration_s=120.0)
        g = q1_sliding()
        costs = profiler.profile(g)
        win = costs[("Q1-sliding", "sliding_window")]
        spec = g.operator("sliding_window")
        assert win.cpu_per_record == pytest.approx(spec.cpu_per_record, rel=0.05)
        assert win.io_bytes_per_record == pytest.approx(
            spec.io_bytes_per_record, rel=0.05
        )
        assert win.selectivity == pytest.approx(spec.selectivity, rel=0.05)
        # the window is Q1's terminal operator: its records never cross
        # the network, so the measured emission cost is zero
        assert win.net_bytes_per_record == 0.0
        # a mid-pipeline operator's emission cost recovers its record size
        map_costs = costs[("Q1-sliding", "map")]
        map_spec = g.operator("map")
        assert map_costs.net_bytes_per_record == pytest.approx(
            map_spec.out_record_bytes, rel=0.05
        )

    def test_gc_overhead_included_in_cpu_cost(self):
        profiler = CostProfiler(M5D_2XLARGE, profiling_rate=50.0, duration_s=150.0)
        g = q3_inf()
        costs = profiler.profile(g)
        inf = costs[("Q3-inf", "inference")]
        spec = g.operator("inference")
        expected = spec.cpu_per_record * (
            1.0
            + spec.gc_spike.magnitude
            * spec.gc_spike.duration_s
            / spec.gc_spike.period_s
        )
        assert inf.cpu_per_record == pytest.approx(expected, rel=0.08)
        # profiled costs should agree with UnitCosts.from_spec
        reference = UnitCosts.from_spec(spec)
        assert inf.cpu_per_record == pytest.approx(reference.cpu_per_record, rel=0.08)

    def test_profiles_every_operator(self):
        profiler = CostProfiler(R5D_XLARGE, profiling_rate=100.0)
        g = q2_join()
        costs = profiler.profile(g)
        assert set(costs) == {("Q2-join", op) for op in g.topological_order()}

    def test_sink_has_zero_net_cost(self):
        profiler = CostProfiler(M5D_2XLARGE, profiling_rate=50.0)
        costs = profiler.profile(q3_inf())
        assert costs[("Q3-inf", "sink")].net_bytes_per_record == 0.0
        assert costs[("Q3-inf", "sink")].selectivity == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostProfiler(R5D_XLARGE, profiling_rate=0.0)
        with pytest.raises(ValueError):
            CostProfiler(R5D_XLARGE, duration_s=10.0, warmup_s=20.0)

    # Each bad value used to pass __init__: NaN and infinite durations
    # failed inside the engine, an infinite rate and a negative warmup
    # returned unit costs.
    @pytest.mark.parametrize(
        "param, value",
        [
            ("profiling_rate", float("nan")),
            ("profiling_rate", float("inf")),
            ("duration_s", float("nan")),
            ("duration_s", float("inf")),
            ("warmup_s", float("nan")),
            ("warmup_s", float("-inf")),
            ("warmup_s", -30.0),
        ],
    )
    def test_rejects_a_bad_value_naming_its_parameter(self, param, value):
        with pytest.raises(ValueError, match=param):
            CostProfiler(R5D_XLARGE, **{param: value})
