"""Unit tests for threshold auto-tuning (paper section 5.2)."""

import math

import pytest

from repro.dataflow.cluster import Cluster, M5D_2XLARGE, R5D_XLARGE, WorkerSpec
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.core.autotune import AutoTuneResult, ThresholdAutoTuner, precompute_thresholds
from repro.core.cost_model import CostModel, TaskCosts
from repro.core.search import CapsSearch, SearchLimits
from repro.workloads import query_by_name

SPEC = WorkerSpec(cpu_capacity=4.0, disk_bandwidth=1e8, network_bandwidth=1e9, slots=4)


def make_model(window_parallelism=4, workers=3):
    g = LogicalGraph("g")
    g.add_operator(OperatorSpec("src", is_source=True, cpu_per_record=1e-5), 2)
    g.add_operator(
        OperatorSpec(
            "win",
            cpu_per_record=5e-4,
            # heavy enough that the io dimension is performance-sensitive
            # (worst-case co-location would oversubscribe one disk)
            io_bytes_per_record=120_000.0,
            out_record_bytes=100.0,
            selectivity=0.1,
        ),
        window_parallelism,
    )
    g.add_edge("src", "win", Partitioning.HASH)
    physical = PhysicalGraph.expand(g)
    cluster = Cluster.homogeneous(SPEC, count=workers)
    costs = TaskCosts.from_specs(physical, {("g", "src"): 2000.0})
    return CostModel(physical, cluster, costs)


class TestTune:
    def test_result_is_feasible(self):
        model = make_model()
        result = ThresholdAutoTuner(model, timeout_s=10.0).tune()
        assert not result.timed_out
        search = CapsSearch(model, thresholds=result.thresholds)
        assert search.run(SearchLimits(first_satisfying=True)).found

    def test_phase1_minima_are_individually_feasible(self):
        model = make_model()
        result = ThresholdAutoTuner(model, timeout_s=10.0).tune()
        for dim in ("cpu", "io"):
            thresholds = {d: math.inf for d in ("cpu", "io", "net")}
            thresholds[dim] = result.phase1_minima[dim]
            search = CapsSearch(model, thresholds=thresholds)
            assert search.run(SearchLimits(first_satisfying=True)).found, dim

    def test_phase1_minimum_is_tight(self):
        """Shrinking a phase-1 minimum by one relaxation step makes the
        single-dimension problem infeasible (that's what minimal means)."""
        model = make_model()
        tuner = ThresholdAutoTuner(model, timeout_s=10.0)
        result = tuner.tune()
        alpha = result.phase1_minima["io"]
        if alpha > tuner.initial_alpha:  # not feasible at the very first probe
            tighter = alpha / tuner.relaxation_phase1 * 0.999
            search = CapsSearch(
                model, thresholds={"cpu": math.inf, "io": tighter, "net": math.inf}
            )
            assert not search.run(SearchLimits(first_satisfying=True)).found

    def test_joint_thresholds_at_least_phase1_minima(self):
        model = make_model()
        result = ThresholdAutoTuner(model, timeout_s=10.0).tune()
        for dim in ("cpu", "io", "net"):
            assert result.thresholds[dim] >= result.phase1_minima[dim] - 1e-12

    def test_insensitive_dimension_left_fully_relaxed(self):
        model = make_model()
        # the query's network load is tiny vs a 1 GB/s NIC
        assert "net" in model.insensitive_dimensions()
        result = ThresholdAutoTuner(model, timeout_s=10.0).tune()
        assert result.thresholds["net"] == 1.0

    def test_timeout_flag(self):
        model = make_model(window_parallelism=6, workers=4)
        result = ThresholdAutoTuner(
            model, timeout_s=1e-9, search_timeout_s=1e-9
        ).tune()
        assert result.timed_out

    def test_node_budget_of_one_truncates_probes(self):
        model = make_model()
        result = ThresholdAutoTuner(model, timeout_s=10.0, probe_max_nodes=1).tune()
        assert 0 < result.truncated_probes <= result.iterations

    def test_default_budgets_truncate_nothing(self):
        for kwargs in MODEL_PINS:
            result = ThresholdAutoTuner(make_model(**dict(kwargs)), timeout_s=10.0).tune()
            assert result.truncated_probes == 0

    def test_single_worker_is_trivially_feasible(self):
        g = LogicalGraph("g")
        g.add_operator(OperatorSpec("s", is_source=True, cpu_per_record=1e-4), 2)
        physical = PhysicalGraph.expand(g)
        cluster = Cluster.homogeneous(SPEC, count=1)
        costs = TaskCosts.from_specs(physical, {("g", "s"): 100.0})
        model = CostModel(physical, cluster, costs)
        result = ThresholdAutoTuner(model, timeout_s=5.0).tune()
        assert result.feasible


class TestValidation:
    def test_parameter_validation(self):
        model = make_model()
        with pytest.raises(ValueError):
            ThresholdAutoTuner(model, relaxation_phase1=1.0)
        with pytest.raises(ValueError):
            ThresholdAutoTuner(model, relaxation_phase2=0.9)
        with pytest.raises(ValueError):
            ThresholdAutoTuner(model, initial_alpha=0.0)
        with pytest.raises(ValueError):
            ThresholdAutoTuner(model, timeout_s=0.0)


class TestPrecompute:
    def test_precompute_covers_scenarios(self):
        """Offline precomputation over scaling scenarios (section 5.2)."""
        scenarios = [
            ("win=3", make_model(window_parallelism=3)),
            ("win=4", make_model(window_parallelism=4)),
        ]
        results = precompute_thresholds(scenarios, timeout_s=10.0)
        assert set(results) == {"win=3", "win=4"}
        for label, result in results.items():
            assert isinstance(result, AutoTuneResult)
            assert result.feasible


def preset_model(name, spec, count):
    """A preset at its default parallelism, driven at its isolation rate."""
    preset = query_by_name(name)
    g = preset.build()
    physical = PhysicalGraph.expand(g)
    cluster = Cluster.homogeneous(spec, count=count)
    costs = TaskCosts.from_specs(
        physical, {(g.job_id, op): preset.isolation_rate for op in g.sources()}
    )
    return CostModel(physical, cluster, costs)


CLUSTERS = {"m5d-4x8": (M5D_2XLARGE, 4), "r5d-8x4": (R5D_XLARGE, 8)}

#: (query, cluster) -> (thresholds, phase-1 minima), each (cpu, io, net).
#: Exact floats: the tuner walks a fixed relaxation sequence built by
#: repeated float operations, so any change to how that sequence is
#: built or searched shows here as a last-bit difference.
PRESET_PINS = {
    ("Q1-sliding", "m5d-4x8"): ((1.0, 0.0, 1.0), (1.0, 0.0, 1.0)),
    ("Q1-sliding", "r5d-8x4"): ((1.0, 0.0, 1.0), (1.0, 0.0, 1.0)),
    ("Q2-join", "m5d-4x8"): ((1.0, 0.0, 1.0), (1.0, 0.0, 1.0)),
    ("Q2-join", "r5d-8x4"): ((1.0, 0.0, 1.0), (1.0, 0.0, 1.0)),
    ("Q3-inf", "m5d-4x8"): ((0.01, 1.0, 1.0), (0.01, 1.0, 1.0)),
    ("Q3-inf", "r5d-8x4"): (
        (0.13109994191499957, 1.0, 1.0),
        (0.13109994191499957, 1.0, 1.0),
    ),
    ("Q4-join", "m5d-4x8"): (
        (0.05238428376721003, 0.14018176537727234, 1.0),
        (0.031384283767210024, 0.11918176537727232, 1.0),
    ),
    ("Q4-join", "r5d-8x4"): (
        (0.23213776745352607, 0.1024027493868399, 1.0),
        (0.21113776745352605, 0.0814027493868399, 1.0),
    ),
    ("Q5-aggregate", "m5d-4x8"): (
        (0.12770080284992943, 0.0771561, 1.0),
        (0.050544702849929436, 0.0, 1.0),
    ),
    ("Q5-aggregate", "r5d-8x4"): (
        (0.15233386435832416, 0.11435888100000002, 1.0),
        (0.03797498335832414, 0.0, 1.0),
    ),
    ("Q6-session", "m5d-4x8"): ((0.01, 0.0, 1.0), (0.01, 0.0, 1.0)),
    ("Q6-session", "r5d-8x4"): (
        (0.03797498335832414, 0.0, 1.0),
        (0.03797498335832414, 0.0, 1.0),
    ),
}

#: make_model keyword arguments -> (thresholds, phase-1 minima).
MODEL_PINS = {
    (): ((1.0, 0.25547669861876654, 1.0), (1.0, 0.25547669861876654, 1.0)),
    (("window_parallelism", 3),): ((1.0, 0.0, 1.0), (1.0, 0.0, 1.0)),
    (("window_parallelism", 6), ("workers", 4)): (
        (1.0, 0.21113776745352605, 1.0),
        (1.0, 0.21113776745352605, 1.0),
    ),
}


class TestPinnedResults:
    """``tune()`` returns exactly these floats (default budgets, no
    wall-clock pressure). Plans, explanations and the perfbench pins all
    depend on these bits, so a faster tuner must reproduce them."""

    @pytest.mark.parametrize("query,cluster", sorted(PRESET_PINS))
    def test_presets(self, query, cluster):
        spec, count = CLUSTERS[cluster]
        result = ThresholdAutoTuner(
            preset_model(query, spec, count), timeout_s=60.0
        ).tune()
        assert not result.timed_out
        thresholds, minima = PRESET_PINS[(query, cluster)]
        assert result.thresholds.as_tuple() == thresholds
        assert result.phase1_minima.as_tuple() == minima

    @pytest.mark.parametrize("kwargs", sorted(MODEL_PINS))
    def test_make_model_shapes(self, kwargs):
        result = ThresholdAutoTuner(make_model(**dict(kwargs)), timeout_s=60.0).tune()
        assert not result.timed_out
        thresholds, minima = MODEL_PINS[kwargs]
        assert result.thresholds.as_tuple() == thresholds
        assert result.phase1_minima.as_tuple() == minima
