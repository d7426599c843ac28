"""Unit tests for the calibration-sensitivity sweep helpers."""

import pytest

from repro.experiments import make_motivation_cluster
from repro.experiments.runner import plan_with_colocation
from repro.experiments.sweeps import (
    SweepPoint,
    default_coefficient_grid,
    sweep_colocation_penalty,
)
from repro.simulator.contention import ContentionConfig
from repro.workloads import q2_join


class TestSweepPoint:
    def test_penalty(self):
        point = SweepPoint("x", ContentionConfig(), 100.0, 80.0)
        assert point.penalty == pytest.approx(0.2)
        assert point.ordering_holds

    def test_zero_balanced_throughput(self):
        point = SweepPoint("x", ContentionConfig(), 0.0, 0.0)
        assert point.penalty == 0.0


class TestGrid:
    def test_grid_scales_coefficients(self):
        grid = default_coefficient_grid()
        assert [label for label, _ in grid] == ["x0.5", "x1", "x2"]
        base = ContentionConfig()
        assert grid[0][1].gamma_compaction == pytest.approx(
            base.gamma_compaction * 0.5
        )
        assert grid[2][1].cpu_thread_penalty == pytest.approx(
            base.cpu_thread_penalty * 2.0
        )


class TestSweep:
    def test_sweep_runs_each_config(self):
        cluster = make_motivation_cluster()
        graph = q2_join()
        balanced = plan_with_colocation(graph, cluster, ["tumbling_join"], 2)
        piled = plan_with_colocation(graph, cluster, ["tumbling_join"], 4)
        grid = default_coefficient_grid()[:2]
        points = sweep_colocation_penalty(
            graph, cluster, balanced, piled, rate=55_000.0,
            configs=grid, duration_s=120, warmup_s=40,
        )
        assert len(points) == 2
        for point in points:
            assert point.balanced_throughput > 0
            assert point.ordering_holds

