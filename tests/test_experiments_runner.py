"""Unit tests for the experiment harness drivers."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.dataflow.physical import PhysicalGraph
from repro.experiments import (
    enumerate_all_plans,
    make_isolation_cluster,
    make_motivation_cluster,
    make_multitenant_cluster,
    make_odrp_cluster,
)
from repro.experiments.runner import (
    simulate_multi_job,
    simulate_plan,
    source_rate_map,
    source_rate_map_plain,
    strategy_box_runs,
)
from repro.placement import FlinkEvenlyStrategy
from repro.simulator.engine import SimulationConfig
from repro.workloads import q1_sliding, q2_join
from repro.workloads.rates import ConstantRate


class TestClusterPresets:
    def test_paper_cluster_shapes(self):
        assert make_motivation_cluster().total_slots == 16
        assert make_isolation_cluster().total_slots == 32
        assert make_multitenant_cluster().total_slots == 144
        assert make_odrp_cluster().total_slots == 32

    def test_preset_hardware(self):
        assert make_motivation_cluster().workers[0].spec.name == "r5d.xlarge"
        assert make_odrp_cluster().workers[0].spec.cpu_capacity == 8.0


class TestSourceRateMaps:
    def test_scalar_applies_to_all_sources(self):
        g = q2_join()
        rates = source_rate_map(g, 100.0)
        assert rates == {
            ("Q2-join", "source_persons"): 100.0,
            ("Q2-join", "source_auctions"): 100.0,
        }

    def test_mapping_selects_per_source(self):
        g = q2_join()
        rates = source_rate_map(
            g, {"source_persons": 10.0, "source_auctions": 20.0}
        )
        assert rates[("Q2-join", "source_auctions")] == 20.0

    def test_plain_coerces_patterns_disallowed(self):
        g = q1_sliding()
        rates = source_rate_map_plain(g, 123.0)
        assert rates == {("Q1-sliding", "source"): 123.0}


class TestSimulatePlan:
    def test_accepts_rate_pattern(self):
        g = q1_sliding()
        cluster = make_motivation_cluster()
        plans, _ = enumerate_all_plans(g, cluster, 5000.0)
        summary = simulate_plan(
            g, cluster, plans[0][1], ConstantRate(5000.0),
            duration_s=120, warmup_s=40,
        )
        assert summary.job_id == "Q1-sliding"
        assert summary.throughput > 0

    def test_fast_forward_keyword_overlays_config(self, monkeypatch):
        # True turns leaping on over any config; False hands the config
        # to the engine as given.
        from repro.experiments import runner

        seen = []

        def capture(*args, config=None, **kwargs):
            seen.append(config)
            return SimpleNamespace(only=None)

        monkeypatch.setattr(runner, "simulate_cached", capture)
        g = q1_sliding()
        cluster = make_motivation_cluster()
        plans, _ = enumerate_all_plans(g, cluster, 5000.0, max_plans=1)
        base = SimulationConfig(dt=0.5, fast_forward=False)
        for config, fast_forward in (
            (None, False), (None, True), (base, True), (base, False)
        ):
            simulate_plan(
                g, cluster, plans[0][1], 5000.0,
                config=config, fast_forward=fast_forward,
            )
        assert seen[0] is None
        assert seen[1] == SimulationConfig(fast_forward=True)
        assert seen[2] == dataclasses.replace(base, fast_forward=True)
        assert seen[3] is base


class TestStrategyBoxRuns:
    def test_runs_vary_seed(self):
        g = q1_sliding()
        cluster = make_motivation_cluster()
        strategy = FlinkEvenlyStrategy()
        runs = strategy_box_runs(
            g, cluster, strategy, 5000.0, runs=3, duration_s=90, warmup_s=30
        )
        assert len(runs) == 3
        # the final seed set by the harness is base_seed + runs - 1
        assert strategy.seed == 2

    def test_each_run_has_valid_plan(self):
        g = q1_sliding()
        cluster = make_motivation_cluster()
        physical = PhysicalGraph.expand(g)
        runs = strategy_box_runs(
            g, cluster, FlinkEvenlyStrategy(), 5000.0,
            runs=2, duration_s=90, warmup_s=30,
        )
        for run in runs:
            run.plan.validate(physical, cluster)
            assert run.only.target_rate == pytest.approx(5000.0)


class TestEnumerateAllPlans:
    def test_max_plans_cap(self):
        g = q1_sliding()
        cluster = make_motivation_cluster()
        plans, _ = enumerate_all_plans(g, cluster, 1000.0, max_plans=7)
        assert len(plans) == 7

    def test_plans_are_unique(self):
        g = q1_sliding()
        cluster = make_motivation_cluster()
        physical = PhysicalGraph.expand(g)
        plans, _ = enumerate_all_plans(g, cluster, 1000.0)
        signatures = {p.canonical_signature(physical) for _, p in plans}
        assert len(signatures) == len(plans)


class TestSimulateMultiJob:
    def test_two_jobs_report_separately(self):
        g1 = q1_sliding()
        g2 = q2_join()
        cluster = make_isolation_cluster()
        p1, p2 = PhysicalGraph.expand(g1), PhysicalGraph.expand(g2)
        merged = PhysicalGraph.merge([p1, p2])
        from repro.experiments.runner import place_sequentially
        plan = place_sequentially([p1, p2], cluster, FlinkEvenlyStrategy(seed=0))
        rates = {
            ("Q1-sliding", "source"): 1000.0,
            ("Q2-join", "source_persons"): 2000.0,
            ("Q2-join", "source_auctions"): 2000.0,
        }
        summaries = simulate_multi_job(
            merged, cluster, plan, rates, duration_s=120, warmup_s=40
        )
        assert set(summaries) == {"Q1-sliding", "Q2-join"}
        assert summaries["Q1-sliding"].target_rate == pytest.approx(1000.0)
        assert summaries["Q2-join"].target_rate == pytest.approx(4000.0)
