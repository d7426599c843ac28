"""Smoke tests for the fluid-vs-runtime cross-validation harness."""

import pytest

from repro.experiments.validate_runtime import (
    cross_validate,
    default_cluster,
    format_validation,
    q1_scenario,
    q2_scenario,
    q6_scenario,
)


class TestScenarios:
    def test_q1_shape(self):
        s = q1_scenario(duration_s=4.0)
        assert s.query == "q1"
        assert s.source_rates == {"source": 1200.0}
        assert s.target_rate == 1200.0
        assert len(s.template.sources[0].records) >= 4 * 1100  # ~46/50 of eps

    def test_q2_uses_both_sources(self):
        s = q2_scenario(duration_s=4.0)
        assert set(s.source_rates) == {"source_persons", "source_auctions"}
        assert s.source_rates["source_auctions"] == pytest.approx(
            3 * s.source_rates["source_persons"]
        )

    def test_q6_rate_scales(self):
        assert q6_scenario(4.0, rate_scale=2.0).target_rate == 1600.0

    def test_unknown_query_rejected(self):
        with pytest.raises(ValueError, match="unknown query"):
            cross_validate(queries=("q9",), duration_s=2.0)

    @pytest.mark.parametrize(
        "duration_s, warmup_s, name",
        [
            (4.0, -5.0, "warmup_s"),
            (4.0, float("nan"), "warmup_s"),
            (4.0, 50.0, "warmup_s"),
            (4.0, 4.0, "warmup_s"),
            (0.0, 0.0, "duration_s"),
            (float("inf"), 2.0, "duration_s"),
        ],
    )
    def test_bad_duration_or_warmup_rejected(self, duration_s, warmup_s, name):
        # a warmup at or past the end used to average each engine's
        # last sample instead of failing
        with pytest.raises(ValueError, match=name):
            cross_validate(queries=("q1",), duration_s=duration_s, warmup_s=warmup_s)


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def rows(self):
        return cross_validate(
            queries=("q1",), duration_s=6.0, warmup_s=1.0, cluster=default_cluster()
        )

    def test_q1_throughput_error_within_bound(self, rows):
        row = rows[0]
        assert row.query == "q1"
        # the DESIGN.md §12 acceptance bound for steady-state Q1
        assert row.throughput_error <= 0.10
        assert row.backpressure_error <= 0.10

    def test_throughputs_are_positive_and_near_target(self, rows):
        row = rows[0]
        assert row.fluid_throughput > 0
        assert row.runtime_throughput > 0
        assert row.fluid_throughput <= row.target_rate * 1.01

    def test_format_renders_every_row(self, rows):
        table = format_validation(rows)
        assert "q1" in table
        assert "thpt err" in table
