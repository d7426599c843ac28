"""Unit tests for the control-plane guard pipeline (DESIGN.md §11).

Exercises :class:`ControlPlaneGuard` in isolation — verdict ordering,
last-known-good substitution, staleness quarantine, watchdog/safe-mode
transitions — plus the satellite hardening that rides along: config
validation (:class:`GuardConfig`, :class:`ControllerConfig`) and
recovery downtime edge cases.
"""

import math

import pytest

from repro.controller.capsys import (
    AdaptiveRunResult,
    CAPSysController,
    ControllerConfig,
)
from repro.controller.guards import (
    ROUND_OUTCOMES,
    ControlPlaneGuard,
    GuardConfig,
)
from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.diagnosis.explain import Explanation
from repro.faults import ChaosSchedule, CheckpointConfig
from repro.observability import MetricRegistry, Tracer
from repro.scaling.rates import OperatorRates
from repro.workloads.rates import ConstantRate

CLUSTER = Cluster.homogeneous(R5D_XLARGE.with_slots(8), count=4)
FAST = ControllerConfig(
    policy_interval_s=5.0,
    activation_time_s=60.0,
    rescale_downtime_s=5.0,
    profiling_duration_s=90.0,
)

KEY = ("tiny", "work")


def tiny_query():
    g = LogicalGraph("tiny")
    g.add_operator(OperatorSpec("src", is_source=True, cpu_per_record=1e-6), 1)
    g.add_operator(
        OperatorSpec("work", cpu_per_record=1e-3, out_record_bytes=100.0), 1
    )
    g.add_edge("src", "work", Partitioning.REBALANCE)
    return g


def counter_value(registry, name, **labels):
    for m in registry.snapshot()["metrics"]:
        if m["name"] == name and dict(m["labels"]) == labels:
            return m["value"]
    return 0.0


def sample(true_rate, observed=None, busy=0.5):
    observed = true_rate if observed is None else observed
    return OperatorRates(
        true_rate_per_task=true_rate,
        observed_rate=observed,
        observed_output_rate=observed,
        busy_fraction=busy,
    )


def make_guard(config=None, reference=None, tracer=None, registry=None):
    if reference is None:
        reference = {KEY: sample(100.0)}
    return ControlPlaneGuard(
        config or GuardConfig(), reference, tracer=tracer, registry=registry
    )


class TestGuardConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_rate_factor": float("nan")},
            {"max_rate_factor": 0.0},
            {"outlier_zscore": float("inf")},
            {"outlier_ratio": 1.0},
            {"history_window": 1},
            {"staleness_budget_rounds": 0},
            {"deploy_retry_limit": -1},
            {"deploy_backoff_s": -2.0},
            {"deploy_backoff_factor": 0.5},
            {"watchdog_rounds": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GuardConfig(**kwargs)

    def test_defaults_are_valid(self):
        GuardConfig()

    def test_retry_backoff_is_exponential(self):
        guard = make_guard(GuardConfig(deploy_backoff_s=2.0, deploy_backoff_factor=2.0))
        assert guard.retry_backoff_s(1) == 2.0
        assert guard.retry_backoff_s(2) == 4.0
        assert guard.retry_backoff_s(3) == 8.0


class TestVerdicts:
    def screen(self, guard, s, t=0.0):
        cleaned = guard.validate_rates({KEY: s}, [KEY], t)
        return cleaned[KEY]

    def test_non_finite_rejected(self):
        guard = make_guard()
        out = self.screen(guard, sample(float("nan")))
        assert math.isfinite(out.true_rate_per_task)
        assert guard.rejections_this_round == 1

    def test_non_finite_wins_over_negative(self):
        # A sample that is both non-finite and negative reports the
        # stronger verdict.
        registry = MetricRegistry()
        guard = make_guard(registry=registry)
        bad = OperatorRates(
            true_rate_per_task=-5.0,
            observed_rate=float("inf"),
            observed_output_rate=1.0,
            busy_fraction=0.5,
        )
        self.screen(guard, bad)
        assert (
            counter_value(
                registry, "controller_guard_rejections_total", reason="non_finite"
            )
            == 1.0
        )

    def test_negative_rejected(self):
        registry = MetricRegistry()
        guard = make_guard(registry=registry)
        self.screen(guard, sample(-1.0))
        assert (
            counter_value(
                registry, "controller_guard_rejections_total", reason="negative"
            )
            == 1.0
        )

    def test_impossible_rate_rejected_against_reference(self):
        registry = MetricRegistry()
        guard = make_guard(registry=registry)  # reference true rate 100
        self.screen(guard, sample(100.0 * 8.0 + 1.0))
        assert (
            counter_value(
                registry,
                "controller_guard_rejections_total",
                reason="impossible_rate",
            )
            == 1.0
        )
        # Contended rates are *lower* than the uncontended reference;
        # a plausible sample sails through.
        assert self.screen(guard, sample(60.0)).true_rate_per_task == 60.0

    def test_outlier_needs_history_and_a_wild_ratio(self):
        registry = MetricRegistry()
        guard = make_guard(registry=registry)
        for v in (49.0, 50.0, 51.0):
            assert self.screen(guard, sample(v)).true_rate_per_task == v
        # 700 is under the physical ceiling (800) but 14x the accepted
        # median: rejected as an outlier, substituted by the last good.
        out = self.screen(guard, sample(700.0))
        assert out.true_rate_per_task == 51.0
        assert (
            counter_value(
                registry, "controller_guard_rejections_total", reason="outlier"
            )
            == 1.0
        )
        # A merely-drifting sample (2.4x median) is legitimate load
        # movement and is accepted.
        assert self.screen(guard, sample(120.0)).true_rate_per_task == 120.0

    def test_missing_key_substituted_from_reference(self):
        guard = make_guard()
        cleaned = guard.validate_rates({}, [KEY], 0.0)
        assert cleaned[KEY].true_rate_per_task == 100.0  # reference

    def test_substitution_prefers_last_known_good(self):
        guard = make_guard()
        self.screen(guard, sample(42.0))
        out = self.screen(guard, sample(float("nan")))
        assert out.true_rate_per_task == 42.0

    def test_neutral_substitute_without_any_basis(self):
        guard = make_guard(reference={})
        cleaned = guard.validate_rates({}, [KEY], 0.0)
        assert cleaned[KEY].true_rate_per_task == 1.0

    def test_reset_history_disarms_outlier_test_but_keeps_last_good(self):
        guard = make_guard()
        for v in (49.0, 50.0, 51.0):
            self.screen(guard, sample(v))
        guard.reset_history()
        # 700 would be an outlier against the old history; with the
        # history forgotten (new contention regime) it is accepted.
        assert self.screen(guard, sample(700.0)).true_rate_per_task == 700.0

    def test_plan_rejection_counted(self):
        registry = MetricRegistry()
        guard = make_guard(registry=registry)
        guard.plan_rejected()
        assert (
            counter_value(
                registry, "controller_guard_rejections_total", reason="plan"
            )
            == 1.0
        )
        assert guard.rejections_this_round == 1


class TestStalenessQuarantine:
    def test_budget_exhaustion_quarantines_telemetry(self):
        guard = make_guard(GuardConfig(staleness_budget_rounds=3))
        for t in (0.0, 5.0):
            guard.validate_rates({KEY: sample(float("nan"))}, [KEY], t)
            assert not guard.telemetry_quarantined
        guard.validate_rates({KEY: sample(float("nan"))}, [KEY], 10.0)
        assert guard.telemetry_quarantined
        assert guard.holds_decisions

    def test_fresh_accepted_sample_clears_quarantine(self):
        guard = make_guard(GuardConfig(staleness_budget_rounds=2))
        for t in (0.0, 5.0):
            guard.validate_rates({}, [KEY], t)  # missing counts too
        assert guard.telemetry_quarantined
        guard.validate_rates({KEY: sample(50.0)}, [KEY], 10.0)
        assert not guard.telemetry_quarantined


class TestWatchdog:
    CFG = GuardConfig(watchdog_rounds=2, staleness_budget_rounds=99)

    def failed_round(self, guard, t):
        guard.validate_rates({KEY: sample(float("nan"))}, [KEY], t)
        guard.record_round(t, "suppressed", observed=True)

    def clean_round(self, guard, t):
        guard.validate_rates({KEY: sample(50.0)}, [KEY], t)
        guard.record_round(t, "deploy", observed=True)

    def test_streak_enters_safe_mode_and_clean_round_exits(self):
        tracer = Tracer(run_id="watchdog")
        registry = MetricRegistry()
        guard = make_guard(self.CFG, tracer=tracer, registry=registry)
        self.failed_round(guard, 0.0)
        assert not guard.safe_mode
        self.failed_round(guard, 5.0)
        assert guard.safe_mode
        assert guard.safe_mode_entries == 1
        assert counter_value(registry, "controller_safe_mode_total") == 1.0
        self.clean_round(guard, 10.0)
        assert not guard.safe_mode
        spans = [
            r for r in tracer.records if r["name"] == "controller.safe_mode"
        ]
        assert len(spans) == 1
        assert spans[0]["t"] == 5.0
        assert spans[0]["dur"] == 5.0

    def test_gated_rounds_carry_no_watchdog_evidence(self):
        guard = make_guard(self.CFG)
        self.failed_round(guard, 0.0)
        # Many gated (unobserved) rounds in between: the streak must
        # neither grow nor reset.
        for t in (5.0, 10.0, 15.0):
            guard.record_round(t, "suppressed", observed=False)
        assert guard.failed_streak == 1
        self.failed_round(guard, 20.0)
        assert guard.safe_mode

    def test_deploy_failure_feeds_the_streak(self):
        guard = make_guard(self.CFG)
        for t in (0.0, 5.0):
            guard.validate_rates({KEY: sample(50.0)}, [KEY], t)
            guard.deploy_failed_this_round = True
            guard.record_round(t, "deploy", observed=True)
        assert guard.safe_mode

    def test_finish_flushes_open_span_but_keeps_state(self):
        tracer = Tracer(run_id="watchdog")
        guard = make_guard(self.CFG, tracer=tracer)
        self.failed_round(guard, 0.0)
        self.failed_round(guard, 5.0)
        guard.finish(30.0)
        assert guard.safe_mode  # state survives; only the span closed
        spans = [
            r for r in tracer.records if r["name"] == "controller.safe_mode"
        ]
        assert len(spans) == 1
        assert spans[0]["dur"] == 25.0

    def test_unknown_outcome_rejected(self):
        guard = make_guard()
        with pytest.raises(ValueError, match="exploded"):
            guard.record_round(0.0, "exploded", observed=True)
        assert set(ROUND_OUTCOMES) == {"deploy", "suppressed", "safe_mode"}

    def test_verdict_reflects_current_round(self):
        guard = make_guard(self.CFG)
        assert guard.verdict == "clean"
        guard.validate_rates({KEY: sample(float("nan"))}, [KEY], 0.0)
        assert guard.verdict == "rejected"
        self.failed_round(guard, 5.0)
        self.failed_round(guard, 10.0)
        assert guard.verdict == "safe_mode"


class TestControllerConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy_interval_s": float("nan")},
            {"activation_time_s": float("inf")},
            {"rescale_downtime_s": float("nan")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)

    def test_error_names_the_field(self):
        with pytest.raises(ValueError, match="profiling_duration_s"):
            ControllerConfig(profiling_duration_s=float("nan"))


class TestExplanationGuardVerdict:
    def make(self):
        return Explanation(
            trigger="ds2",
            chosen="search",
            fallback_stage=None,
            weighted_cost=1.0,
            runner_up=None,
            runner_up_cost=None,
        )

    def test_verdict_absent_by_default(self):
        # Pre-guard traces must stay byte-identical: no key at all
        # unless the controller attached a verdict.
        assert "guard_verdict" not in self.make().to_args()

    def test_with_guard_verdict_round_trips(self):
        explained = self.make().with_guard_verdict("safe_mode")
        assert explained.guard_verdict == "safe_mode"
        assert explained.to_args()["guard_verdict"] == "safe_mode"
        assert "guard=safe_mode" in explained.format_text()


class TestDowntimeEdges:
    def test_crash_at_time_zero_survives(self):
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST)
        chaos = ChaosSchedule.parse("crash:w1@0")
        result = ctl.run_adaptive(
            {"src": ConstantRate(2000.0)}, duration_s=150.0, chaos=chaos
        )
        crash = [e for e in result.events if e.reason == "fault:crash:w1"]
        assert len(crash) == 1
        assert crash[0].time_s == 0.0
        times = [s.time_s for s in result.samples]
        assert all(t >= 0.0 for t in times)
        assert times == sorted(times)
        assert result.samples[-1].time_s >= 145.0

    def test_checkpoint_exactly_on_fault_tick_replays_nothing(self):
        config = ControllerConfig(
            policy_interval_s=5.0,
            activation_time_s=60.0,
            rescale_downtime_s=5.0,
            profiling_duration_s=90.0,
            checkpoint=CheckpointConfig(
                enabled=True,
                interval_s=30.0,
                restore_bandwidth_bytes_per_s=1e6,
            ),
        )
        ctl = CAPSysController(tiny_query(), CLUSTER, config=config)
        dep = ctl.deploy({"src": 2000.0})
        wid = dep.engine.cluster.workers[0].worker_id

        # Checkpoints land on the tick that crosses their boundary.
        dep.engine.run_until(91.0)
        assert dep.engine.last_checkpoint_s == 90.0
        just_after = ctl._recovery_downtime(dep, wid)

        dep.engine.run_until(119.0)
        just_before = ctl._recovery_downtime(dep, wid)

        # A fault tick that coincides with the next checkpoint resets
        # the replay clock: downtime drops back towards the restart
        # floor instead of carrying the full interval's replay.
        dep.engine.run_until(121.0)
        assert dep.engine.last_checkpoint_s == 120.0
        on_tick = ctl._recovery_downtime(dep, wid)

        assert config.rescale_downtime_s <= just_after < just_before
        assert on_tick < just_before

    def test_zero_downtime_appends_no_samples(self):
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST)
        result = AdaptiveRunResult()
        now = ctl._apply_downtime(
            result,
            100.0,
            {"src": ConstantRate(2000.0)},
            {"src": 1, "work": 1},
            downtime_s=0.0,
        )
        assert now == 100.0
        assert result.samples == []

    def test_sub_step_downtime_rounds_to_whole_steps(self):
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST)
        result = AdaptiveRunResult()
        dt = FAST.sim.dt
        now = ctl._apply_downtime(
            result,
            100.0,
            {"src": ConstantRate(2000.0)},
            {"src": 1, "work": 1},
            downtime_s=0.4 * dt,
        )
        # Less than half a simulation step rounds down to none at all —
        # the clock never advances by a partial step.
        assert now == 100.0
        assert result.samples == []

    def test_back_to_back_downtimes_never_overlap(self):
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST)
        result = AdaptiveRunResult()
        patterns = {"src": ConstantRate(2000.0)}
        par = {"src": 1, "work": 1}
        t1 = ctl._apply_downtime(result, 100.0, patterns, par)
        t2 = ctl._apply_downtime(result, t1, patterns, par)
        assert t1 == 100.0 + FAST.rescale_downtime_s
        assert t2 == t1 + FAST.rescale_downtime_s
        times = [s.time_s for s in result.samples]
        assert times == sorted(times)
        assert len(times) == len(set(times)), "no double-counted downtime sample"
        assert all(s.throughput == 0.0 and s.backpressure == 1.0 for s in result.samples)
