"""Control-plane chaos: grammar, view semantics, guarded runs.

Covers DESIGN.md section 11: the ``ControlChaosSchedule`` grammar and
its deterministic replay (:class:`ControlChaosView`), the guarded
adaptive loop end-to-end (rejections, deploy retry/rollback, zombie
recovery, safe mode), the unguarded ablation, byte-identical traces
with and without fast-forward, and a hypothesis sweep asserting the
controller survives arbitrary well-formed schedules.
"""

import dataclasses
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.capsys import CAPSysController, ControllerConfig
from repro.controller.guards import ROUND_OUTCOMES, GuardConfig
from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.faults import (
    CONTROL_FAULT_KINDS,
    ControlChaosSchedule,
    ControlChaosView,
    ControlFaultEvent,
)
from repro.observability import MetricRegistry, Tracer
from repro.scaling.rates import OperatorRates
from repro.simulator.engine import SimulationConfig
from repro.workloads.rates import ConstantRate, StepSchedule

CLUSTER = Cluster.homogeneous(R5D_XLARGE.with_slots(8), count=4)
FAST = ControllerConfig(
    policy_interval_s=5.0,
    activation_time_s=60.0,
    rescale_downtime_s=5.0,
    profiling_duration_s=90.0,
)


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


def counter_sum(registry, name):
    return sum(
        m["value"]
        for m in registry.snapshot()["metrics"]
        if m["name"] == name
    )


class TestGrammar:
    def test_round_trip_is_canonical(self):
        spec = (
            "metric_corrupt:opwork@100for40x50,metric_drop:opsrc@30,"
            "profile_stale:@200for60,deploy_fail:@150x2,deploy_delay:@300x12.5"
        )
        schedule = ControlChaosSchedule.parse(spec)
        assert len(schedule) == 5
        again = ControlChaosSchedule.parse(schedule.spec())
        assert again == schedule
        assert hash(again) == hash(schedule)

    def test_events_sorted_by_time_then_kind(self):
        schedule = ControlChaosSchedule.parse(
            "deploy_fail:@50,metric_drop:opwork@50,metric_drop:opwork@10"
        )
        kinds = [(e.time_s, e.kind) for e in schedule]
        assert kinds == [
            (10.0, "metric_drop"),
            (50.0, "metric_drop"),
            (50.0, "deploy_fail"),
        ]

    def test_empty_spec_is_falsy(self):
        schedule = ControlChaosSchedule.parse("")
        assert not schedule
        assert len(schedule) == 0
        assert schedule.spec() == ""

    @pytest.mark.parametrize(
        "spec",
        [
            "metric_drop:@10",  # metric kinds need an op<name> target
            "metric_drop:op@10",  # empty operator name
            "metric_drop:work@10",  # target missing the op prefix
            "bogus:opwork@10",  # unknown kind
            "metric_drop",  # no colon
            "metric_drop:opwork",  # no @<time>
            "metric_corrupt:opwork@nope",  # unparseable time
            "metric_corrupt:opwork@10forever",  # unparseable duration
            "metric_corrupt:opwork@10x",  # unparseable magnitude
            "metric_drop:opwork@-5",  # negative time
            "metric_drop:opwork@10x2",  # drop takes no magnitude
            "profile_stale:opwork@10",  # untargeted kind given a target
            "profile_stale:@10x2",  # stale takes no magnitude
            "deploy_fail:@10for5",  # deploy kinds take no window
            "deploy_fail:@10x2.5",  # failure count must be an integer
            "deploy_fail:@10x0",  # magnitude must be positive
            "deploy_delay:@10",  # delay requires x<lag>
            "deploy_delay:@10xinf",  # magnitude must be finite
            "metric_drop:opwork@nan",  # time must be finite
            "profile_stale:@10for1e400",  # duration must be finite
            "metric_drop:opwork@10,metric_drop:opwork@10",  # duplicate
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            ControlChaosSchedule.parse(spec)

    @pytest.mark.parametrize(
        "spec, offender",
        [
            ("metric_drop:opwork@10,bogus:opwork@20", "bogus:opwork@20"),
            ("deploy_fail:@10,deploy_delay:@20", "deploy_delay:@20"),
            (
                "metric_drop:opwork@10,metric_drop:opwork@10",
                "metric_drop:opwork@10",
            ),
        ],
    )
    def test_error_names_the_offending_token(self, spec, offender):
        with pytest.raises(ValueError, match=re.escape(offender)):
            ControlChaosSchedule.parse(spec)

    def test_same_time_different_kinds_allowed(self):
        schedule = ControlChaosSchedule.parse(
            "metric_drop:opwork@10,metric_corrupt:opwork@10"
        )
        assert len(schedule) == 2

    def test_event_constructor_validates(self):
        with pytest.raises(ValueError):
            ControlFaultEvent(10.0, "metric_drop")  # needs an operator
        with pytest.raises(ValueError):
            ControlFaultEvent(10.0, "deploy_fail", duration_s=5.0)
        with pytest.raises(ValueError):
            ControlFaultEvent(float("nan"), "deploy_fail")
        with pytest.raises(ValueError):
            ControlFaultEvent(10.0, "nonsense")


def make_rates(value=100.0):
    return {
        ("tiny", "work"): OperatorRates(
            true_rate_per_task=value,
            observed_rate=value,
            observed_output_rate=value,
            busy_fraction=0.5,
        )
    }


class TestViewSemantics:
    def test_one_shot_drop_consumed_at_first_observation(self):
        view = ControlChaosView(ControlChaosSchedule.parse("metric_drop:opwork@50"))
        before = view.perturb_rates(make_rates(), 40.0, "tiny")
        assert ("tiny", "work") in before
        at = view.perturb_rates(make_rates(), 55.0, "tiny")
        assert ("tiny", "work") not in at
        after = view.perturb_rates(make_rates(), 60.0, "tiny")
        assert ("tiny", "work") in after  # one-shot was consumed

    def test_corrupt_window_bites_every_observation(self):
        view = ControlChaosView(
            ControlChaosSchedule.parse("metric_corrupt:opwork@50for20")
        )
        for t in (50.0, 60.0, 70.0):
            perturbed = view.perturb_rates(make_rates(), t, "tiny")
            assert math.isnan(perturbed[("tiny", "work")].true_rate_per_task)
        clean = view.perturb_rates(make_rates(), 71.0, "tiny")
        assert clean[("tiny", "work")].true_rate_per_task == 100.0

    def test_corrupt_with_magnitude_scales_true_rate_only(self):
        view = ControlChaosView(
            ControlChaosSchedule.parse("metric_corrupt:opwork@50x4")
        )
        perturbed = view.perturb_rates(make_rates(), 50.0, "tiny")
        sample = perturbed[("tiny", "work")]
        assert sample.true_rate_per_task == 400.0
        assert sample.observed_rate == 100.0

    def test_profile_stale_freezes_last_delivered_observation(self):
        view = ControlChaosView(
            ControlChaosSchedule.parse("profile_stale:@50for20")
        )
        view.perturb_rates(make_rates(100.0), 40.0, "tiny")
        frozen = view.perturb_rates(make_rates(900.0), 55.0, "tiny")
        # The fresher (900.0) telemetry never reaches the controller.
        assert frozen[("tiny", "work")].true_rate_per_task == 100.0
        thawed = view.perturb_rates(make_rates(900.0), 75.0, "tiny")
        assert thawed[("tiny", "work")].true_rate_per_task == 900.0

    def test_corrupting_an_unknown_operator_is_a_noop(self):
        view = ControlChaosView(
            ControlChaosSchedule.parse("metric_corrupt:opnope@50for20")
        )
        perturbed = view.perturb_rates(make_rates(), 55.0, "tiny")
        assert perturbed == make_rates()

    def test_deploy_fail_budget_consumed_per_attempt(self):
        view = ControlChaosView(ControlChaosSchedule.parse("deploy_fail:@100x2"))
        assert view.deploy_attempt(50.0) == (True, 0.0)  # not armed yet
        assert view.deploy_attempt(100.0) == (False, 0.0)
        assert view.deploy_attempt(110.0) == (False, 0.0)
        assert view.deploy_attempt(120.0) == (True, 0.0)  # budget spent

    def test_deploy_delay_is_one_shot(self):
        view = ControlChaosView(ControlChaosSchedule.parse("deploy_delay:@100x15"))
        assert view.deploy_attempt(100.0) == (True, 15.0)
        assert view.deploy_attempt(110.0) == (True, 0.0)

    def test_bites_traced_and_counted_once_per_event(self):
        tracer = Tracer(run_id="view")
        registry = MetricRegistry()
        view = ControlChaosView(
            ControlChaosSchedule.parse("metric_corrupt:opwork@50for20"),
            tracer=tracer,
            registry=registry,
        )
        for t in (50.0, 60.0, 70.0):
            view.perturb_rates(make_rates(), t, "tiny")
        events = [
            r
            for r in tracer.records
            if r["name"] == "control_fault.metric_corrupt"
        ]
        assert len(events) == 1  # observed once, at first bite
        assert events[0]["args"]["armed_at_s"] == 50.0
        assert (
            counter_value(
                registry, "control_faults_injected_total", kind="metric_corrupt"
            )
            == 1.0
        )
        assert len(view.applied) == 3  # but every bite is recorded


class TestGuardedRun:
    #: Saturates the watchdog fast: a long NaN window rejects every
    #: sample of the corrupted operator for many consecutive rounds.
    NAN_WINDOW = ControlChaosSchedule.parse("metric_corrupt:opwork@70for60")

    def run_guarded(self, schedule, duration_s=220.0, config=FAST):
        tracer = Tracer(run_id="guarded")
        registry = MetricRegistry()
        ctl = CAPSysController(
            tiny_query(), CLUSTER, config=config, tracer=tracer, registry=registry
        )
        result = ctl.run_adaptive(
            {"src": ConstantRate(2000.0)},
            duration_s=duration_s,
            control_chaos=schedule,
        )
        return result, ctl, tracer, registry

    def test_nan_window_rejected_and_safe_mode_entered(self):
        result, ctl, tracer, registry = self.run_guarded(self.NAN_WINDOW)
        guard = ctl.last_guard
        assert guard is not None
        assert (
            counter_value(
                registry, "controller_guard_rejections_total", reason="non_finite"
            )
            > 0
        )
        assert guard.safe_mode_entries >= 1
        assert counter_value(registry, "controller_safe_mode_total") >= 1
        spans = [
            r
            for r in tracer.records
            if r["clock"] == "sim" and r["name"] == "controller.safe_mode"
        ]
        assert spans, "safe-mode span must be visible in the trace"
        # The engine itself was never touched: the run keeps meeting its
        # target right through the telemetry fault.
        tail = [s for s in result.samples if s.time_s > 150.0]
        assert any(s.throughput >= 0.95 * s.target_rate for s in tail)

    def test_round_accounting_reconciles(self):
        _, ctl, _, registry = self.run_guarded(self.NAN_WINDOW)
        guard = ctl.last_guard
        assert set(guard.rounds) == set(ROUND_OUTCOMES)
        for outcome in ROUND_OUTCOMES:
            assert guard.rounds[outcome] == counter_value(
                registry, "controller_rounds_total", outcome=outcome
            )
        assert guard.total_rejections == counter_sum(
            registry, "controller_guard_rejections_total"
        )

    def test_guard_verdict_lands_in_explanation(self):
        config = dataclasses.replace(FAST, diagnose=True)
        _, ctl, _, _ = self.run_guarded(self.NAN_WINDOW, config=config)
        assert ctl.last_explanation is not None
        assert ctl.last_explanation.guard_verdict in (
            "clean",
            "rejected",
            "safe_mode",
        )
        assert "guard=" in ctl.last_explanation.format_text()

    def test_deploy_failures_retried_with_backoff(self):
        # The rate step at t=100 forces a DS2 rescale; the armed budget
        # fails the redeploy twice, the second retry lands it.
        schedule = ControlChaosSchedule.parse("deploy_fail:@0x2")
        step = StepSchedule(((0.0, 2000.0), (100.0, 6000.0)))
        tracer = Tracer(run_id="retry")
        registry = MetricRegistry()
        ctl = CAPSysController(
            tiny_query(), CLUSTER, config=FAST, tracer=tracer, registry=registry
        )
        result = ctl.run_adaptive(
            {"src": step}, duration_s=250.0, control_chaos=schedule
        )
        assert counter_value(registry, "controller_deploy_failures_total") == 2.0
        assert counter_value(registry, "controller_deploy_retries_total") == 2.0
        assert counter_value(registry, "controller_rollbacks_total") == 0.0
        retries = [
            r for r in tracer.records if r["name"] == "controller.deploy.retry"
        ]
        assert [r["args"]["attempt"] for r in retries] == [1, 2]
        # Exponential backoff: the second retry pays double the first.
        assert retries[1]["args"]["backoff_s"] == pytest.approx(
            2.0 * retries[0]["args"]["backoff_s"]
        )
        # The deploy eventually lands and the job reaches the new target.
        tail = [s for s in result.samples if s.time_s > 200.0]
        assert any(s.throughput >= 0.95 * 6000.0 for s in tail)

    def test_exhausted_retries_roll_back_then_zombie_recovers(self):
        # 4 armed failures swallow the attempt, both retries, and the
        # rollback attempt: terminal failure. The guard knows the engine
        # is down and force-redeploys at the next un-gated round.
        schedule = ControlChaosSchedule.parse("deploy_fail:@0x4")
        step = StepSchedule(((0.0, 2000.0), (100.0, 6000.0)))
        registry = MetricRegistry()
        ctl = CAPSysController(
            tiny_query(), CLUSTER, config=FAST, registry=registry
        )
        result = ctl.run_adaptive(
            {"src": step}, duration_s=300.0, control_chaos=schedule
        )
        assert counter_value(registry, "controller_rollbacks_total") == 1.0
        assert counter_value(registry, "controller_deploy_failures_total") == 4.0
        recoveries = [
            e for e in result.events if e.reason == "recover:deploy_failed"
        ]
        assert len(recoveries) == 1
        # After the forced recovery redeploy the job is live again.
        tail = [s for s in result.samples if s.time_s > recoveries[0].time_s + 30.0]
        assert any(s.throughput > 0.0 for s in tail)

    def test_unguarded_deploy_failure_goes_undetected(self):
        # Ablation: guards off, the controller believes the failed
        # redeploy succeeded — the job is a zombie (zero throughput,
        # full backpressure) and nothing recovers it.
        schedule = ControlChaosSchedule.parse("deploy_fail:@0x1")
        step = StepSchedule(((0.0, 2000.0), (100.0, 6000.0)))
        config = dataclasses.replace(FAST, guards=GuardConfig(enabled=False))
        ctl = CAPSysController(tiny_query(), CLUSTER, config=config)
        result = ctl.run_adaptive(
            {"src": step}, duration_s=250.0, control_chaos=schedule
        )
        assert ctl.last_guard is None
        rescale_t = min(
            e.time_s for e in result.events if e.reason.startswith("ds2")
        )
        tail = [s for s in result.samples if s.time_s > rescale_t + 30.0]
        assert tail
        assert all(s.throughput == 0.0 for s in tail)
        assert all(s.backpressure == 1.0 for s in tail)


class TestControlChaosDeterminism:
    SCHEDULE = ControlChaosSchedule.parse(
        "metric_corrupt:opwork@70for60,deploy_fail:@0x2,deploy_delay:@150x10"
    )

    def sim_trace(self, config):
        tracer = Tracer(run_id="det")
        ctl = CAPSysController(
            tiny_query(), CLUSTER, config=config, tracer=tracer
        )
        ctl.run_adaptive(
            {"src": StepSchedule(((0.0, 2000.0), (100.0, 6000.0)))},
            duration_s=250.0,
            control_chaos=ControlChaosSchedule.parse(self.SCHEDULE.spec()),
        )
        return [r for r in tracer.records if r["clock"] == "sim"]

    @staticmethod
    def control_plane(records):
        """Controller-domain records, stripped of the stream position.

        Fast-forward legitimately changes *engine* records (leap events
        replace per-tick counters), which shifts the interleaved ``seq``
        numbers; everything the control plane emits must survive
        byte-identical.
        """
        return [
            {k: v for k, v in r.items() if k != "seq"}
            for r in records
            if r["cat"] in ("controller", "control_fault")
        ]

    def test_identical_runs_produce_identical_traces(self):
        assert self.sim_trace(FAST) == self.sim_trace(FAST)

    def test_fast_forward_preserves_the_control_plane_trace(self):
        reference = dataclasses.replace(
            FAST, sim=SimulationConfig(fast_forward=False)
        )
        fast = self.sim_trace(FAST)
        assert any(r["name"] == "engine.leap" for r in fast)
        assert self.control_plane(
            self.sim_trace(reference)
        ) == self.control_plane(fast)


# ---------------------------------------------------------------------------
# Property sweep: arbitrary well-formed schedules never break the loop.
# ---------------------------------------------------------------------------
@st.composite
def control_events(draw):
    kind = draw(st.sampled_from(CONTROL_FAULT_KINDS))
    time_s = float(draw(st.integers(min_value=0, max_value=140)))
    operator = (
        draw(st.sampled_from(["src", "work", "ghost"]))
        if kind in ("metric_drop", "metric_corrupt")
        else None
    )
    duration_s = 0.0
    if kind in ("metric_drop", "metric_corrupt", "profile_stale"):
        duration_s = float(draw(st.integers(min_value=0, max_value=60)))
    magnitude = None
    if kind == "metric_corrupt":
        magnitude = draw(
            st.sampled_from([None, 0.01, 0.5, 4.0, 50.0, 1e6])
        )
    elif kind == "deploy_fail":
        magnitude = draw(st.sampled_from([None, 1.0, 3.0, 8.0]))
    elif kind == "deploy_delay":
        magnitude = float(draw(st.integers(min_value=1, max_value=30)))
    return ControlFaultEvent(
        time_s=time_s,
        kind=kind,
        operator=operator,
        duration_s=duration_s,
        magnitude=magnitude,
    )


@settings(max_examples=12, deadline=None)
@given(st.lists(control_events(), min_size=1, max_size=5))
def test_controller_survives_arbitrary_control_chaos(events):
    schedule = ControlChaosSchedule(events)
    registry = MetricRegistry()
    ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST, registry=registry)
    result = ctl.run_adaptive(
        {"src": ConstantRate(2000.0)},
        duration_s=160.0,
        control_chaos=schedule,
    )
    # The run always covers the full duration and the guard's round
    # ledger reconciles with the exported counters.
    assert result.samples[-1].time_s >= 150.0
    guard = ctl.last_guard
    assert guard is not None
    assert set(guard.rounds) == set(ROUND_OUTCOMES)
    for outcome in ROUND_OUTCOMES:
        assert guard.rounds[outcome] == counter_value(
            registry, "controller_rounds_total", outcome=outcome
        )
    assert sum(guard.rounds.values()) == counter_sum(
        registry, "controller_rounds_total"
    )
    assert guard.total_rejections == counter_sum(
        registry, "controller_guard_rejections_total"
    )
