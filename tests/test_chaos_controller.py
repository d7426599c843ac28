"""Degraded-mode controller behaviour under injected faults.

Covers the controller side of DESIGN.md section 8: forced replans on
structural faults, the placement fallback chain (search -> greedy
best-so-far -> evenly), checkpoint-aware recovery downtime, the
activation gate that suppresses replans after a rescale, and the
downtime samples a rescale writes into the timeline.
"""

import pytest

from repro.controller.capsys import CAPSysController, ControllerConfig
from repro.core.cost_model import CostVector
from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.faults import (
    ChaosSchedule,
    CheckpointConfig,
    ClusterHealth,
    ControlChaosSchedule,
    FaultEvent,
)
from repro.observability import MetricRegistry, Tracer
from repro.placement.caps import CapsStrategy
from repro.simulator.engine import FluidSimulation
from repro.simulator.metrics import MetricsCollector
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


class TestForcedReplan:
    def test_crash_forces_fault_rescale_off_dead_worker(self):
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST)
        chaos = ChaosSchedule.parse("crash:w1@100")
        result = ctl.run_adaptive(
            {"src": ConstantRate(2000.0)}, duration_s=200.0, chaos=chaos
        )
        fault_events = [
            e for e in result.events if e.reason.startswith("fault:crash")
        ]
        assert len(fault_events) == 1
        assert fault_events[0].time_s == pytest.approx(100.0, abs=1.0)
        assert fault_events[0].reason == "fault:crash:w1"
        # The run survives the crash: samples cover the full duration
        # and the job comes back to its target after the replan.
        assert result.samples[-1].time_s >= 195.0
        tail = [s for s in result.samples if s.time_s > 150.0]
        assert any(s.throughput >= 0.95 * s.target_rate for s in tail)

    def test_worker_outside_the_cluster_rejected_before_deploying(
        self, monkeypatch
    ):
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST)

        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before rejecting the schedule")

        monkeypatch.setattr(ctl, "profile", must_not_run)
        monkeypatch.setattr(ctl, "deploy", must_not_run)
        with pytest.raises(KeyError, match="crash:w9@100"):
            ctl.run_adaptive(
                {"src": ConstantRate(2000.0)},
                duration_s=200.0,
                chaos=ChaosSchedule.parse("crash:w1@50,crash:w9@100"),
            )

    def test_deploy_with_health_avoids_dead_worker(self):
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST)
        health = ClusterHealth(CLUSTER)
        health.apply(FaultEvent(0.0, "crash", 2))
        dep = ctl.deploy({"src": 2000.0}, health=health)
        assert dep.plan.tasks_on(2) == []
        assert all(w.worker_id != 2 for w in dep.engine.cluster.workers)

    def test_recover_triggers_opportunistic_replan(self):
        tracer = Tracer(run_id="recover")
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST, tracer=tracer)
        chaos = ChaosSchedule.parse("crash:w1@100,recover:w1@150")
        result = ctl.run_adaptive(
            {"src": ConstantRate(2000.0)}, duration_s=250.0, chaos=chaos
        )
        reasons = [e.reason for e in result.events]
        assert "fault:crash:w1" in reasons
        sim = tracer.stream("sim")
        downtime = [
            (r["t"], r["t"] + r["dur"])
            for r in sim
            if r["name"] == "controller.rescale.downtime"
        ]
        assert downtime[0] == (100.0, 105.0)
        # The recovery is not plan-invalidating, so it rides the first
        # policy tick the activation gate lets through, 60 s after the
        # crash rescale's downtime ends, instead of interrupting the run.
        recover = [e.time_s for e in result.events if e.reason == "fault:recover:w1"]
        assert recover == [165.0]
        suppressed = [
            r["t"] for r in sim if r["name"] == "controller.rescale.suppressed"
        ]
        assert suppressed == [155.0, 160.0]


class TestSampleDrain:
    def test_each_engine_row_is_drained_once(self, monkeypatch):
        # The controller drains every deployment's job series into the
        # timeline each round. Counting the rows job_series hands out
        # across a run with a crash redeploy must give exactly the ticks
        # the drained engines executed: no row is rebuilt twice.
        engines = []
        build_engine = FluidSimulation.__init__

        def recording_init(self, *args, **kwargs):
            build_engine(self, *args, **kwargs)
            engines.append(self)

        handed_out = []
        series = MetricsCollector.job_series

        def counting_series(self, *args, **kwargs):
            rows = series(self, *args, **kwargs)
            handed_out.append((self, len(rows)))
            return rows

        monkeypatch.setattr(FluidSimulation, "__init__", recording_init)
        monkeypatch.setattr(MetricsCollector, "job_series", counting_series)
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST)
        result = ctl.run_adaptive(
            {"src": ConstantRate(2000.0)},
            duration_s=200.0,
            chaos=ChaosSchedule.parse("crash:w1@100"),
        )
        assert [e.reason for e in result.events].count("fault:crash:w1") == 1
        drained = [
            e for e in engines if any(c is e.metrics for c, _ in handed_out)
        ]
        assert len(drained) >= 2
        assert sum(n for _, n in handed_out) == sum(
            e._tick_index for e in drained
        )
        # 195 engine ticks plus the 5 s restart downtime, as before the
        # drain asked only for new rows.
        assert len(result.samples) == 200


class TestRecoveryDowntime:
    def test_checkpointed_crash_costs_more_than_flat_downtime(self):
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
        dep.engine.run_until(100.0)
        downtime = ctl._recovery_downtime(dep, dep.engine.cluster.workers[0].worker_id)
        # restart + replay of everything since the t=90 checkpoint
        assert downtime > config.rescale_downtime_s
        assert downtime <= config.checkpoint.max_recovery_s

    def test_flat_downtime_when_checkpoints_disabled(self):
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST)
        dep = ctl.deploy({"src": 2000.0})
        dep.engine.run_until(100.0)
        wid = dep.engine.cluster.workers[0].worker_id
        assert ctl._recovery_downtime(dep, wid) == FAST.rescale_downtime_s


class TestCooldownBackoff:
    """The quiet period after a (re)deploy: the activation gate."""

    def test_gated_fault_replan_is_suppressed_and_counted(self):
        registry = MetricRegistry()
        config = ControllerConfig(
            policy_interval_s=5.0,
            activation_time_s=500.0,
            rescale_downtime_s=5.0,
            profiling_duration_s=90.0,
        )
        ctl = CAPSysController(
            tiny_query(), CLUSTER, config=config, registry=registry
        )
        # The degradation wants an opportunistic replan, but the long
        # activation time gates every policy tick for the rest of the
        # run.
        chaos = ChaosSchedule.parse("disk:w1@100x0.5")
        result = ctl.run_adaptive(
            {"src": ConstantRate(2000.0)}, duration_s=200.0, chaos=chaos
        )
        assert not [e for e in result.events if e.reason.startswith("fault:")]
        assert counter_value(registry, "controller_rescales_suppressed_total") > 0


class TestPlacementFallbackChain:
    def rates(self):
        return {("tiny", "src"): 2000.0}

    def physical(self):
        return PhysicalGraph.expand(
            tiny_query().with_parallelism({"src": 1, "work": 2})
        )

    def test_infeasible_thresholds_fall_back_to_greedy(self):
        registry = MetricRegistry()
        strategy = CapsStrategy(
            self.rates(),
            thresholds=CostVector(cpu=1e-12, io=1e-12, net=1e-12),
            registry=registry,
        )
        plan = strategy.place(self.physical(), CLUSTER)
        assert plan is not None
        assert strategy.last_fallback == "greedy"
        assert (
            counter_value(
                registry, "caps_placement_fallback_total", stage="greedy"
            )
            == 1.0
        )

    def test_greedy_failure_falls_back_to_evenly(self, monkeypatch):
        import repro.placement.caps as caps_mod

        def broken(*args, **kwargs):
            raise RuntimeError("no feasible greedy placement")

        monkeypatch.setattr(caps_mod, "greedy_balanced_plan", broken)
        registry = MetricRegistry()
        strategy = CapsStrategy(
            self.rates(),
            thresholds=CostVector(cpu=1e-12, io=1e-12, net=1e-12),
            registry=registry,
        )
        plan = strategy.place(self.physical(), CLUSTER)
        assert plan is not None
        assert strategy.last_fallback == "evenly"
        assert (
            counter_value(
                registry, "caps_placement_fallback_total", stage="evenly"
            )
            == 1.0
        )

    def test_controller_records_fallback(self):
        strategy = CapsStrategy(
            self.rates(),
            thresholds=CostVector(cpu=1e-12, io=1e-12, net=1e-12),
        )
        ctl = CAPSysController(tiny_query(), CLUSTER, strategy=strategy, config=FAST)
        ctl.deploy({"src": 2000.0})
        assert ctl.last_placement_fallback == "greedy"


class TestChaosDeterminism:
    def test_identical_seeded_runs_produce_identical_traces(self):
        chaos = ChaosSchedule.parse("disk:w1@80x0.5,crash:w2@120")

        def run():
            tracer = Tracer(run_id="chaos")
            ctl = CAPSysController(
                tiny_query(), CLUSTER, config=FAST, tracer=tracer
            )
            ctl.run_adaptive(
                {"src": ConstantRate(2000.0)}, duration_s=200.0, chaos=chaos
            )
            return [r for r in tracer.records if r["clock"] == "sim"]

        assert run() == run()


class TestDowntimeTimeline:
    def test_every_sample_carries_the_target_at_its_tick_start(self):
        # The crash recovery (100-105 s) crosses the 102.5 s edge, and
        # the guarded retry backoff after the failed redeploy
        # (105-107 s) crosses the 105.5 s edge.
        pattern = StepSchedule(((0.0, 2000.0), (102.5, 3000.0), (105.5, 1500.0)))
        tracer = Tracer(run_id="targets")
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST, tracer=tracer)
        result = ctl.run_adaptive(
            {"src": pattern},
            duration_s=150.0,
            chaos=ChaosSchedule.parse("crash:w0@100"),
            control_chaos=ControlChaosSchedule.parse("deploy_fail:@100x1"),
        )
        assert [(e.time_s, e.reason) for e in result.events] == [
            (100.0, "fault:crash:w0")
        ]
        sim = tracer.stream("sim")
        assert [r["t"] for r in sim if r["name"] == "controller.deploy.retry"] == [
            105.0
        ]
        dt = FAST.sim.dt
        assert [s.target_rate for s in result.samples] == [
            pattern(s.time_s - dt) for s in result.samples
        ]

    @pytest.mark.parametrize(
        "duration_s, chaos, reason",
        [(150.0, "crash:w1@146", "fault:crash:w1"), (63.0, None, "ds2")],
    )
    def test_the_timeline_stops_at_the_run_end(self, duration_s, chaos, reason):
        # A rescale 3-4 s before the end owes a 5 s restart downtime: a
        # crash forces one at 146 s, and DS2 asks for one in the first
        # un-gated round, at 60 s.
        tracer = Tracer(run_id="end")
        ctl = CAPSysController(tiny_query(), CLUSTER, config=FAST, tracer=tracer)
        result = ctl.run_adaptive(
            {"src": ConstantRate(2000.0)},
            duration_s=duration_s,
            initial_parallelism={"src": 1, "work": 1},
            chaos=ChaosSchedule.parse(chaos) if chaos else None,
        )
        assert result.events[-1].reason == reason
        assert [s.time_s for s in result.samples] == [
            float(t) for t in range(1, int(duration_s) + 1)
        ]
        sim = tracer.stream("sim")
        last = [r for r in sim if r["name"] == "controller.rescale.downtime"][-1]
        assert last["t"] + last["dur"] == duration_s
        # A downtime that reaches the end leaves no time to run a new
        # deployment, so none is placed or started.
        deploys = [r["t"] for r in sim if r["name"] == "controller.deploy"]
        assert deploys and all(t < duration_s for t in deploys)
