"""Unit tests for the fault injection layer (DESIGN.md section 8).

Covers the chaos schedule grammar, cluster health bookkeeping, the
checkpoint/restore cost model, and the engine-side fault driver —
including the determinism contract: identically-scheduled chaos runs
produce byte-identical sim-domain traces.
"""

import numpy as np
import pytest

from repro.dataflow.cluster import Cluster, WorkerSpec
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.core.plan import PlacementPlan
from repro.faults import (
    ChaosSchedule,
    CheckpointConfig,
    ClusterHealth,
    EngineFaultDriver,
    FaultEvent,
    recovery_downtime,
)
from repro.observability import MetricRegistry, Tracer
from repro.simulator.engine import FluidSimulation

SPEC = WorkerSpec(
    cpu_capacity=4.0, disk_bandwidth=2e8, network_bandwidth=1.25e9, slots=4
)


def cluster(count=3):
    return Cluster.homogeneous(SPEC, count=count)


def io_pipeline(parallelism=4, state_bytes=200.0):
    g = LogicalGraph("job")
    g.add_operator(
        OperatorSpec(
            "src", is_source=True, cpu_per_record=1e-6, out_record_bytes=100.0
        ),
        parallelism=1,
    )
    g.add_operator(
        OperatorSpec(
            "win",
            cpu_per_record=2e-4,
            io_bytes_per_record=20_000.0,
            out_record_bytes=100.0,
            selectivity=0.1,
            state_bytes_per_record=state_bytes,
        ),
        parallelism=parallelism,
    )
    g.add_edge("src", "win", Partitioning.HASH)
    return g


def spread_plan(physical, workers):
    return PlacementPlan({t.uid: i % workers for i, t in enumerate(physical.tasks)})


def make_sim(rate=2000.0, workers=3, tracer=None, registry=None, state_bytes=200.0):
    g = io_pipeline(state_bytes=state_bytes)
    physical = PhysicalGraph.expand(g)
    sim = FluidSimulation(
        physical,
        cluster(workers),
        spread_plan(physical, workers),
        {("job", "src"): rate},
        tracer=tracer,
        registry=registry,
    )
    return sim


class TestScheduleGrammar:
    def test_parse_round_trip(self):
        spec = "crash:w3@120,recover:w3@300,disk:w1@60x0.4,slots:w2@100x2"
        schedule = ChaosSchedule.parse(spec)
        assert len(schedule) == 4
        assert ChaosSchedule.parse(schedule.spec()) == schedule

    def test_events_sorted_by_time(self):
        schedule = ChaosSchedule.parse("recover:w0@300,crash:w0@120")
        assert [e.kind for e in schedule] == ["crash", "recover"]

    def test_degrade_defaults_to_half(self):
        [event] = ChaosSchedule.parse("disk:w0@10").events
        assert event.magnitude == pytest.approx(0.5)

    def test_worker_ids_deduplicated_sorted(self):
        schedule = ChaosSchedule.parse("crash:w5@1,disk:w2@2,recover:w5@3")
        assert schedule.worker_ids() == (2, 5)

    @pytest.mark.parametrize(
        "bad",
        [
            "boom:w0@10",          # unknown kind
            "crash:x0@10",         # bad worker token
            "crash:w0@ten",        # bad time
            "disk:w0@10x0",        # magnitude out of (0, 1]
            "disk:w0@10x1.5",      # magnitude out of (0, 1]
            "slots:w0@10x0.5",     # slots must lose whole slots
            "crash:w0",            # missing time
            "crash:w0@10x5",       # crash takes no magnitude
            "recover:w0@10x0.5",   # recover takes no magnitude
            "slots:w0@10xmany",    # unparseable magnitude
            "disk:w0@-5",          # negative time
            "crash:w0@10,crash:w0@10",      # exact duplicate
            "disk:w1@20x0.5,disk:w1@20x0.3",  # duplicate kind/worker/time
            "slots:w0@10xinf",     # non-finite magnitude
            "disk:w0@10xnan",      # non-finite magnitude
            "crash:w0@nan",        # non-finite time
            "crash:w0@inf",        # non-finite time
            "crash:w0@1e400",      # time overflows to inf
            "crash:w1@50,crash:w0@nan,crash:w2@20",  # NaN would break the sort
            "crash:w0@10for5",     # worker faults take no window
        ],
    )
    def test_rejects_malformed_tokens(self, bad):
        with pytest.raises(ValueError):
            ChaosSchedule.parse(bad)

    @pytest.mark.parametrize(
        "bad, offender",
        [
            ("boom:w0@10", "boom:w0@10"),
            ("crash:w0@10x5", "crash:w0@10x5"),
            ("crash:w1@5,crash:w0@10,crash:w0@10", "crash:w0@10"),
            ("disk:w0@10x0", "disk:w0@10x0"),
            ("slots:w0@10xinf", "slots:w0@10xinf"),
            ("crash:w1@50,crash:w0@nan,crash:w2@20", "crash:w0@nan"),
        ],
    )
    def test_error_names_the_offending_token(self, bad, offender):
        with pytest.raises(ValueError, match=offender.replace("@", "@")):
            ChaosSchedule.parse(bad)

    def test_same_worker_different_kinds_same_time_allowed(self):
        schedule = ChaosSchedule.parse("disk:w0@10x0.5,net:w0@10x0.5")
        assert len(schedule) == 2

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "crash", 0)
        with pytest.raises(ValueError):
            FaultEvent(0.0, "crash", -1)
        with pytest.raises(ValueError):
            FaultEvent(float("nan"), "crash", 0)
        with pytest.raises(ValueError):
            FaultEvent(1.0, "slots", 0, float("inf"))
        assert FaultEvent(5.0, "net", 1, 0.25).structural is False
        assert FaultEvent(5.0, "slots", 1, 2.0).structural is True


class TestClusterHealth:
    def test_crash_removes_worker_from_both_views(self):
        health = ClusterHealth(cluster(3))
        health.apply(FaultEvent(10.0, "crash", 1))
        assert health.failed_workers == (1,)
        assert [w.worker_id for w in health.engine_cluster().workers] == [0, 2]
        assert [w.worker_id for w in health.placement_cluster().workers] == [0, 2]
        assert health.total_slots() == 8

    def test_slot_loss_subtracts(self):
        health = ClusterHealth(cluster(2))
        health.apply(FaultEvent(1.0, "slots", 0, 3.0))
        assert health.slots_of(0) == 1
        assert health.engine_cluster().worker(0).slots == 1

    def test_degradation_bakes_into_placement_view_only(self):
        health = ClusterHealth(cluster(2))
        health.apply(FaultEvent(1.0, "disk", 1, 0.25))
        engine_view = health.engine_cluster()
        placement_view = health.placement_cluster()
        assert engine_view.worker(1).spec.disk_bandwidth == SPEC.disk_bandwidth
        assert placement_view.worker(1).spec.disk_bandwidth == pytest.approx(
            SPEC.disk_bandwidth * 0.25
        )
        assert health.degraded() and not health.pristine()

    def test_degradation_is_monotone_until_recover(self):
        health = ClusterHealth(cluster(1))
        health.apply(FaultEvent(1.0, "disk", 0, 0.5))
        health.apply(FaultEvent(2.0, "disk", 0, 0.8))  # weaker: ignored
        assert health.factor_of(0, "disk") == pytest.approx(0.5)
        health.apply(FaultEvent(3.0, "recover", 0))
        assert health.factor_of(0, "disk") == 1.0
        assert health.pristine()

    def test_factor_arrays_in_cluster_order(self):
        health = ClusterHealth(cluster(3))
        health.apply(FaultEvent(1.0, "cpu", 2, 0.3))
        health.apply(FaultEvent(2.0, "crash", 0))
        cpu, disk, net, alive = health.factor_arrays(cluster(3))
        assert cpu.tolist() == [1.0, 1.0, 0.3]
        assert disk.tolist() == [1.0, 1.0, 1.0]
        assert alive.tolist() == [False, True, True]

    def test_unknown_worker_rejected(self):
        health = ClusterHealth(cluster(2))
        with pytest.raises(KeyError):
            health.apply(FaultEvent(1.0, "crash", 9))

    def test_no_survivors_raises(self):
        health = ClusterHealth(cluster(1))
        health.apply(FaultEvent(1.0, "crash", 0))
        with pytest.raises(RuntimeError):
            health.engine_cluster()


class TestRecoveryDowntime:
    def test_disabled_is_flat_restart(self):
        config = CheckpointConfig()
        assert recovery_downtime(config, 10.0, 1e12, 500.0) == 10.0

    def test_enabled_adds_restore_and_replay(self):
        config = CheckpointConfig(
            enabled=True,
            restore_bandwidth_bytes_per_s=100.0,
            replay_factor=0.5,
            max_recovery_s=1000.0,
        )
        # 10 restart + 1000/100 restore + 0.5 * 20 replay = 30
        assert recovery_downtime(config, 10.0, 1000.0, 20.0) == pytest.approx(30.0)

    def test_capped_at_max_recovery(self):
        config = CheckpointConfig(
            enabled=True, restore_bandwidth_bytes_per_s=1.0, max_recovery_s=60.0
        )
        assert recovery_downtime(config, 5.0, 1e9, 0.0) == 60.0

    def test_never_below_restart(self):
        config = CheckpointConfig(enabled=True, max_recovery_s=1.0)
        assert recovery_downtime(config, 30.0, 0.0, 0.0) == 30.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CheckpointConfig(interval_s=0.0)
        with pytest.raises(ValueError):
            CheckpointConfig(write_bandwidth_share=1.5)
        with pytest.raises(ValueError):
            recovery_downtime(CheckpointConfig(), -1.0, 0.0, 0.0)


class TestEngineFaultDriver:
    def test_crash_halts_workers_tasks(self):
        sim = make_sim()
        sim.set_fault_driver(
            EngineFaultDriver(ChaosSchedule.parse("crash:w1@60"), cluster(3))
        )
        sim.run_until(240.0)
        rates = sim.metrics.task_rates()
        workers = sim_task_workers(sim)
        dead = [uid for uid, w in workers.items() if w == 1]
        assert dead
        # The alive mask zeroes demand on the dead worker...
        assert all(rates[uid].observed_rate < 1.0 for uid in dead)
        # ...and with hash partitioning the stalled partitions drag the
        # whole pipeline down through backpressure — this is exactly the
        # "crash without replanning" baseline the controller fixes.
        series = sim.metrics.job_series("job")
        before = [s for s in series if s.time_s < 55.0][-1].throughput
        after = [s for s in series if s.time_s > 180.0][-1].throughput
        assert before > 1000.0
        assert after < 0.2 * before

    def test_degrade_cuts_throughput_and_recover_restores(self):
        healthy = make_sim(rate=3000.0)
        healthy.run_until(200.0)
        base = healthy.metrics.job_series("job")[-1].throughput

        sim = make_sim(rate=3000.0)
        sim.set_fault_driver(
            EngineFaultDriver(
                ChaosSchedule.parse(
                    "disk:w0@50x0.05,disk:w1@50x0.05,disk:w2@50x0.05"
                ),
                cluster(3),
            )
        )
        sim.run_until(200.0)
        degraded = sim.metrics.job_series("job")[-1].throughput
        assert degraded < 0.9 * base

        recovering = make_sim(rate=3000.0)
        recovering.set_fault_driver(
            EngineFaultDriver(
                ChaosSchedule.parse(
                    "disk:w0@50x0.05,disk:w1@50x0.05,disk:w2@50x0.05,"
                    "recover:w0@100,recover:w1@100,recover:w2@100"
                ),
                cluster(3),
            )
        )
        recovering.run_until(400.0)
        restored = recovering.metrics.job_series("job")[-1].throughput
        assert restored == pytest.approx(base, rel=0.05)

    def test_unknown_worker_rejected_at_construction(self):
        with pytest.raises(KeyError, match="crash:w9@1"):
            EngineFaultDriver(ChaosSchedule.parse("crash:w9@1"), cluster(2))

    def test_observability_of_injected_faults(self):
        tracer = Tracer(run_id="chaos-test")
        registry = MetricRegistry()
        sim = make_sim(tracer=tracer, registry=registry)
        sim.set_fault_driver(
            EngineFaultDriver(
                ChaosSchedule.parse("disk:w0@10x0.5,crash:w1@20"),
                cluster(3),
                tracer=tracer,
                registry=registry,
            )
        )
        sim.run_until(60.0)
        names = [r["name"] for r in tracer.records if r["clock"] == "sim"]
        assert "fault.disk" in names and "fault.crash" in names
        snapshot = registry.snapshot()
        counters = {
            (m["name"], tuple(sorted(m.get("labels", {}).items()))): m["value"]
            for m in snapshot["metrics"]
        }
        assert counters[("faults_injected_total", (("kind", "disk"),))] == 1
        assert counters[("faults_injected_total", (("kind", "crash"),))] == 1


def sim_task_workers(sim):
    return {t.uid: int(w) for t, w in zip(sim.physical.tasks, sim.worker)}


class TestCheckpointAccounting:
    def test_checkpoints_fire_on_interval(self):
        sim = make_sim()
        sim.enable_checkpoints(CheckpointConfig(enabled=True, interval_s=30.0))
        sim.run_until(100.0)
        assert sim.checkpoints_taken == 3
        assert sim.last_checkpoint_s == pytest.approx(90.0)

    def test_disabled_config_is_inert(self):
        sim = make_sim()
        sim.enable_checkpoints(CheckpointConfig(enabled=False))
        sim.run_until(50.0)
        assert sim.checkpoints_taken == 0
        assert np.all(sim.durable_state_bytes() == 0.0)

    def test_durable_state_trails_total_state(self):
        sim = make_sim()
        sim.enable_checkpoints(CheckpointConfig(enabled=True, interval_s=20.0))
        sim.run_until(110.0)
        durable = sim.durable_state_bytes()
        total = sim.worker_state_bytes()
        assert float(np.sum(durable)) > 0.0
        assert np.all(durable <= total + 1e-6)

    def test_checkpoint_upload_costs_throughput(self):
        # An I/O-bound pipeline near its disk limit with heavy state
        # growth must visibly pay for the checkpoint upload stream
        # sharing the disk. The tax oscillates with the checkpoint
        # cycle (throttle during the upload burst, recover between),
        # so compare the *windowed* source rate, not an instantaneous
        # sample.
        free = make_sim(rate=12_000.0, workers=2, state_bytes=20_000.0)
        free.run_until(240.0)
        base = free.metrics.task_rates()["job/src[0]"].observed_rate

        paying = make_sim(rate=12_000.0, workers=2, state_bytes=20_000.0)
        paying.enable_checkpoints(
            CheckpointConfig(
                enabled=True, interval_s=10.0, write_bandwidth_share=1.0
            )
        )
        paying.run_until(240.0)
        taxed = paying.metrics.task_rates()["job/src[0]"].observed_rate
        assert base > 11_000.0
        assert taxed < 0.85 * base

    def test_identical_chaos_runs_trace_identically(self):
        def run():
            tracer = Tracer(run_id="det")
            sim = make_sim(tracer=tracer)
            sim.enable_checkpoints(
                CheckpointConfig(enabled=True, interval_s=25.0)
            )
            sim.set_fault_driver(
                EngineFaultDriver(
                    ChaosSchedule.parse("disk:w1@30x0.4,crash:w2@60,recover:w2@90"),
                    cluster(3),
                    tracer=tracer,
                )
            )
            sim.run_until(150.0)
            return [r for r in tracer.records if r["clock"] == "sim"]

        first, second = run(), run()
        assert first == second
