"""The content-addressed plan-evaluation cache.

Fingerprints must separate everything the simulator can observe
(workload, placement up to worker renaming, cluster spec, rates,
window, config) and collapse everything it cannot (worker ids); cached
summaries must be byte-identical to fresh simulations and immune to
caller mutation; unknown input types bypass the cache rather than
break it.
"""

import dataclasses
import math

import pytest

from repro.core.plan import PlacementPlan
from repro.dataflow.cluster import M5D_2XLARGE, Cluster, WorkerSpec
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.simulator.engine import SimulationConfig
from repro.simulator.plan_cache import (
    DEFAULT_CACHE,
    MEMO_CAPACITY,
    Memo,
    simulate_cached,
    simulation_fingerprint,
)
from repro.workloads import query_by_name
from repro.workloads.rates import StepSchedule

SPEC = WorkerSpec(
    cpu_capacity=4.0, disk_bandwidth=1e8, network_bandwidth=1e9, slots=4
)


def small_deployment(workers=2):
    g = LogicalGraph("job")
    g.add_operator(OperatorSpec("src", is_source=True, cpu_per_record=1e-4), 1)
    g.add_operator(
        OperatorSpec("map", cpu_per_record=2e-4, out_record_bytes=100.0), 2
    )
    g.add_edge("src", "map", Partitioning.HASH)
    physical = PhysicalGraph.expand(g)
    cluster = Cluster.homogeneous(SPEC, count=workers)
    return physical, cluster


def plan_on_worker(physical, worker_id):
    return PlacementPlan({t.uid: worker_id for t in physical.tasks})


def rewired(physical, change):
    """``physical`` with ``change(tasks, channels)`` applied to its lists."""
    tasks, channels = list(physical.tasks), list(physical.channels)
    change(tasks, channels)
    return PhysicalGraph(tasks, channels, physical.logical_graphs)


def nudge_share(tasks, channels):
    share = math.nextafter(channels[0].share, 0.0)
    channels[0] = dataclasses.replace(channels[0], share=share)


def flip_reroutable(tasks, channels):
    flipped = not channels[0].reroutable
    channels[0] = dataclasses.replace(channels[0], reroutable=flipped)


def reindex_last_task(tasks, channels):
    old = tasks[-1]
    new = tasks[-1] = dataclasses.replace(old, index=old.index + 1)
    channels[:] = [
        dataclasses.replace(
            ch,
            src=new if ch.src == old else ch.src,
            dst=new if ch.dst == old else ch.dst,
        )
        for ch in channels
    ]


RATES = {("job", "src"): 500.0}
WINDOW = dict(duration_s=30.0, warmup_s=10.0)


def fingerprint(physical, cluster, plan, rates=RATES, **kwargs):
    merged = dict(WINDOW)
    merged.update(kwargs)
    return simulation_fingerprint(physical, cluster, plan, rates, **merged)


class TestFingerprint:
    def test_deterministic(self):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)
        assert fingerprint(physical, cluster, plan) == fingerprint(
            physical, cluster, plan
        )
        # a second expansion of the same graph: equal content, new objects
        again, _ = small_deployment()
        assert fingerprint(physical, cluster, plan) == fingerprint(
            again, cluster, plan_on_worker(again, 0)
        )

    def test_worker_renaming_collapses(self):
        """Same task multiset on identically-specced workers: one key."""
        physical, cluster = small_deployment()
        on_first = plan_on_worker(physical, 0)
        on_second = plan_on_worker(physical, 1)
        assert fingerprint(physical, cluster, on_first) == fingerprint(
            physical, cluster, on_second
        )

    def test_distinct_placements_separate(self):
        physical, cluster = small_deployment()
        packed = plan_on_worker(physical, 0)
        tasks = list(physical.tasks)
        spread = PlacementPlan(
            {t.uid: i % 2 for i, t in enumerate(tasks)}
        )
        assert fingerprint(physical, cluster, packed) != fingerprint(
            physical, cluster, spread
        )

    def test_cluster_spec_separates(self):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)
        bigger = Cluster.homogeneous(
            dataclasses.replace(SPEC, cpu_capacity=8.0), count=2
        )
        assert fingerprint(physical, cluster, plan) != fingerprint(
            physical, bigger, plan
        )

    def test_rates_window_and_config_separate(self):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)
        base = fingerprint(physical, cluster, plan)
        assert base != fingerprint(
            physical, cluster, plan, rates={("job", "src"): 600.0}
        )
        assert base != fingerprint(physical, cluster, plan, duration_s=60.0)
        assert base != fingerprint(physical, cluster, plan, warmup_s=5.0)
        assert base != fingerprint(
            physical, cluster, plan, config=SimulationConfig(seed=99)
        )
        assert base != fingerprint(
            physical, cluster, plan, network_cap_bytes_per_s=1e6
        )
        # the workload's channels and tasks, each changed in one place
        for change in (nudge_share, flip_reroutable, reindex_last_task):
            altered = rewired(physical, change)
            assert base != fingerprint(
                altered, cluster, plan_on_worker(altered, 0)
            ), change.__name__

    def test_rate_patterns_fingerprint(self):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)
        stepped = {
            ("job", "src"): StepSchedule(steps=((0.0, 100.0), (10.0, 400.0)))
        }
        key = fingerprint(physical, cluster, plan, rates=stepped)
        assert key is not None
        assert key != fingerprint(physical, cluster, plan)

    def test_uncacheable_input_yields_none(self):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)

        class Opaque:
            pass

        key = fingerprint(
            physical, cluster, plan, rates={("job", "src"): Opaque()}
        )
        assert key is None


class TestCacheBehaviour:
    def test_warm_hit_is_byte_identical(self):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)
        cold = simulate_cached(physical, cluster, plan, RATES, **WINDOW)
        warm = simulate_cached(physical, cluster, plan, RATES, **WINDOW)
        assert DEFAULT_CACHE.misses == 1
        assert DEFAULT_CACHE.hits == 1
        assert warm.only == cold.only

    def test_renamed_worker_plan_hits(self):
        physical, cluster = small_deployment()
        first = simulate_cached(
            physical, cluster, plan_on_worker(physical, 0), RATES, **WINDOW
        )
        second = simulate_cached(
            physical, cluster, plan_on_worker(physical, 1), RATES, **WINDOW
        )
        assert DEFAULT_CACHE.hits == 1
        assert second.only == first.only

    def test_fetched_summary_is_a_copy(self):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)
        first = simulate_cached(physical, cluster, plan, RATES, **WINDOW)
        first.jobs.clear()
        again = simulate_cached(physical, cluster, plan, RATES, **WINDOW)
        assert again.jobs, "cache entry was corrupted by caller mutation"
        again.jobs.clear()
        assert simulate_cached(physical, cluster, plan, RATES, **WINDOW).jobs

    def test_lru_eviction(self):
        """A full memo evicts exactly its oldest key, one per store."""
        memo = Memo()
        keys = [f"k{i}" for i in range(MEMO_CAPACITY + 1)]
        for key in keys:
            memo.store(key, key)
        assert len(memo) == MEMO_CAPACITY
        assert memo.evictions == 1
        assert memo.lookup(keys[0]) is None
        assert [memo.lookup(key) for key in keys[1:]] == keys[1:]

    def test_lru_touch_on_lookup(self):
        """A lookup refreshes its key: the next eviction skips it."""
        memo = Memo()
        keys = [f"k{i}" for i in range(MEMO_CAPACITY)]
        for key in keys:
            memo.store(key, key)
        assert memo.lookup(keys[0]) == keys[0]
        memo.store("new", "new")
        assert len(memo) == MEMO_CAPACITY
        assert memo.evictions == 1
        assert memo.lookup(keys[1]) is None
        assert [memo.lookup(key) for key in keys[2:]] == keys[2:]
        assert memo.lookup(keys[0]) == keys[0]
        assert memo.lookup("new") == "new"
        assert (memo.hits, memo.misses) == (MEMO_CAPACITY + 1, 1)

    def test_none_fingerprint_is_a_no_op(self):
        memo = Memo()
        memo.store(None, "value")
        assert len(memo) == 0
        assert memo.lookup(None) is None
        assert memo.hits == 0 and memo.misses == 0


def deployment_with_map_spec(**overrides):
    """Same topology as small_deployment, with the map operator altered."""
    g = LogicalGraph("job")
    g.add_operator(OperatorSpec("src", is_source=True, cpu_per_record=1e-4), 1)
    base = OperatorSpec("map", cpu_per_record=2e-4, out_record_bytes=100.0)
    g.add_operator(dataclasses.replace(base, **overrides), 2)
    g.add_edge("src", "map", Partitioning.HASH)
    return PhysicalGraph.expand(g), Cluster.homogeneous(SPEC, count=2)


def perturbed(value):
    """A same-typed value guaranteed to differ from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2 + 1.0
    if isinstance(value, str):
        return value + "_x"
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0]
        return dataclasses.replace(
            value, **{first.name: perturbed(getattr(value, first.name))}
        )
    raise NotImplementedError(f"no perturbation for {type(value).__name__}")


class TestFingerprintFieldCoverage:
    """Every field of every key-relevant dataclass must move the key.

    Regression guard for the class of bug the KEY analysis rules target:
    a field the fingerprint silently ignores makes two semantically
    different simulations collide in the cache.
    """

    def test_operator_costs_separate(self):
        """Identical topology, different per-record cost: distinct keys.

        This collided before the fingerprint folded OperatorSpec in —
        a CAPS sweep over recalibrated costs would have returned the
        first calibration's summaries for every variant.
        """
        cheap_physical, cluster = deployment_with_map_spec()
        costly_physical, _ = deployment_with_map_spec(cpu_per_record=8e-4)
        cheap = fingerprint(cheap_physical, cluster, plan_on_worker(cheap_physical, 0))
        costly = fingerprint(costly_physical, cluster, plan_on_worker(costly_physical, 0))
        assert cheap != costly

    @pytest.mark.parametrize(
        "field_name",
        [
            f.name
            for f in dataclasses.fields(OperatorSpec)
            if f.name not in ("name", "is_source", "gc_spike")
        ],
    )
    def test_every_operator_spec_field_moves_the_key(self, field_name):
        physical, cluster = deployment_with_map_spec()
        base = fingerprint(physical, cluster, plan_on_worker(physical, 0))
        map_spec = OperatorSpec(
            "map", cpu_per_record=2e-4, out_record_bytes=100.0
        )
        changed_value = perturbed(getattr(map_spec, field_name))
        altered, _ = deployment_with_map_spec(**{field_name: changed_value})
        other = fingerprint(altered, cluster, plan_on_worker(altered, 0))
        assert base != other, f"OperatorSpec.{field_name} is not in the key"

    def test_gc_spike_profile_moves_the_key(self):
        from repro.dataflow.graph import GcSpikeProfile

        physical, cluster = deployment_with_map_spec()
        base = fingerprint(physical, cluster, plan_on_worker(physical, 0))
        spiky, _ = deployment_with_map_spec(gc_spike=GcSpikeProfile())
        slower, _ = deployment_with_map_spec(
            gc_spike=GcSpikeProfile(period_s=60.0)
        )
        keys = {
            base,
            fingerprint(spiky, cluster, plan_on_worker(spiky, 0)),
            fingerprint(slower, cluster, plan_on_worker(slower, 0)),
        }
        assert len(keys) == 3

    @pytest.mark.parametrize(
        "field_name", [f.name for f in dataclasses.fields(WorkerSpec)]
    )
    def test_every_worker_spec_field_moves_the_key(self, field_name):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)
        base = fingerprint(physical, cluster, plan)
        altered_spec = dataclasses.replace(
            SPEC, **{field_name: perturbed(getattr(SPEC, field_name))}
        )
        altered = Cluster.homogeneous(altered_spec, count=2)
        assert base != fingerprint(physical, altered, plan), (
            f"WorkerSpec.{field_name} is not in the key"
        )

    # fast_forward is deliberately NOT part of the key: it is an
    # execution strategy with an exact-equivalence contract, so
    # fast-forward and reference runs must share cache entries.
    @pytest.mark.parametrize(
        "field_name",
        [
            f.name
            for f in dataclasses.fields(SimulationConfig)
            if f.name != "fast_forward"
        ],
    )
    def test_every_simulation_config_field_moves_the_key(self, field_name):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)
        base = fingerprint(physical, cluster, plan)
        default = SimulationConfig()
        altered = dataclasses.replace(
            default, **{field_name: perturbed(getattr(default, field_name))}
        )
        assert base != fingerprint(physical, cluster, plan, config=altered), (
            f"SimulationConfig.{field_name} is not in the key"
        )

    def test_fast_forward_does_not_move_the_key(self):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)
        reference, fast = (
            fingerprint(
                physical, cluster, plan, config=SimulationConfig(fast_forward=ff)
            )
            for ff in (False, True)
        )
        assert reference == fast


def _preset_input(names, workers, rate_scale, pattern=None):
    """A merged preset deployment, round-robin on ``workers`` m5d workers."""
    graphs = [query_by_name(name).build() for name in names]
    physical = PhysicalGraph.merge(PhysicalGraph.expand(g) for g in graphs)
    cluster = Cluster.homogeneous(M5D_2XLARGE.with_slots(8), count=workers)
    plan = PlacementPlan(
        {t.uid: i % workers for i, t in enumerate(physical.tasks)}
    )
    rates = {}
    for name, graph in zip(names, graphs):
        rate = query_by_name(name).isolation_rate * rate_scale
        for op in graph.sources():
            rates[(graph.job_id, op)] = pattern(rate) if pattern else rate
    return physical, cluster, plan, rates


class TestFingerprintPins:
    """Literal digests: an edit to how the fingerprint is computed must
    leave the payload, and so every digest, unchanged. The literals
    move only with a deliberate change of the encoding, recorded in
    CHANGES.md."""

    def test_small_deployment(self):
        physical, cluster = small_deployment()
        assert fingerprint(physical, cluster, plan_on_worker(physical, 0)) == (
            "5e29e830a8cb20423a9e7f4a343a5c540f5b7e4aba9ac8d992e0ae2c6bb6efac"
        )

    def test_preset_with_steps_config_and_network_cap(self):
        physical, cluster, plan, rates = _preset_input(
            ["Q2-join"], workers=4, rate_scale=0.5,
            pattern=lambda rate: StepSchedule.doubling_then_halving(
                rate, interval_s=80.0, repeats=1
            ),
        )
        digest = simulation_fingerprint(
            physical, cluster, plan, rates, duration_s=320.0, warmup_s=60.0,
            config=SimulationConfig(dt=0.5, noise_std=0.05, seed=3),
            network_cap_bytes_per_s=1.25e8,
        )
        assert digest == "6bca2c4c63a74dc022eb26e826dc33190b4c4923a98f65d6393846d9682380d5"

    def test_two_jobs(self):
        physical, cluster, plan, rates = _preset_input(
            ["Q1-sliding", "Q6-session"], workers=4, rate_scale=0.9
        )
        digest = simulation_fingerprint(
            physical, cluster, plan, rates, duration_s=240.0, warmup_s=0.0
        )
        assert digest == "555648e81d4e4768edf87a5916e54a40c59b24b52cc918dab1cbbe53d77ca59b"
