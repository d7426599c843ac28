"""The content-addressed plan-evaluation cache.

Fingerprints must separate everything the simulator can observe
(workload, placement up to worker renaming, cluster spec, rates,
window, config) and collapse everything it cannot (worker ids); cached
summaries must be byte-identical to fresh simulations and immune to
caller mutation; unknown input types bypass the cache rather than
break it.
"""

import dataclasses

import pytest

from repro.core.plan import PlacementPlan
from repro.dataflow.cluster import M5D_2XLARGE, Cluster, WorkerSpec
from repro.dataflow.graph import LogicalGraph, OperatorSpec, Partitioning
from repro.dataflow.physical import PhysicalGraph
from repro.simulator.engine import SimulationConfig
from repro.simulator.plan_cache import (
    PlanEvaluationCache,
    resolve_cache,
    simulate_cached,
    simulation_fingerprint,
)
from repro.simulator.results import SimulationSummary
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
        cache = PlanEvaluationCache()
        cold = simulate_cached(
            physical, cluster, plan, RATES, cache=cache, **WINDOW
        )
        warm = simulate_cached(
            physical, cluster, plan, RATES, cache=cache, **WINDOW
        )
        assert cache.misses == 1
        assert cache.hits == 1
        assert warm.only == cold.only

    def test_renamed_worker_plan_hits(self):
        physical, cluster = small_deployment()
        cache = PlanEvaluationCache()
        first = simulate_cached(
            physical, cluster, plan_on_worker(physical, 0), RATES,
            cache=cache, **WINDOW
        )
        second = simulate_cached(
            physical, cluster, plan_on_worker(physical, 1), RATES,
            cache=cache, **WINDOW
        )
        assert cache.hits == 1
        assert second.only == first.only

    def test_cache_none_bypasses(self):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)
        a = simulate_cached(physical, cluster, plan, RATES, cache=None, **WINDOW)
        b = simulate_cached(physical, cluster, plan, RATES, cache=None, **WINDOW)
        assert a.only == b.only

    def test_fetched_summary_is_a_copy(self):
        physical, cluster = small_deployment()
        plan = plan_on_worker(physical, 0)
        cache = PlanEvaluationCache()
        first = simulate_cached(
            physical, cluster, plan, RATES, cache=cache, **WINDOW
        )
        first.jobs.clear()
        again = simulate_cached(
            physical, cluster, plan, RATES, cache=cache, **WINDOW
        )
        assert again.jobs, "cache entry was corrupted by caller mutation"

    def test_lru_eviction(self):
        cache = PlanEvaluationCache(capacity=2)
        summary = SimulationSummary(jobs={}, duration_s=1.0, warmup_s=0.0)
        for key in ("a", "b", "c"):
            cache.store(key, summary)
        assert len(cache) == 2
        assert cache.lookup("a") is None
        assert cache.lookup("c") is not None

    def test_lru_touch_on_lookup(self):
        cache = PlanEvaluationCache(capacity=2)
        summary = SimulationSummary(jobs={}, duration_s=1.0, warmup_s=0.0)
        cache.store("a", summary)
        cache.store("b", summary)
        cache.lookup("a")  # refresh a; b becomes the eviction candidate
        cache.store("c", summary)
        assert cache.lookup("a") is not None
        assert cache.lookup("b") is None

    def test_none_fingerprint_is_a_no_op(self):
        cache = PlanEvaluationCache()
        summary = SimulationSummary(jobs={}, duration_s=1.0, warmup_s=0.0)
        cache.store(None, summary)
        assert len(cache) == 0
        assert cache.lookup(None) is None
        assert cache.hits == 0 and cache.misses == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanEvaluationCache(capacity=0)

    def test_resolve_cache_options(self):
        explicit = PlanEvaluationCache()
        assert resolve_cache(explicit) is explicit
        assert resolve_cache(None) is None
        assert resolve_cache("default") is not None
        with pytest.raises(ValueError):
            resolve_cache("bogus")


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


class TestCacheThreadSafety:
    def test_concurrent_store_and_lookup_keep_counters_consistent(self):
        import threading

        cache = PlanEvaluationCache(capacity=8)
        summary = SimulationSummary(jobs={}, duration_s=1.0, warmup_s=0.0)
        rounds = 300

        def worker(tag):
            for i in range(rounds):
                key = f"{tag}-{i % 16}"
                if cache.lookup(key) is None:
                    cache.store(key, summary)

        threads = [
            threading.Thread(target=worker, args=(t % 2,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 8
        assert cache.hits + cache.misses == 4 * rounds


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
    leave the payload, and so every digest, unchanged."""

    def test_small_deployment(self):
        physical, cluster = small_deployment()
        assert fingerprint(physical, cluster, plan_on_worker(physical, 0)) == (
            "0a6bb197b21d3fa8fa91d0a5d9f4c45673725cc61a1e5ad829372c33ba831bd1"
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
        assert digest == "1ed09365692400b7d66cd2e5075405a97ae71da60b47bfa8cad94cb9f0120c5b"

    def test_two_jobs(self):
        physical, cluster, plan, rates = _preset_input(
            ["Q1-sliding", "Q6-session"], workers=4, rate_scale=0.9
        )
        digest = simulation_fingerprint(
            physical, cluster, plan, rates, duration_s=240.0, warmup_s=0.0
        )
        assert digest == "7a0350ee16ac80060459721a5d401863eaa8de865b70b062b3d82e9e8c83314e"
