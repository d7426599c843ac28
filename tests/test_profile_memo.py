"""The process-wide profile memo (``repro.controller.profiler``).

A profiling deployment the process profiled before must return exactly
what a fresh profiling run returns, without building an engine; any
change to an input the run reads must miss; callers get their own
dicts; an invalid graph raises whatever the memo holds; and the memo
stays within its LRU bound.
"""

import math

import pytest

from repro.controller.profiler import PROFILE_MEMO, CostProfiler
from repro.core.cost_model import UnitCosts
from repro.dataflow.cluster import M5D_2XLARGE, R5D_XLARGE
from repro.dataflow.graph import (
    GraphValidationError,
    LogicalGraph,
    OperatorSpec,
    Partitioning,
)
from repro.dataflow.physical import PhysicalGraph
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.simulator.plan_cache import MEMO_CAPACITY, profile_fingerprint
from repro.workloads import ALL_QUERIES


@pytest.fixture
def engine_builds(monkeypatch):
    """Counts every ``FluidSimulation`` built."""
    builds = []
    real = FluidSimulation.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(FluidSimulation, "__init__", counted)
    return builds


@pytest.mark.parametrize(
    "spec", [M5D_2XLARGE, R5D_XLARGE], ids=lambda s: s.name
)
@pytest.mark.parametrize("preset", ALL_QUERIES, ids=lambda p: p.name)
def test_a_hit_equals_a_fresh_profile_and_builds_no_engine(
    preset, spec, engine_builds
):
    stored = CostProfiler(spec).profile(preset.build())
    assert engine_builds == [1]

    engine_builds.clear()
    hit = CostProfiler(spec).profile(preset.build())
    assert engine_builds == []

    PROFILE_MEMO.clear()
    fresh = CostProfiler(spec).profile(preset.build())
    assert engine_builds == [1], "a cleared memo must profile again"
    assert hit == fresh == stored
    assert list(hit) == list(fresh)


# ----------------------------------------------------------------------
# Sensitivity: a change to any one key input misses.
# ----------------------------------------------------------------------
JOIN_CPU = 2e-4


def _join_graph(order=("a", "b", "join"), join_cpu=JOIN_CPU):
    """Two sources into a join; ``order`` is the operators' insertion order."""
    specs = {
        "a": OperatorSpec("a", is_source=True, cpu_per_record=1e-4),
        "b": OperatorSpec("b", is_source=True, cpu_per_record=1e-4),
        "join": OperatorSpec(
            "join", cpu_per_record=join_cpu, io_bytes_per_record=1000.0
        ),
    }
    graph = LogicalGraph("g")
    for name in order:
        graph.add_operator(specs[name], 1)
    graph.add_edge("a", "join", Partitioning.HASH)
    graph.add_edge("b", "join", Partitioning.HASH)
    return graph


BASE = dict(
    worker_spec=R5D_XLARGE,
    profiling_rate=100.0,
    duration_s=40.0,
    warmup_s=10.0,
    config=SimulationConfig(),
)


def _case(graph=None, config=None, **changes):
    """The base deployment, with the inputs given by keyword changed."""
    kwargs = dict(BASE, **changes)
    if config is not None:
        kwargs["config"] = config
    return CostProfiler(**kwargs), graph or _join_graph()


VARIANTS = {
    "worker_spec": lambda: _case(worker_spec=M5D_2XLARGE),
    "profiling_rate": lambda: _case(profiling_rate=100.5),
    "duration_s": lambda: _case(duration_s=41.0),
    "warmup_s": lambda: _case(warmup_s=11.0),
    "config_seed": lambda: _case(config=SimulationConfig(seed=7)),
    "config_noise_std": lambda: _case(config=SimulationConfig(noise_std=0.01)),
    "config_dt": lambda: _case(config=SimulationConfig(dt=0.5)),
    "config_fast_forward": lambda: _case(
        config=SimulationConfig(fast_forward=False)
    ),
    "spec_cost_1ulp": lambda: _case(
        graph=_join_graph(join_cpu=math.nextafter(JOIN_CPU, math.inf))
    ),
    "insertion_order": lambda: _case(graph=_join_graph(order=("b", "a", "join"))),
}


def test_the_base_deployment_hits(engine_builds):
    first_profiler, first_graph = _case()
    first = first_profiler.profile(first_graph)
    profiler_, graph = _case()
    assert profiler_.profile(graph) == first
    assert engine_builds == [1]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_a_changed_input_misses(name, engine_builds):
    base_profiler, base_graph = _case()
    base_profiler.profile(base_graph)
    profiler_, graph = VARIANTS[name]()
    profiler_.profile(graph)
    assert engine_builds == [1, 1], f"changing {name} returned the stored profile"


def test_tasks_are_keyed_by_their_triple_not_their_uid(engine_builds):
    # job "a/b" with operator "c" and job "a" with operator "b/c" give
    # one task uid, "a/b/c[0]"
    def graph(job_id, prefix):
        g = LogicalGraph(job_id)
        g.add_operator(
            OperatorSpec(prefix + "s", is_source=True, cpu_per_record=1e-4), 1
        )
        g.add_operator(OperatorSpec(prefix + "c", cpu_per_record=2e-4), 1)
        g.add_edge(prefix + "s", prefix + "c", Partitioning.HASH)
        return g

    split_late, split_early = graph("a/b", ""), graph("a", "b/")
    uids = [
        [task.uid for task in PhysicalGraph.expand(g).tasks]
        for g in (split_late, split_early)
    ]
    assert uids[0] == uids[1]
    profiler_ = CostProfiler(**BASE)
    assert set(profiler_.profile(split_late)) == {("a/b", "s"), ("a/b", "c")}
    assert set(profiler_.profile(split_early)) == {("a", "b/s"), ("a", "b/c")}
    assert engine_builds == [1, 1]


# ----------------------------------------------------------------------
# Copies, validation and bound
# ----------------------------------------------------------------------
def test_a_returned_dict_is_the_callers_own():
    profiler_, graph = _case()
    first = profiler_.profile(graph)
    expected = dict(first)
    first.clear()
    hit = profiler_.profile(graph)
    assert hit == expected
    hit[("g", "a")] = UnitCosts(0.0, 0.0, 0.0, 0.0)
    del hit[("g", "b")]
    assert profiler_.profile(graph) == expected


def _forward_pair(map_parallelism):
    graph = LogicalGraph("fwd")
    graph.add_operator(OperatorSpec("src", is_source=True, cpu_per_record=1e-4), 2)
    graph.add_operator(OperatorSpec("map", cpu_per_record=2e-4), map_parallelism)
    graph.add_edge("src", "map", Partitioning.FORWARD)
    return graph


def test_an_invalid_graph_raises_before_and_after_the_memo_is_warm():
    # A FORWARD edge from parallelism 2 to 3 is invalid, but its
    # parallelism-1 profiling clone equals the valid 2-to-2 graph's, so
    # only validating the caller's graph before the lookup rejects it.
    profiler_ = CostProfiler(R5D_XLARGE, duration_s=2.0, warmup_s=0.0)
    with pytest.raises(GraphValidationError, match="FORWARD"):
        profiler_.profile(_forward_pair(3))
    profiler_.profile(_forward_pair(2))
    assert len(PROFILE_MEMO) == 1
    with pytest.raises(GraphValidationError, match="FORWARD"):
        profiler_.profile(_forward_pair(3))


def test_the_lru_never_exceeds_its_capacity():
    graph = LogicalGraph("one")
    graph.add_operator(OperatorSpec("src", is_source=True, cpu_per_record=1e-4), 1)
    physical = PhysicalGraph.expand(graph)  # its own profiling clone

    def profiler_(i):
        # two ticks each, so 264 profiling runs stay cheap
        return CostProfiler(
            R5D_XLARGE, profiling_rate=100.0 + i, duration_s=2.0, warmup_s=0.0
        )

    def key(p):
        return profile_fingerprint(
            physical, p.worker_spec, p.profiling_rate,
            p.duration_s, p.warmup_s, p.config,
        )

    keys = []
    for i in range(MEMO_CAPACITY + 8):
        profiler_(i).profile(graph)
        keys.append(key(profiler_(i)))
        assert len(PROFILE_MEMO) <= MEMO_CAPACITY
        if i == MEMO_CAPACITY // 2:
            profiler_(0).profile(graph)  # a hit refreshes it
            assert PROFILE_MEMO.hits == 1
    assert len(PROFILE_MEMO) == MEMO_CAPACITY
    assert PROFILE_MEMO.evictions == 8
    assert PROFILE_MEMO.lookup(keys[0]) is not None
    assert all(PROFILE_MEMO.lookup(key) is None for key in keys[1:9])
    assert all(PROFILE_MEMO.lookup(key) is not None for key in keys[9:])
