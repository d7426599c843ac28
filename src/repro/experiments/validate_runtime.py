"""Fluid-model vs sharded-runtime cross-validation.

The placement layer's decisions are justified by the *fluid* simulator's
rate model; this harness grounds that model the way StreamBed and MIPS
ground theirs — by executing real records. For each query it builds one
physical graph and one placement, then measures throughput and
backpressure share twice under identical conditions:

1. the fluid engine (:class:`~repro.simulator.engine.FluidSimulation`)
   integrating the rate model;
2. the sharded record runtime
   (:class:`~repro.runtime.parallel.ShardedExecutor`) executing a
   seeded Nexmark dataset generated at the same target rates, with
   per-slice budgets from the resource-sharing function the engine
   calls every tick, under the same :class:`SimulationConfig`.

The per-query prediction errors are the repo's standing evidence that
placement conclusions drawn from the fluid model transfer to record
execution (target: ≤10% throughput error on steady Q1; the measured
table lives in DESIGN.md §12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.dataflow.graph import LogicalGraph
from repro.dataflow.physical import PhysicalGraph
from repro.experiments.reporting import format_table
from repro.experiments.runner import source_rate_map
from repro.placement.flink_evenly import FlinkEvenlyStrategy
from repro.runtime.parallel import PipelineTemplate, ShardedExecutor
from repro.runtime.queries import (
    bid_sessions_template,
    hot_items_template,
    new_user_auctions_template,
)
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.workloads.nexmark import NexmarkGenerator
from repro.workloads.queries import q1_sliding, q2_join, q6_session

#: Events per Nexmark generation cycle and the per-kind counts within it
#: (NexmarkGenerator emits 1 person : 3 auctions : 46 bids per 50).
_CYCLE = 50
_PERSONS_PER_CYCLE = 1
_AUCTIONS_PER_CYCLE = 3
_BIDS_PER_CYCLE = 46


@dataclass(frozen=True)
class ValidationScenario:
    """One cross-validation case: a placed query plus matching dataset."""

    query: str
    graph: LogicalGraph
    template: PipelineTemplate
    source_rates: Dict[str, float]

    @property
    def target_rate(self) -> float:
        return sum(self.source_rates.values())


@dataclass(frozen=True)
class ValidationRow:
    """Fluid vs runtime measurements for one query."""

    query: str
    target_rate: float
    fluid_throughput: float
    runtime_throughput: float
    throughput_error: float
    fluid_backpressure: float
    runtime_backpressure: float
    backpressure_error: float


def _generate_events(
    seed: int, events_per_second: float, duration_s: float
) -> Tuple[list, list, list]:
    """Seeded Nexmark events covering ``duration_s``, split by kind."""
    count = int(math.ceil(events_per_second * duration_s)) + _CYCLE
    events = NexmarkGenerator(
        seed=seed, events_per_second=events_per_second
    ).take(count)
    persons = [e for kind, e in events if kind == "person"]
    auctions = [e for kind, e in events if kind == "auction"]
    bids = [e for kind, e in events if kind == "bid"]
    return persons, auctions, bids


def q1_scenario(
    duration_s: float, rate_scale: float = 1.0, seed: int = 7
) -> ValidationScenario:
    """Q1-sliding at a moderate bid rate on the small cluster."""
    bid_rate = 1200.0 * rate_scale
    eps = bid_rate * _CYCLE / _BIDS_PER_CYCLE
    _, _, bids = _generate_events(seed, eps, duration_s)
    return ValidationScenario(
        query="q1",
        graph=q1_sliding(1, 2, 2),
        template=hot_items_template(bids),
        source_rates={"source": bid_rate},
    )


def q2_scenario(
    duration_s: float, rate_scale: float = 1.0, seed: int = 7
) -> ValidationScenario:
    """Q2-join: persons and auctions of one generator stream."""
    eps = 2000.0 * rate_scale
    persons, auctions, _ = _generate_events(seed, eps, duration_s)
    return ValidationScenario(
        query="q2",
        graph=q2_join(1, 1, 2),
        template=new_user_auctions_template(persons, auctions),
        source_rates={
            "source_persons": eps * _PERSONS_PER_CYCLE / _CYCLE,
            "source_auctions": eps * _AUCTIONS_PER_CYCLE / _CYCLE,
        },
    )


def q6_scenario(
    duration_s: float, rate_scale: float = 1.0, seed: int = 7
) -> ValidationScenario:
    """Q6-session at a moderate bid rate."""
    bid_rate = 800.0 * rate_scale
    eps = bid_rate * _CYCLE / _BIDS_PER_CYCLE
    _, _, bids = _generate_events(seed, eps, duration_s)
    return ValidationScenario(
        query="q6",
        graph=q6_session(1, 2, 2),
        template=bid_sessions_template(bids),
        source_rates={"source": bid_rate},
    )


#: validate-runtime query name -> scenario builder.
SCENARIOS = {"q1": q1_scenario, "q2": q2_scenario, "q6": q6_scenario}


def default_cluster() -> Cluster:
    """Two r5d.xlarge workers, 4 slots each — small but contendable."""
    return Cluster.homogeneous(R5D_XLARGE.with_slots(4), count=2)


def cross_validate(
    queries: Sequence[str] = ("q1", "q2", "q6"),
    duration_s: float = 12.0,
    warmup_s: float = 2.0,
    rate_scale: float = 1.0,
    seed: int = 7,
    cluster: Optional[Cluster] = None,
    tracer=None,
    registry=None,
) -> List[ValidationRow]:
    """Run each query through both engines and report prediction error.

    Both engines see the same physical graph, the same placement (Flink
    evenly, seed 0), the same target rates and the same
    :class:`SimulationConfig`; the runtime additionally consumes a
    seeded Nexmark dataset generated at those rates. Errors:
    relative for throughput, absolute for the backpressure *share* (a
    fraction of target already).
    """
    unknown = [query for query in queries if query not in SCENARIOS]
    if unknown:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown query {unknown[0]!r}; known: {known}")
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration_s must be finite and positive, got {duration_s}")
    if not (math.isfinite(warmup_s) and 0 <= warmup_s < duration_s):
        raise ValueError(
            f"warmup_s must be finite, non-negative and below duration_s "
            f"({duration_s}), got {warmup_s}"
        )
    cluster = cluster or default_cluster()
    config = SimulationConfig(dt=1.0, seed=seed, noise_std=0.0)
    rows: List[ValidationRow] = []
    for query in queries:
        scenario = SCENARIOS[query](duration_s, rate_scale, seed)
        physical = PhysicalGraph.expand(scenario.graph)
        plan = FlinkEvenlyStrategy(seed=0).place_validated(physical, cluster)

        fluid = FluidSimulation(
            physical,
            cluster,
            plan,
            source_rate_map(scenario.graph, scenario.source_rates),
            config=config,
            tracer=tracer,
            registry=registry,
        )
        fluid_job = fluid.run(duration_s, warmup_s=warmup_s).only

        executor = ShardedExecutor(
            scenario.template,
            physical=physical,
            plan=plan,
            cluster=cluster,
            source_rates=scenario.source_rates,
            config=config,
            tracer=tracer,
            registry=registry,
        )
        runtime_job = executor.run(duration_s, warmup_s=warmup_s).summary

        denom = max(fluid_job.throughput, 1e-9)
        rows.append(
            ValidationRow(
                query=scenario.query,
                target_rate=scenario.target_rate,
                fluid_throughput=fluid_job.throughput,
                runtime_throughput=runtime_job.throughput,
                throughput_error=abs(runtime_job.throughput - fluid_job.throughput)
                / denom,
                fluid_backpressure=fluid_job.backpressure,
                runtime_backpressure=runtime_job.backpressure,
                backpressure_error=abs(
                    runtime_job.backpressure - fluid_job.backpressure
                ),
            )
        )
    return rows


def format_validation(rows: Sequence[ValidationRow]) -> str:
    """Human-readable fluid-vs-runtime comparison table."""
    return format_table(
        [
            "query",
            "target/s",
            "fluid thpt",
            "runtime thpt",
            "thpt err",
            "fluid bp",
            "runtime bp",
            "bp err",
        ],
        [
            [
                row.query,
                f"{row.target_rate:.0f}",
                f"{row.fluid_throughput:.1f}",
                f"{row.runtime_throughput:.1f}",
                f"{row.throughput_error:.1%}",
                f"{row.fluid_backpressure:.3f}",
                f"{row.runtime_backpressure:.3f}",
                f"{row.backpressure_error:.3f}",
            ]
            for row in rows
        ],
        title="fluid model vs sharded runtime",
    )
