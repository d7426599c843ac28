"""A record-level mini streaming runtime.

The fluid simulator (:mod:`repro.simulator`) reasons about *rates*; this
subpackage executes actual records through event-time streaming
semantics — watermarks, keyed state, tumbling/sliding/session windows,
and windowed joins — the way the paper's Flink queries do. It serves
three purposes:

1. the evaluation queries exist as *real streaming programs*, not just
   rate models (``repro.runtime.queries`` builds Q1/Q2/Q6 pipelines
   over Nexmark events and their outputs are verified against the
   reference semantics in :mod:`repro.workloads.nexmark`);
2. it measures operator statistics on real records (selectivity,
   state growth, state reads/writes per record). Nothing reads them
   back into the model: the unit-cost constants in
   :mod:`repro.workloads.queries` are chosen (DESIGN.md §1), and the
   paced executor is charged those same constants, so validation
   checks queueing, credits and partitioning, not the constants;
3. it demonstrates what the placement layer is placing: each pipeline
   stage corresponds to one logical operator of the placement problem.

Execution comes in two flavours. :class:`Pipeline` is single-threaded
and single-instance — the semantic reference. The *sharded* executor
(:mod:`repro.runtime.parallel`) runs the same templates as N
hash-partitioned operator instances per logical operator under a
placement from the placement layer, connected by bounded channels with
credit-based backpressure (:mod:`repro.runtime.channels`); everything
still runs deterministically in one process. Given no physical graph
it simply runs ``Pipeline.run``; on a physical graph with every
operator at parallelism 1 its scheduler reproduces ``Pipeline.run``'s
outputs and statistics exactly. Given a cluster it paces each operator
instance with record budgets from the fluid engine's own
resource-sharing step
(:func:`~repro.simulator.contention.share_resources`), configured by
the engine's :class:`~repro.simulator.engine.SimulationConfig`. The
cross-validation harness (:mod:`repro.experiments.validate_runtime`)
uses it to check the fluid simulator's predictions against actual
record execution.
"""

from repro.runtime.windows import (
    SessionMerger,
    SlidingWindows,
    TumblingWindows,
    Window,
)
from repro.runtime.state import KeyedState, SizedCounter, StateStats
from repro.runtime.operators import (
    FilterOperator,
    FlatMapOperator,
    MapOperator,
    Operator,
    OperatorStats,
    Record,
    SessionWindowOperator,
    WindowAggregateOperator,
    WindowJoinOperator,
)
from repro.runtime.executor import Pipeline, PipelineResult
from repro.runtime.channels import BoundedChannel, ChannelStats
from repro.runtime.parallel import (
    PipelineTemplate,
    RuntimeJobSummary,
    ShardedExecutor,
    ShardedResult,
    SourceDef,
    StageDef,
    stable_hash,
)

__all__ = [
    "BoundedChannel",
    "ChannelStats",
    "PipelineTemplate",
    "RuntimeJobSummary",
    "ShardedExecutor",
    "ShardedResult",
    "SourceDef",
    "StageDef",
    "stable_hash",
    "Window",
    "TumblingWindows",
    "SlidingWindows",
    "SessionMerger",
    "KeyedState",
    "SizedCounter",
    "StateStats",
    "Record",
    "Operator",
    "OperatorStats",
    "MapOperator",
    "FilterOperator",
    "FlatMapOperator",
    "WindowAggregateOperator",
    "SessionWindowOperator",
    "WindowJoinOperator",
    "Pipeline",
    "PipelineResult",
]
