"""The DS2 scaling model ("three steps is all you need", OSDI 2018).

Given per-operator true processing rates and observed selectivities, DS2
computes target parallelisms in a single topological pass:

1. a source operator's target output rate is its target input rate
   times its selectivity;
2. a non-source operator's target input rate is the sum of its upstream
   operators' target output rates (scaled by how much of each upstream
   stream reaches it);
3. its parallelism is ``ceil(target input rate / true rate per task)``
   and its own target output rate is input times selectivity.

Source parallelism is not scaled (sources are rate generators whose
parallelism the deployment fixes), matching the paper's experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.dataflow.graph import LogicalGraph
from repro.scaling.rates import OperatorRates
from repro.units import Fraction, RecordsPerSecond

OperatorKey = Tuple[str, str]

#: Floor applied to measured true rates, so a starved task (or an
#: operator with no rates) cannot cause a divide-by-zero explosion.
MIN_TRUE_RATE: RecordsPerSecond = 1e-6


@dataclass(frozen=True)
class ScalingDecision:
    """Output of one DS2 evaluation for one job."""

    parallelism: Dict[str, int]
    target_input_rates: Dict[str, float]
    changed: bool

    def total_tasks(self) -> int:
        return sum(self.parallelism.values())


class DS2Controller:
    """DS2 for one logical job.

    Args:
        graph: The job's logical graph (with its *current* parallelism).
        max_parallelism: Per-operator parallelism cap (defaults to
            unbounded; the harness passes the cluster slot budget).
        utilisation_target: Fraction of a task's true rate DS2 plans to
            use; 1.0 is the classic DS2 model. Values below 1 add
            headroom.
    """

    def __init__(
        self,
        graph: LogicalGraph,
        max_parallelism: Optional[int] = None,
        utilisation_target: Fraction = 1.0,
    ) -> None:
        graph.validate()
        if not 0 < utilisation_target <= 1.0:
            raise ValueError("utilisation_target must be in (0, 1]")
        self.graph = graph
        self.max_parallelism = max_parallelism
        self.utilisation_target = utilisation_target

    # ------------------------------------------------------------------
    def decide(
        self,
        operator_rates: Mapping[OperatorKey, OperatorRates],
        target_source_rates: Mapping[str, RecordsPerSecond],
        current_parallelism: Optional[Mapping[str, int]] = None,
    ) -> ScalingDecision:
        """One DS2 evaluation.

        Args:
            operator_rates: Windowed operator aggregates from the metrics
                collector, keyed by (job_id, operator).
            target_source_rates: Desired generation rate per source
                operator name.
            current_parallelism: The deployment's current parallelism
                (defaults to the graph's); used to report ``changed``.

        Returns:
            The parallelism DS2 prescribes for every operator.
        """
        job = self.graph.job_id
        current = dict(current_parallelism or self.graph.parallelism_map())
        parallelism: Dict[str, int] = {}
        target_in: Dict[str, float] = {}
        target_out: Dict[str, float] = {}

        for op in self.graph.topological_order():
            spec = self.graph.operator(op)
            rates = operator_rates.get((job, op))
            selectivity = (
                rates.selectivity(fallback=spec.selectivity)
                if rates is not None
                else spec.selectivity
            )
            if spec.is_source:
                if op not in target_source_rates:
                    raise KeyError(f"no target rate for source {op!r}")
                rate_in = float(target_source_rates[op])
                parallelism[op] = current.get(op, self.graph.parallelism(op))
            else:
                rate_in = 0.0
                for edge in self.graph.upstream(op):
                    # HASH/REBALANCE edges deliver the full upstream output
                    # to this operator; the physical fan-out shares are a
                    # partitioning detail below the operator level.
                    rate_in += target_out[edge.src]
                true_rate = MIN_TRUE_RATE
                if rates is not None:
                    true_rate = max(rates.true_rate_per_task, MIN_TRUE_RATE)
                required = rate_in / (true_rate * self.utilisation_target)
                p = max(1, math.ceil(required - 1e-9))
                if self.max_parallelism is not None:
                    p = min(p, self.max_parallelism)
                parallelism[op] = p
            target_in[op] = rate_in
            target_out[op] = rate_in * selectivity

        changed = any(
            parallelism[op] != current.get(op, parallelism[op]) for op in parallelism
        )
        return ScalingDecision(
            parallelism=parallelism,
            target_input_rates=target_in,
            changed=changed,
        )
