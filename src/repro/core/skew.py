"""Skew-aware placement groups (paper section 5.2, "Addressing data skew").

CAPS assumes tasks of one operator are identical. Under data skew, a
skew-aware partitioner assigns keys so that tasks of an operator fall
into a small number of *placement groups* with (approximately) equal
resource demand within each group; CAPS then explores each group as its
own outer-search layer — which
:class:`~repro.core.search.CapsSearch` already does automatically for
tasks with distinct utilisations.

This module supplies the inputs: skewed per-task rate splits (Zipf-like
key popularity), their quantisation into demand buckets, and
a :class:`~repro.core.cost_model.TaskCosts` builder that applies a
skewed split to chosen operators instead of the uniform one.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.dataflow.physical import PhysicalGraph
from repro.core.cost_model import TaskCosts, UnitCosts, propagate_rates

OperatorKey = Tuple[str, str]


def zipf_shares(n: int, exponent: float = 1.0) -> List[float]:
    """Normalised Zipf(``exponent``) shares over ``n`` tasks.

    ``exponent = 0`` degenerates to a uniform split; larger exponents
    concentrate load on the first tasks. Shares sum to 1.
    """
    if n < 1:
        raise ValueError("need at least one task")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    weights = [1.0 / (rank ** exponent) for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def bucket_shares(shares: Sequence[float], groups: int) -> List[float]:
    """Quantise shares into ``groups`` demand levels (placement groups).

    Skew-aware partitioners produce task groups of *equal* demand within
    each group (the paper's premise); quantising a raw skew profile into
    a few levels models that: every share is replaced by the mean of its
    bucket, preserving the total.
    """
    if groups < 1:
        raise ValueError("need at least one group")
    if not shares:
        raise ValueError("need at least one share")
    order = sorted(range(len(shares)), key=lambda i: -shares[i])
    bucketed = [0.0] * len(shares)
    size = -(-len(shares) // groups)  # ceil
    for b in range(0, len(order), size):
        members = order[b : b + size]
        mean = sum(shares[i] for i in members) / len(members)
        for i in members:
            bucketed[i] = mean
    total = sum(bucketed)
    return [b / total for b in bucketed]


def skewed_task_costs(
    physical: PhysicalGraph,
    unit_costs: Mapping[OperatorKey, UnitCosts],
    source_rates: Mapping[OperatorKey, float],
    skewed_operators: Mapping[OperatorKey, Sequence[float]],
) -> TaskCosts:
    """Task costs where chosen operators receive a skewed rate split.

    Args:
        physical: The physical execution graph.
        unit_costs: Profiled per-record costs per operator.
        source_rates: Target rate per source operator.
        skewed_operators: Per-operator share vectors (one entry per task
            of the operator, summing to ~1). Operators absent here keep
            the uniform split.

    Returns:
        A :class:`TaskCosts` whose per-task utilisations reflect the
        skewed input rates. Feeding it to :class:`CapsSearch` makes the
        search treat each distinct-demand bucket as its own placement
        group (an extra outer layer).
    """
    selectivities = {key: uc.selectivity for key, uc in unit_costs.items()}
    uniform = propagate_rates(physical, source_rates, selectivities)

    rates: Dict[str, float] = dict(uniform)
    for key, shares in skewed_operators.items():
        tasks = physical.operator_tasks(*key)
        if len(shares) != len(tasks):
            raise ValueError(
                f"{key}: {len(shares)} shares for {len(tasks)} tasks"
            )
        share_sum = sum(shares)
        if not math.isclose(share_sum, 1.0, rel_tol=1e-6):
            raise ValueError(f"{key}: shares sum to {share_sum}, expected 1")
        operator_rate = sum(uniform[t.uid] for t in tasks)
        for task, share in zip(tasks, shares):
            rates[task.uid] = operator_rate * share

    u_cpu: Dict[str, float] = {}
    u_io: Dict[str, float] = {}
    u_net: Dict[str, float] = {}
    for task in physical.tasks:
        key = (task.job_id, task.operator)
        uc = unit_costs[key]
        rate = rates[task.uid]
        u_cpu[task.uid] = rate * uc.cpu_per_record
        u_io[task.uid] = rate * uc.io_bytes_per_record
        u_net[task.uid] = rate * uc.selectivity * uc.net_bytes_per_record
    return TaskCosts(physical, u_cpu, u_io, u_net, rates)
