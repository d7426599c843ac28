"""The CAPS cost model (paper section 4.2, Eq. 4-8).

The model captures cluster resource imbalance as *the difference of the
bottleneck worker's load from the ideal load* along three dimensions:

- **compute cost** ``C_cpu``: Eq. 4-7 over per-task CPU utilisation,
- **state access cost** ``C_io``: the same equations over per-task disk
  read+write rates,
- **network cost** ``C_net``: Eq. 8, where a task's outbound traffic is
  its output rate scaled by the fraction of its downstream physical
  links that cross worker boundaries, with the approximations
  ``L_net_min = 0`` and ``L_net_max = sum of the top-s output rates``.

Each cost lies in [0, 1]: 0 is a perfectly balanced assignment and 1 the
worst case where the ``s`` most intensive tasks share one worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.dataflow.cluster import Cluster
from repro.dataflow.graph import OperatorSpec
from repro.dataflow.physical import PhysicalGraph, Task
from repro.core.plan import PlacementPlan

DIMENSIONS: Tuple[str, str, str] = ("cpu", "io", "net")

#: Tolerance of Eq. 9: a plan satisfies alpha in a dimension when its
#: normalised cost is at most ``alpha + ALPHA_EPS``.
ALPHA_EPS = 1e-9


@dataclass(frozen=True)
class UnitCosts:
    """Per-record resource costs of one operator, as profiling produces.

    These are the quantities the CAPSys profiling phase records per
    operator (paper section 5.1): CPU seconds, state-backend bytes, and
    emitted bytes, each normalised per record, plus the observed
    selectivity used to propagate rates downstream.
    """

    #: CPU-seconds per input record.
    cpu_per_record: float
    #: State-backend bytes (read+write) per input record.
    io_bytes_per_record: float
    #: Emitted bytes per *output* record (the profiler divides the
    #: network metric by the observed output rate, paper section 5.1).
    net_bytes_per_record: float
    #: Output records per input record.
    selectivity: float

    def __post_init__(self) -> None:
        for name in ("cpu_per_record", "io_bytes_per_record", "net_bytes_per_record", "selectivity"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative")

    @classmethod
    def from_spec(cls, spec: OperatorSpec) -> "UnitCosts":
        """Ground-truth unit costs straight from the operator spec.

        The CPU cost folds in the *average* garbage-collection overhead,
        matching what a profiling phase measuring CPU utilisation over a
        window would observe.
        """
        gc_factor = 1.0
        if spec.gc_spike is not None:
            gc_factor += spec.gc_spike.magnitude * (
                spec.gc_spike.duration_s / spec.gc_spike.period_s
            )
        return cls(
            cpu_per_record=spec.cpu_per_record * gc_factor,
            io_bytes_per_record=spec.io_bytes_per_record,
            net_bytes_per_record=spec.out_record_bytes,
            selectivity=spec.selectivity,
        )


@dataclass(frozen=True)
class CostVector:
    """The cost vector ``C = [C_cpu, C_io, C_net]`` of a placement plan."""

    cpu: float
    io: float
    net: float

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.cpu, self.io, self.net)

    def __getitem__(self, dimension: str) -> float:
        if dimension not in DIMENSIONS:
            raise KeyError(f"unknown dimension {dimension!r}")
        return getattr(self, dimension)

    def dominates(self, other: "CostVector", eps: float = 1e-12) -> bool:
        """Pareto dominance: no worse in all dimensions, better in one."""
        no_worse = all(
            self[d] <= other[d] + eps for d in DIMENSIONS
        )
        strictly_better = any(self[d] < other[d] - eps for d in DIMENSIONS)
        return no_worse and strictly_better

    def within(self, thresholds: "CostVector", eps: float = ALPHA_EPS) -> bool:
        """Whether every dimension satisfies Eq. 9 for the given alphas."""
        return all(self[d] <= thresholds[d] + eps for d in DIMENSIONS)

    def total(self) -> float:
        """Scalarisation used to pick one plan from the pareto front."""
        return self.cpu + self.io + self.net

    def weighted_total(self, weights: Optional[Mapping[str, float]] = None) -> float:
        """Weighted scalarisation; dimensions a deployment is not
        sensitive to get (near-)zero weight so their imbalance cannot
        trade away balance in a dimension that matters."""
        if weights is None:
            return self.total()
        return sum(self[d] * weights.get(d, 1.0) for d in DIMENSIONS)

    @classmethod
    def unbounded(cls) -> "CostVector":
        return cls(math.inf, math.inf, math.inf)


def propagate_rates(
    physical: PhysicalGraph,
    source_rates: Mapping[Tuple[str, str], float],
    selectivities: Optional[Mapping[Tuple[str, str], float]] = None,
) -> Dict[str, float]:
    """Steady-state per-task input rates implied by source target rates.

    Rates flow along physical channels: a task's input rate is the sum
    over its in-channels of the upstream task's output rate times the
    channel share; a task's output rate is its input rate times its
    selectivity (a source's "input" rate is its generation rate).

    Args:
        source_rates: target generation rate per (job_id, operator) for
            every source operator; a source's tasks split it evenly.
        selectivities: optional per-operator selectivity override (the
            profiler supplies observed selectivities); defaults to the
            operator specs.

    Returns:
        Mapping from task uid to input rate (records/second).
    """
    in_rate: Dict[str, float] = {}
    out_rate: Dict[str, float] = {}
    for task in physical.tasks:  # tasks are stored in topological order per job
        spec = physical.spec_of(task)
        key = (task.job_id, task.operator)
        if spec.is_source:
            if key not in source_rates:
                raise KeyError(f"no target rate for source operator {key}")
            members = physical.operator_tasks(*key)
            rate = source_rates[key] / len(members)
        else:
            rate = sum(
                out_rate[ch.src.uid] * ch.share for ch in physical.in_channels(task)
            )
        selectivity = (
            selectivities[key]
            if selectivities is not None and key in selectivities
            else spec.selectivity
        )
        in_rate[task.uid] = rate
        out_rate[task.uid] = rate * selectivity
    return in_rate


class TaskCosts:
    """Per-task resource utilisations ``U_cpu``, ``U_io``, ``U_net``.

    ``U_cpu(t)`` is CPU-seconds per second, ``U_io(t)`` state-access
    bytes per second, ``U_net(t)`` output bytes per second (paper
    Table 1). Computed by multiplying each task's steady-state rate with
    the operator's per-record unit costs, exactly as CAPSys does on
    reconfiguration (section 5.1: "multiplying its target rate and its
    corresponding unit cost").
    """

    def __init__(
        self,
        physical: PhysicalGraph,
        u_cpu: Mapping[str, float],
        u_io: Mapping[str, float],
        u_net: Mapping[str, float],
        in_rates: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.physical = physical
        for name, table in (("u_cpu", u_cpu), ("u_io", u_io), ("u_net", u_net)):
            missing = {t.uid for t in physical.tasks} - set(table)
            if missing:
                raise ValueError(f"{name} missing tasks: {sorted(missing)[:3]} ...")
        self.u_cpu = dict(u_cpu)
        self.u_io = dict(u_io)
        self.u_net = dict(u_net)
        self.in_rates = dict(in_rates) if in_rates is not None else {}

    @classmethod
    def from_unit_costs(
        cls,
        physical: PhysicalGraph,
        unit_costs: Mapping[Tuple[str, str], UnitCosts],
        source_rates: Mapping[Tuple[str, str], float],
    ) -> "TaskCosts":
        """Combine profiled unit costs with target rates (section 5.1)."""
        selectivities = {key: uc.selectivity for key, uc in unit_costs.items()}
        rates = propagate_rates(physical, source_rates, selectivities)
        u_cpu: Dict[str, float] = {}
        u_io: Dict[str, float] = {}
        u_net: Dict[str, float] = {}
        for task in physical.tasks:
            key = (task.job_id, task.operator)
            if key not in unit_costs:
                raise KeyError(f"no unit costs for operator {key}")
            uc = unit_costs[key]
            rate = rates[task.uid]
            u_cpu[task.uid] = rate * uc.cpu_per_record
            u_io[task.uid] = rate * uc.io_bytes_per_record
            u_net[task.uid] = rate * uc.selectivity * uc.net_bytes_per_record
        return cls(physical, u_cpu, u_io, u_net, rates)

    @classmethod
    def from_specs(
        cls,
        physical: PhysicalGraph,
        source_rates: Mapping[Tuple[str, str], float],
    ) -> "TaskCosts":
        """Ground-truth costs straight from operator specs (no profiling)."""
        unit_costs: Dict[Tuple[str, str], UnitCosts] = {}
        for key in physical.operator_keys():
            first_task = physical.operator_tasks(*key)[0]
            unit_costs[key] = UnitCosts.from_spec(physical.spec_of(first_task))
        return cls.from_unit_costs(physical, unit_costs, source_rates)

    def of(self, dimension: str) -> Dict[str, float]:
        if dimension == "cpu":
            return self.u_cpu
        if dimension == "io":
            return self.u_io
        if dimension == "net":
            return self.u_net
        raise KeyError(f"unknown dimension {dimension!r}")

    def operator_totals(self, dimension: str) -> Dict[Tuple[str, str], float]:
        """Total utilisation per logical operator, used for reordering."""
        table = self.of(dimension)
        totals: Dict[Tuple[str, str], float] = {}
        for task in self.physical.tasks:
            key = (task.job_id, task.operator)
            totals[key] = totals.get(key, 0.0) + table[task.uid]
        return totals


class CostModel:
    """Evaluates the cost vector of placement plans (Eq. 4-8).

    Precomputes the placement-independent quantities: the ideal loads
    ``L_min`` (Eq. 6), the worst-case loads ``L_max`` over the top-``s``
    tasks (Eq. 7, and the ``T_net`` approximation for the network
    dimension), and the downstream degrees ``|D(t)|`` used by Eq. 8.
    """

    def __init__(
        self, physical: PhysicalGraph, cluster: Cluster, costs: TaskCosts
    ) -> None:
        if costs.physical is not physical:
            # Allow equal-but-distinct graphs as long as the task universe matches.
            if {t.uid for t in costs.physical.tasks} != {t.uid for t in physical.tasks}:
                raise ValueError("TaskCosts were computed for a different graph")
        self.physical = physical
        self.cluster = cluster
        self.costs = costs
        self._slots = max(w.slots for w in cluster.workers)
        self._worker_count = len(cluster.workers)

        self._l_min: Dict[str, float] = {}
        self._l_max: Dict[str, float] = {}
        for dim in ("cpu", "io"):
            table = costs.of(dim)
            total = sum(table.values())
            self._l_min[dim] = total / self._worker_count
            top = sorted(table.values(), reverse=True)[: self._slots]
            self._l_max[dim] = sum(top)
        # Network approximations (section 4.2): L_net_min = 0 (all tasks
        # on one worker, no traffic); L_net_max = co-locating the tasks
        # with the highest output rates, T_net with |T_net| = s.
        net_table = costs.of("net")
        self._l_min["net"] = 0.0
        self._l_max["net"] = sum(sorted(net_table.values(), reverse=True)[: self._slots])
        # Eq. 4 divides by L_max - L_min; where the two are float-close,
        # every plan costs 0 in that dimension.
        self._flat: Dict[str, bool] = {
            dim: math.isclose(
                self._l_max[dim], self._l_min[dim], rel_tol=1e-12, abs_tol=1e-12
            )
            for dim in DIMENSIONS
        }

        self._down_degree: Dict[str, int] = {
            t.uid: physical.downstream_degree(t) for t in physical.tasks
        }

    # ------------------------------------------------------------------
    # Placement-independent quantities
    # ------------------------------------------------------------------
    def l_min(self, dimension: str) -> float:
        """The ideal per-worker load ``L_i^min`` (Eq. 6)."""
        return self._l_min[dimension]

    def l_max(self, dimension: str) -> float:
        """The worst-case per-worker load ``L_i^max`` (Eq. 7)."""
        return self._l_max[dimension]

    def is_flat(self, dimension: str) -> bool:
        """Whether every plan costs 0 in this dimension (``L_max ~= L_min``)."""
        return self._flat[dimension]

    def load_bound(self, dimension: str, alpha: float) -> float:
        """The pruning bound of Eq. 10: ``L_min + alpha (L_max - L_min)``."""
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if math.isinf(alpha):
            return math.inf
        return self._l_min[dimension] + alpha * (
            self._l_max[dimension] - self._l_min[dimension]
        )

    def dimension_sensitivity(self, dimension: str) -> float:
        """How close the worst-case co-location comes to saturating a worker.

        Ratio of ``L_i^max`` (the load of piling the ``s`` most intensive
        tasks onto one worker) to the smallest per-worker capacity in
        that dimension. Below ~1, even the most imbalanced plan cannot
        contend on this resource, so its *normalised* imbalance cost
        says nothing about performance — the situation the paper
        observes for Q1-sliding's network dimension ("C_net is not a
        dominant performance factor", Figure 5).
        """
        capacities = {
            "cpu": min(w.spec.cpu_capacity for w in self.cluster.workers),
            "io": min(w.spec.disk_bandwidth for w in self.cluster.workers),
            "net": min(w.spec.network_bandwidth for w in self.cluster.workers),
        }
        return self._l_max[dimension] / capacities[dimension]

    def insensitive_dimensions(self, kappa: float = 0.9) -> List[str]:
        """Dimensions whose imbalance cannot affect performance.

        ``kappa`` is the saturation fraction below which a dimension is
        declared insensitive: if even the worst-case co-location
        (``L_i^max``) cannot push a worker past ``kappa`` of its
        capacity, no plan can contend on this resource, so pruning and
        plan selection should ignore it — its normalised cost is noise,
        and weighting it would trade away balance in a dimension that
        actually binds.
        """
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        return [d for d in DIMENSIONS if self.dimension_sensitivity(d) < kappa]

    # ------------------------------------------------------------------
    # Per-plan loads and costs
    # ------------------------------------------------------------------
    def worker_loads(self, plan: PlacementPlan, dimension: str) -> Dict[int, float]:
        """Per-worker load for one dimension under a plan.

        For cpu/io this is the sum of task utilisations on the worker
        (Eq. 5); for net it is Eq. 8's cross-worker-scaled output rates.
        """
        loads: Dict[int, float] = {w.worker_id: 0.0 for w in self.cluster.workers}
        if dimension in ("cpu", "io"):
            table = self.costs.of(dimension)
            for task in self.physical.tasks:
                loads[plan.worker_of(task)] += table[task.uid]
            return loads
        if dimension != "net":
            raise KeyError(f"unknown dimension {dimension!r}")
        net = self.costs.of("net")
        for task in self.physical.tasks:
            degree = self._down_degree[task.uid]
            if degree == 0:
                continue  # sink task: no outbound links
            worker = plan.worker_of(task)
            remote = sum(
                1
                for ch in self.physical.out_channels(task)
                if plan.worker_of(ch.dst) != worker
            )
            loads[worker] += net[task.uid] * (remote / degree)
        return loads

    def load(self, plan: PlacementPlan, dimension: str) -> float:
        """The bottleneck-worker load ``L_i(f)`` (Eq. 5 / Eq. 8)."""
        return max(self.worker_loads(plan, dimension).values())

    def dimension_cost(self, plan: PlacementPlan, dimension: str) -> float:
        """Eq. 4 for one dimension: normalised bottleneck excess load."""
        if self._flat[dimension]:
            return 0.0
        l_max, l_min = self._l_max[dimension], self._l_min[dimension]
        return (self.load(plan, dimension) - l_min) / (l_max - l_min)

    def cost(self, plan: PlacementPlan) -> CostVector:
        """The full cost vector ``[C_cpu, C_io, C_net]`` of a plan."""
        return CostVector(
            cpu=self.dimension_cost(plan, "cpu"),
            io=self.dimension_cost(plan, "io"),
            net=self.dimension_cost(plan, "net"),
        )

    def cost_from_loads(self, loads: Mapping[str, float]) -> CostVector:
        """Cost vector from precomputed bottleneck loads (search fast path)."""
        values = {}
        for dim in DIMENSIONS:
            if self._flat[dim]:
                values[dim] = 0.0
            else:
                l_max, l_min = self._l_max[dim], self._l_min[dim]
                values[dim] = (loads[dim] - l_min) / (l_max - l_min)
        return CostVector(**values)
