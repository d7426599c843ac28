"""ODRP: Optimal DSP Replication and Placement (baseline, section 6.3).

A reimplementation of the joint replication + placement ILP of
Cardellini et al. ("Optimal operator replication and placement for
distributed stream processing systems", SIGMETRICS PER 2017), adapted to
the slot-based resource model the way the CAPSys paper describes its
comparison setup: an operator's execution time is the inverse of its
true processing rate, every node has the same speed-up rate, every link
the same latency and bandwidth, one slot per task, perfect availability.

The model jointly chooses each operator's parallelism (replication) and
the worker of every replica, minimising a weighted sum of:

- **latency**: the sum of operator execution times, where replication
  ``k`` divides an operator's execution time by ``k`` (the model's
  speed-up assumption), plus a propagation-delay penalty per pair of
  workers exchanging traffic;
- **network**: edge traffic rates, charged whenever the two endpoint
  operators occupy different workers;
- **cost**: slots used plus workers activated.

Crucially — and this is the failure mode the paper demonstrates — the
formulation has *no constraint that the deployment sustains the input
rate*: configurations weighting cost return under-provisioned plans that
collapse under load, and the latency-only configuration over-provisions.

Solved with :func:`scipy.optimize.milp` (branch-and-bound), which
reproduces the decision-time gap against CAPS: exhaustive ILP solving
versus a pruned DFS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.dataflow.cluster import Cluster, WorkerSpec
from repro.dataflow.graph import LogicalGraph
from repro.dataflow.physical import PhysicalGraph
from repro.core.cost_model import UnitCosts
from repro.observability import clock
from repro.core.plan import PlacementPlan


@dataclass(frozen=True)
class OdrpConfig:
    """Objective weights for one ODRP run.

    The three presets correspond to the paper's Table 3 rows:

    - :meth:`default`: equal weight on all objectives.
    - :meth:`weighted`: hand-tuned to emphasise "throughput and resource
      efficiency" — more replication pressure than default, but strong
      network emphasis that co-locates traffic-heavy operators.
    - :meth:`latency`: only the latency objective.
    """

    w_latency: float = 1.0
    w_network: float = 1.0
    w_cost: float = 1.0
    label: str = "custom"

    def __post_init__(self) -> None:
        if min(self.w_latency, self.w_network, self.w_cost) < 0:
            raise ValueError("weights must be non-negative")
        if self.w_latency + self.w_network + self.w_cost <= 0:
            raise ValueError("at least one weight must be positive")

    @classmethod
    def default(cls) -> "OdrpConfig":
        return cls(w_latency=1.0, w_network=1.0, w_cost=1.0, label="ODRP-Default")

    @classmethod
    def weighted(cls) -> "OdrpConfig":
        return cls(w_latency=2.5, w_network=1.5, w_cost=0.5, label="ODRP-Weighted")

    @classmethod
    def latency(cls) -> "OdrpConfig":
        return cls(w_latency=1.0, w_network=0.0, w_cost=0.0, label="ODRP-Latency")


@dataclass
class OdrpResult:
    """Solution of one ODRP instance."""

    parallelism: Dict[str, int]
    plan: PlacementPlan
    physical: PhysicalGraph
    decision_time_s: float
    objective: float
    slots_used: int
    status: str


class OdrpSolver:
    """Builds and solves the ODRP MILP for one logical query.

    Args:
        graph: The logical query (single job).
        cluster: The worker cluster.
        unit_costs: Profiled per-record costs per operator name.
        source_rates: Target rate per source operator name.
        config: Objective weights.
        max_parallelism: Upper bound on per-operator replication; defaults
            to the cluster slot count.
        fixed_parallelism: Operators whose parallelism is not free (the
            experiments pin sources to match the CAPSys deployment).
        time_limit_s: Solver time budget.
    """

    def __init__(
        self,
        graph: LogicalGraph,
        cluster: Cluster,
        unit_costs: Mapping[str, UnitCosts],
        source_rates: Mapping[str, float],
        config: Optional[OdrpConfig] = None,
        max_parallelism: Optional[int] = None,
        fixed_parallelism: Optional[Mapping[str, int]] = None,
        time_limit_s: float = 300.0,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.cluster = cluster
        self.config = config or OdrpConfig.default()
        self.unit_costs = dict(unit_costs)
        self.source_rates = dict(source_rates)
        self.fixed_parallelism = dict(fixed_parallelism or {})
        self.time_limit_s = time_limit_s

        self.ops: List[str] = graph.topological_order()
        missing = set(self.ops) - set(self.unit_costs)
        if missing:
            raise KeyError(f"missing unit costs for operators {sorted(missing)}")
        self.workers: List[int] = [w.worker_id for w in cluster.workers]
        self.k_max = int(max_parallelism or cluster.total_slots)
        if self.k_max < 1:
            raise ValueError("max_parallelism must be >= 1")

        self._edge_rates = self._compute_edge_rates()
        self._exec_time = {op: self._execution_time(op) for op in self.ops}

    # ------------------------------------------------------------------
    # Model inputs
    # ------------------------------------------------------------------
    def _compute_edge_rates(self) -> Dict[Tuple[str, str], float]:
        """Per logical edge: traffic in bytes/s at the target input rate.

        This is the paper's "lambda value (data transfer rate) according
        to the target input rate and operator selectivity".
        """
        in_rate: Dict[str, float] = {}
        out_rate: Dict[str, float] = {}
        for op in self.ops:
            spec = self.graph.operator(op)
            if spec.is_source:
                rate = self.source_rates.get(op, 0.0)
            else:
                rate = sum(out_rate[e.src] for e in self.graph.upstream(op))
            in_rate[op] = rate
            out_rate[op] = rate * self.unit_costs[op].selectivity
        rates: Dict[Tuple[str, str], float] = {}
        for edge in self.graph.edges:
            rec_bytes = max(1.0, self.unit_costs[edge.src].net_bytes_per_record)
            rates[(edge.src, edge.dst)] = out_rate[edge.src] * rec_bytes
        return rates

    def _execution_time(self, op: str) -> float:
        """Per-record service time: the inverse of the true processing rate."""
        uc = self.unit_costs[op]
        spec: WorkerSpec = self.cluster.workers[0].spec
        return (
            uc.cpu_per_record
            + uc.io_bytes_per_record / spec.disk_bandwidth
            + uc.selectivity * uc.net_bytes_per_record / spec.network_bandwidth
        )

    # ------------------------------------------------------------------
    # MILP assembly
    # ------------------------------------------------------------------
    def solve(self) -> OdrpResult:
        # scipy.optimize takes about half a second to import and only
        # this solver needs it, so it loads on the first solve rather
        # than with repro.placement.
        from scipy.optimize import Bounds, LinearConstraint, milp

        ops, workers, K = self.ops, self.workers, self.k_max
        n_ops, n_w = len(ops), len(workers)
        edges = [(e.src, e.dst) for e in self.graph.edges]
        pairs = [(w1, w2) for w1 in range(n_w) for w2 in range(n_w) if w1 != w2]

        # Variable layout: p[o,k] | r[o,w] | z[o,w] | y[w] | q[e,(w1,w2)]
        P0 = 0
        R0 = P0 + n_ops * K
        Z0 = R0 + n_ops * n_w
        Y0 = Z0 + n_ops * n_w
        Q0 = Y0 + n_w
        n_vars = Q0 + len(edges) * len(pairs)

        def pi(o: int, k: int) -> int:  # k in 1..K
            return P0 + o * K + (k - 1)

        def ri(o: int, w: int) -> int:
            return R0 + o * n_w + w

        def zi(o: int, w: int) -> int:
            return Z0 + o * n_w + w

        def yi(w: int) -> int:
            return Y0 + w

        def qi(e: int, p_idx: int) -> int:
            return Q0 + e * len(pairs) + p_idx

        rows: List[np.ndarray] = []
        lbs: List[float] = []
        ubs: List[float] = []

        def add(coeffs: Dict[int, float], lb: float, ub: float) -> None:
            row = np.zeros(n_vars)
            for idx, val in coeffs.items():
                row[idx] = val
            rows.append(row)
            lbs.append(lb)
            ubs.append(ub)

        op_index = {op: i for i, op in enumerate(ops)}
        for o, op in enumerate(ops):
            # exactly one parallelism choice
            add({pi(o, k): 1.0 for k in range(1, K + 1)}, 1.0, 1.0)
            # replicas match chosen parallelism
            coeffs = {ri(o, w): 1.0 for w in range(n_w)}
            for k in range(1, K + 1):
                coeffs[pi(o, k)] = -float(k)
            add(coeffs, 0.0, 0.0)
            if op in self.fixed_parallelism:
                k_fixed = self.fixed_parallelism[op]
                if not 1 <= k_fixed <= K:
                    raise ValueError(f"fixed parallelism for {op!r} out of range")
                add({pi(o, k_fixed): 1.0}, 1.0, 1.0)
            for w in range(n_w):
                # link r and z
                add({ri(o, w): 1.0, zi(o, w): -float(K)}, -np.inf, 0.0)
                add({zi(o, w): 1.0, ri(o, w): -1.0}, -np.inf, 0.0)
                # worker activation
                add({zi(o, w): 1.0, yi(w): -1.0}, -np.inf, 0.0)
        for w, worker_id in enumerate(workers):
            slots = self.cluster.slots_of(worker_id)
            add({ri(o, w): 1.0 for o in range(n_ops)}, 0.0, float(slots))
        for e, (src, dst) in enumerate(edges):
            o_src, o_dst = op_index[src], op_index[dst]
            for p_idx, (w1, w2) in enumerate(pairs):
                # q >= z_src,w1 + z_dst,w2 - 1
                add(
                    {zi(o_src, w1): 1.0, zi(o_dst, w2): 1.0, qi(e, p_idx): -1.0},
                    -np.inf,
                    1.0,
                )

        # ------------------------------------------------------------------
        # Objective (normalised so the three terms are comparable).
        # ------------------------------------------------------------------
        c = np.zeros(n_vars)
        total_exec = sum(self._exec_time[op] for op in ops) or 1.0
        total_traffic = sum(self._edge_rates.values()) or 1.0
        total_slots = float(self.cluster.total_slots)
        link_latency = self.cluster.link_latency_s

        for o, op in enumerate(ops):
            for k in range(1, K + 1):
                # execution time shrinks with replication (speed-up model)
                c[pi(o, k)] += self.config.w_latency * (
                    self._exec_time[op] / k
                ) / total_exec
                c[pi(o, k)] += self.config.w_cost * k / total_slots
        for e, (src, dst) in enumerate(edges):
            traffic = self._edge_rates[(src, dst)]
            for p_idx in range(len(pairs)):
                # Network objective: charge an edge's (normalised) traffic
                # once per worker pair it spans, so spreading an operator
                # over more workers costs more network.
                c[qi(e, p_idx)] += (
                    self.config.w_network * traffic / total_traffic / len(pairs)
                )
                # Latency objective: one propagation delay per edge hop;
                # averaged over pairs so the penalty approximates "does
                # this edge cross workers", not "how many pairs exist" —
                # otherwise the pair count swamps the execution-time term
                # and artificially suppresses replication.
                c[qi(e, p_idx)] += (
                    self.config.w_latency
                    * link_latency
                    / max(total_exec, 1e-9)
                    / len(pairs)
                )
        for w in range(n_w):
            c[yi(w)] += self.config.w_cost * 0.25 / n_w

        integrality = np.ones(n_vars)
        lower = np.zeros(n_vars)
        upper = np.ones(n_vars)
        upper[R0:Z0] = float(K)  # r variables are general integers

        started = clock.monotonic()
        result = milp(
            c=c,
            constraints=LinearConstraint(np.vstack(rows), np.array(lbs), np.array(ubs)),
            integrality=integrality,
            bounds=Bounds(lower, upper),
            options={"time_limit": self.time_limit_s},
        )
        decision_time = clock.elapsed_since(started)
        if result.x is None:
            raise RuntimeError(f"ODRP MILP failed: {result.message}")

        x = np.round(result.x).astype(int)
        parallelism: Dict[str, int] = {}
        for o, op in enumerate(ops):
            parallelism[op] = sum(x[ri(o, w)] for w in range(n_w))
        scaled = self.graph.with_parallelism(parallelism)
        physical = PhysicalGraph.expand(scaled)
        counts: Dict[Tuple[str, str], Dict[int, int]] = {}
        for o, op in enumerate(ops):
            per_worker = {
                workers[w]: int(x[ri(o, w)])
                for w in range(n_w)
                if x[ri(o, w)] > 0
            }
            counts[(scaled.job_id, op)] = per_worker
        plan = PlacementPlan.from_operator_counts(physical, counts)
        plan.validate(physical, self.cluster)
        return OdrpResult(
            parallelism=parallelism,
            plan=plan,
            physical=physical,
            decision_time_s=decision_time,
            objective=float(result.fun),
            slots_used=sum(parallelism.values()),
            status=str(result.message),
        )
