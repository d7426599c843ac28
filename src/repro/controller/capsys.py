"""The CAPSys controller: auto-scaling and placement in concert.

Implements the workflow of paper Figure 6 against the fluid simulator:
profile once, let DS2 pick parallelism, let CAPS (or a baseline
strategy) place tasks, deploy, monitor, and reconfigure when DS2 asks
for a different parallelism. Reconfigurations pay a restart downtime
during which throughput is zero and backpressure is total, mirroring a
Flink stop/savepoint/restart cycle.

The same controller drives the baseline placement policies so that the
auto-scaling experiments (paper section 6.4) compare placement
strategies under an otherwise identical control loop.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.dataflow.cluster import Cluster
from repro.dataflow.graph import LogicalGraph
from repro.dataflow.physical import PhysicalGraph
from repro.core.cost_model import UnitCosts
from repro.core.plan import PlacementPlan
from repro.controller.events import AdaptiveRunResult, RescaleEvent, TimelineSample
from repro.controller.guards import ControlPlaneGuard, GuardConfig
from repro.controller.profiler import CostProfiler, OperatorKey
from repro.faults import (
    ChaosSchedule,
    CheckpointConfig,
    ClusterHealth,
    ControlChaosSchedule,
    ControlChaosView,
    observe_fault,
    recovery_downtime,
)
from repro.diagnosis.explain import Explanation
from repro.observability import MetricRegistry, Tracer, clock
from repro.placement.base import PlacementStrategy
from repro.placement.caps import CapsStrategy
from repro.placement.flink_evenly import FlinkEvenlyStrategy
from repro.scaling.ds2 import DS2Controller
from repro.scaling.rates import OperatorRates, aggregate_operator_rates
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.workloads.rates import RatePattern, TimeShiftedRate

#: DS2 plans to use this fraction of each task's true rate; below 1.0
#: leaves headroom for transient load peaks (GC spikes) and for
#: co-location interference the uncontended bootstrap oracle cannot see
#: (RocksDB compaction), which the paper's testbed sizing implicitly had.
DS2_UTILISATION_TARGET = 0.85


@dataclass(frozen=True)
class ControllerConfig:
    """Control-loop parameters (paper section 6.4 uses 90 s activation
    time and a 5 s policy interval)."""

    policy_interval_s: float = 5.0
    activation_time_s: float = 90.0
    rescale_downtime_s: float = 10.0
    profiling_duration_s: float = 120.0
    autotune_timeout_s: float = 5.0
    search_timeout_s: float = 5.0
    #: Worker processes for the placement search: 1 runs it in process,
    #: more partition it over a process pool (see repro.core.parallel).
    search_jobs: int = 1
    #: Checkpoint/restore cost model (disabled by default). When
    #: enabled, engines pay periodic checkpoint upload I/O and crash
    #: recovery pays a state-restore downtime instead of the flat
    #: ``rescale_downtime_s``.
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    #: Attach the root-cause diagnosis layer (contention attribution +
    #: backpressure provenance) to every deployed engine. Aggregates
    #: are flushed into the trace when each engine retires; overhead is
    #: a few percent of engine runtime (see BENCH_perf.json,
    #: ``diagnosis_overhead``).
    diagnose: bool = False
    #: Control-plane guard policy (metric validation, deploy retry,
    #: safe-mode watchdog). Guards arm only when ``run_adaptive`` is
    #: given a control-chaos schedule: a clean run has no guard state
    #: to report, so its outputs carry no guard rounds.
    guards: GuardConfig = field(default_factory=GuardConfig)
    seed: int = 0
    sim: SimulationConfig = field(default_factory=SimulationConfig)

    def __post_init__(self) -> None:
        for name in (
            "policy_interval_s",
            "activation_time_s",
            "rescale_downtime_s",
            "profiling_duration_s",
            "autotune_timeout_s",
            "search_timeout_s",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite; got {value}")
        if self.policy_interval_s <= 0:
            raise ValueError("policy_interval_s must be positive")
        if self.activation_time_s < 0 or self.rescale_downtime_s < 0:
            raise ValueError("times must be non-negative")
        if self.search_timeout_s <= 0:
            raise ValueError(
                f"search_timeout_s must be positive, got {self.search_timeout_s}"
            )
        if self.autotune_timeout_s <= 0:
            raise ValueError(
                f"autotune_timeout_s must be positive, got {self.autotune_timeout_s}"
            )
        if self.search_jobs < 1:
            raise ValueError(
                f"search_jobs must be >= 1, got {self.search_jobs}"
            )


@dataclass
class Deployment:
    """One running configuration of the job."""

    graph: LogicalGraph
    physical: PhysicalGraph
    plan: PlacementPlan
    engine: FluidSimulation
    started_at_s: float
    samples_taken: int = 0

    @property
    def parallelism(self) -> Dict[str, int]:
        return self.graph.parallelism_map()

    @property
    def total_tasks(self) -> int:
        return len(self.physical)


def operator_rates_from_unit_costs(
    graph: LogicalGraph,
    unit_costs: Mapping[OperatorKey, UnitCosts],
    cluster: Cluster,
) -> Dict[OperatorKey, OperatorRates]:
    """Uncontended operator rates implied by profiled unit costs.

    The true rate of one task running alone is the inverse of its
    per-record service time on the reference worker. Used to bootstrap
    DS2 before any live metrics exist, and as the "minimum required
    resources" oracle of the Table 4 accuracy analysis.
    """
    spec = cluster.workers[0].spec
    rates: Dict[OperatorKey, OperatorRates] = {}
    for op in graph.topological_order():
        key = (graph.job_id, op)
        uc = unit_costs[key]
        service = (
            uc.cpu_per_record
            + uc.io_bytes_per_record / spec.disk_bandwidth
            + uc.selectivity * uc.net_bytes_per_record / spec.network_bandwidth
        )
        true_rate = 1.0 / service if service > 0 else 1e12
        rates[key] = OperatorRates(
            true_rate_per_task=true_rate,
            observed_rate=1.0,
            observed_output_rate=uc.selectivity,
            busy_fraction=1.0,
        )
    return rates


def _parallelism_str(parallelism: Mapping[str, int]) -> str:
    """Compact deterministic rendering for trace args (plain scalar)."""
    return ",".join(f"{op}={p}" for op, p in sorted(parallelism.items()))


class CAPSysController:
    """Adaptive controller for one streaming job on one cluster.

    Args:
        graph: The job's logical graph (parallelism values are the
            starting configuration unless DS2 overrides them).
        cluster: The worker cluster.
        strategy: ``"caps"`` (build a CAPS strategy internally) or any
            :class:`~repro.placement.base.PlacementStrategy` instance
            (the baselines). Seeded strategies are reseeded from the
            controller's RNG before every placement so baseline
            randomness varies across reconfigurations, reproducibly.
        config: Control-loop parameters.
        unit_costs: Pre-computed profile; when omitted, :meth:`profile`
            runs the profiling job on first use.
        tracer: Optional :class:`~repro.observability.Tracer` threaded
            through every engine and strategy this controller builds:
            the adaptive loop emits sim-domain deploy / DS2-decision /
            rescale events (and a rescale downtime span) on the run's
            absolute simulated clock, stitching one timeline of
            ticks -> decisions -> search spans -> restarts.
        registry: Optional :class:`~repro.observability.MetricRegistry`
            shared with the engines and the placement strategy;
            controller-level counters track deploys, DS2 decisions,
            and rescales.
    """

    def __init__(
        self,
        graph: LogicalGraph,
        cluster: Cluster,
        strategy: Union[str, PlacementStrategy] = "caps",
        config: Optional[ControllerConfig] = None,
        unit_costs: Optional[Mapping[OperatorKey, UnitCosts]] = None,
        network_cap_bytes_per_s: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.cluster = cluster
        self.config = config or ControllerConfig()
        self.strategy_spec = strategy
        self.network_cap = network_cap_bytes_per_s
        self.tracer = tracer
        self.registry = registry
        self._unit_costs: Optional[Dict[OperatorKey, UnitCosts]] = (
            dict(unit_costs) if unit_costs is not None else None
        )
        self._rng = random.Random(self.config.seed)
        #: Fallback stage of the most recent placement (see
        #: :meth:`place`); ``None`` when the search produced the plan.
        self.last_placement_fallback: Optional[str] = None
        #: Structured explanation of the most recent placement decision
        #: (see :mod:`repro.diagnosis.explain`); ``None`` for baseline
        #: strategies that do not produce one.
        self.last_explanation: Optional[Explanation] = None
        #: Control-plane guard state, armed per :meth:`run_adaptive`
        #: call when a control-chaos schedule is in play; ``last_guard``
        #: survives the run for inspection.
        self._control_view: Optional[ControlChaosView] = None
        self._guard: Optional[ControlPlaneGuard] = None
        self._zombie = False
        self.last_guard: Optional[ControlPlaneGuard] = None
        self.ds2 = DS2Controller(
            graph,
            max_parallelism=cluster.total_slots,
            utilisation_target=DS2_UTILISATION_TARGET,
        )

    # ------------------------------------------------------------------
    # Workflow steps (Figure 6)
    # ------------------------------------------------------------------
    def profile(self) -> Dict[OperatorKey, UnitCosts]:
        """Step 2: run (or return the cached) profiling job."""
        if self._unit_costs is None:
            profiler = CostProfiler(
                worker_spec=self.cluster.workers[0].spec,
                duration_s=self.config.profiling_duration_s,
                config=self.config.sim,
            )
            self._unit_costs = profiler.profile(self.graph)
        return dict(self._unit_costs)

    def _fit_to_cluster(
        self, parallelism: Mapping[str, int], budget: Optional[int] = None
    ) -> Dict[str, int]:
        """Cap a scaling decision to the cluster's slot budget.

        DS2 with contention-corrupted metrics can demand more tasks than
        the (fixed) cluster has slots; a real deployment cannot grant
        that, so the largest operators are trimmed first until the
        decision fits. Sources are never trimmed below their configured
        parallelism. ``budget`` overrides the slot count for a
        fault-degraded cluster (surviving slots only).
        """
        fitted = dict(parallelism)
        if budget is None:
            budget = self.cluster.total_slots
        sources = set(self.graph.sources())
        while sum(fitted.values()) > budget:
            candidates = [
                op for op, p in fitted.items() if p > 1 and op not in sources
            ]
            if not candidates:
                raise RuntimeError(
                    "scaling decision cannot fit the cluster even at "
                    "parallelism 1 per operator"
                )
            biggest = max(candidates, key=lambda op: fitted[op])
            fitted[biggest] -= 1
        return fitted

    def initial_parallelism(
        self, target_rates: Mapping[str, float]
    ) -> Dict[str, int]:
        """Step 3 at deployment time: DS2 from profiled unit costs."""
        rates = operator_rates_from_unit_costs(
            self.graph, self.profile(), self.cluster
        )
        decision = self.ds2.decide(rates, target_rates)
        return self._fit_to_cluster(decision.parallelism)

    def _make_strategy(
        self, source_rates: Mapping[Tuple[str, str], float]
    ) -> PlacementStrategy:
        if isinstance(self.strategy_spec, str):
            if self.strategy_spec != "caps":
                raise ValueError(f"unknown strategy {self.strategy_spec!r}")
            unit_costs = self.profile()
            return CapsStrategy(
                source_rates=source_rates,
                unit_costs_provider=lambda physical: unit_costs,
                jobs=self.config.search_jobs,
                autotune_timeout_s=self.config.autotune_timeout_s,
                search_timeout_s=self.config.search_timeout_s,
                tracer=self.tracer,
                registry=self.registry,
            )
        strategy = self.strategy_spec
        if hasattr(strategy, "seed"):
            strategy.seed = self._rng.randrange(2**31)
        if isinstance(strategy, CapsStrategy):
            strategy.source_rates = dict(source_rates)
            strategy.tracer = self.tracer
            strategy.registry = self.registry
        return strategy

    def place(
        self,
        physical: PhysicalGraph,
        target_rates: Mapping[str, float],
        cluster: Optional[Cluster] = None,
    ) -> PlacementPlan:
        """Step 4: compute the placement for a physical graph.

        ``cluster`` overrides the search space (e.g. the surviving
        workers of a fault-degraded cluster); defaults to the full
        cluster. :attr:`last_placement_fallback` records whether the
        strategy degraded past its normal search (see
        :attr:`repro.placement.caps.CapsStrategy.last_fallback`).

        With guards armed, safe mode routes straight to the
        deterministic evenly baseline, and a strategy whose plan fails
        validation (the plan sanity guard) degrades to the same
        fallback instead of crashing the control loop.
        """
        source_rates = {
            (self.graph.job_id, op): float(rate) for op, rate in target_rates.items()
        }
        search_cluster = self.cluster if cluster is None else cluster
        guard = self._guard
        strategy = None
        if guard is None or not guard.safe_mode:
            strategy = self._make_strategy(source_rates)
            try:
                plan = strategy.place_validated(physical, search_cluster)
            except (ValueError, RuntimeError):
                if guard is None:
                    raise
                guard.plan_rejected()
                strategy = None
        if strategy is None:
            plan = FlinkEvenlyStrategy(seed=0).place_validated(
                physical, search_cluster
            )
            self.last_placement_fallback = "safe_mode"
            self.last_explanation = None
        else:
            self.last_placement_fallback = getattr(strategy, "last_fallback", None)
            self.last_explanation = getattr(strategy, "last_explanation", None)
        return plan

    def deploy(
        self,
        target_rates: Mapping[str, Union[float, RatePattern]],
        parallelism: Optional[Mapping[str, int]] = None,
        started_at_s: float = 0.0,
        health: Optional[ClusterHealth] = None,
        trigger: str = "initial",
    ) -> Deployment:
        """Steps 3-6: scale, place, and start an engine.

        ``trigger`` labels why this deployment happened (``"initial"``,
        ``"ds2"``, or a fault reason) in the persisted placement
        explanation.

        When a :class:`~repro.faults.ClusterHealth` is given, placement
        searches only the surviving workers — with degradations baked
        into their specs, so CAPS steers load away from stragglers —
        while the engine runs the survivors at their original specs with
        the degradation factors applied at runtime, so a later
        ``recover`` event can lift them mid-epoch.
        """
        plain_rates = {
            op: (rate(0.0) if isinstance(rate, RatePattern) else float(rate))
            for op, rate in target_rates.items()
        }
        search_cluster = None if health is None else health.placement_cluster()
        if self._guard is not None:
            self._guard.round_time_s = started_at_s
        if parallelism is None:
            parallelism = self.initial_parallelism(plain_rates)
        scaled = self.graph.with_parallelism(dict(parallelism))
        physical = PhysicalGraph.expand(scaled)
        plan = self.place(physical, plain_rates, cluster=search_cluster)
        deployment = self._start(
            scaled, physical, plan, target_rates, started_at_s, health
        )
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.event(
                "sim",
                "controller.deploy",
                started_at_s,
                cat="controller",
                args={
                    "total_tasks": deployment.total_tasks,
                    "parallelism": _parallelism_str(deployment.parallelism),
                },
            )
        if self.registry is not None:
            self.registry.counter(
                "controller_deploys_total", help="Deployments started."
            ).inc()
            self.registry.gauge(
                "controller_total_tasks",
                help="Tasks in the current deployment.",
            ).set(deployment.total_tasks)
        if self.last_placement_fallback is not None:
            if tr is not None and tr.enabled:
                tr.event(
                    "sim",
                    "controller.fallback",
                    started_at_s,
                    cat="controller",
                    args={"stage": self.last_placement_fallback},
                )
            if self.registry is not None:
                self.registry.counter(
                    "controller_fallback_total",
                    labels={"stage": self.last_placement_fallback},
                    help="Deployments placed via a fallback stage.",
                ).inc()
        if self.last_explanation is not None:
            # Wall domain: the margins derive from wall-tuned
            # thresholds, which the sim stream's byte-identity
            # contract must not depend on.
            self.last_explanation = self.last_explanation.with_trigger(trigger)
            if self._guard is not None:
                self.last_explanation = self.last_explanation.with_guard_verdict(
                    self._guard.verdict
                )
            if tr is not None and tr.enabled:
                tr.event(
                    "wall",
                    "diagnosis.explanation",
                    clock.monotonic(),
                    cat="diagnosis",
                    args=self.last_explanation.to_args(),
                )
        return deployment

    def _start(
        self,
        graph: LogicalGraph,
        physical: PhysicalGraph,
        plan: PlacementPlan,
        target_rates: Mapping[str, Union[float, RatePattern]],
        started_at_s: float,
        health: Optional[ClusterHealth] = None,
    ) -> Deployment:
        """Start an engine for a placed configuration.

        Without ``health`` the engine runs on the full cluster; with
        one, on the surviving workers with their degradation factors
        applied.
        """
        cluster = self.cluster if health is None else health.engine_cluster()
        engine = FluidSimulation(
            physical,
            cluster,
            plan,
            {(graph.job_id, op): rate for op, rate in target_rates.items()},
            config=self.config.sim,
            network_cap_bytes_per_s=self.network_cap,
            tracer=self.tracer,
            registry=self.registry,
        )
        engine.trace_time_offset_s = started_at_s
        if health is not None:
            engine.apply_worker_factors(*health.factor_arrays(cluster))
        if self.config.checkpoint.enabled:
            engine.enable_checkpoints(self.config.checkpoint, registry=self.registry)
        if self.config.diagnose:
            engine.enable_diagnosis()
        return Deployment(
            graph=graph,
            physical=physical,
            plan=plan,
            engine=engine,
            started_at_s=started_at_s,
        )

    # ------------------------------------------------------------------
    # Adaptive loop (section 6.4.2)
    # ------------------------------------------------------------------
    def run_adaptive(
        self,
        patterns: Mapping[str, RatePattern],
        duration_s: float,
        initial_parallelism: Optional[Mapping[str, int]] = None,
        chaos: Optional[ChaosSchedule] = None,
        control_chaos: Optional[ControlChaosSchedule] = None,
    ) -> AdaptiveRunResult:
        """Run under a variable workload, letting DS2 trigger rescaling.

        Args:
            patterns: Target-rate pattern per source operator, on the
                experiment's absolute clock.
            duration_s: Total experiment duration, downtime included:
                a rescale near the end pays its downtime only up to it.
            initial_parallelism: Starting parallelism (the convergence
                experiment starts every operator at 1).
            chaos: Optional deterministic fault schedule. Structural
                faults that invalidate the running plan (a crash of a
                worker hosting tasks, a slot loss that displaces tasks)
                force an immediate replan on the surviving cluster;
                everything else (recoveries, degradations, harmless
                structural events) schedules an opportunistic replan at
                the next un-gated policy tick. Degradations also take
                effect on the running engine immediately. An event aimed
                at a worker outside the cluster raises a KeyError naming
                its token before anything runs.
            control_chaos: Optional deterministic *control-plane* fault
                schedule (:mod:`repro.faults.telemetry`): it perturbs
                the telemetry this loop observes and whether redeploys
                succeed, never engine truth. Providing one arms the
                guard pipeline of :class:`ControlPlaneGuard` (unless
                ``config.guards.enabled`` is off, the "unguarded"
                ablation): metric validation with last-known-good
                substitution, deploy retry/rollback, and the safe-mode
                watchdog. Deploy faults intercept *reconfigurations*;
                the initial deployment always starts.

        Returns:
            The stitched timeline with all enacted scaling decisions.
        """
        cfg = self.config
        result = AdaptiveRunResult()
        health = ClusterHealth(self.cluster)
        if chaos:
            health.check(chaos)
        pending = deque(chaos.events) if chaos else deque()
        view: Optional[ControlChaosView] = None
        guard: Optional[ControlPlaneGuard] = None
        if control_chaos is not None:
            view = ControlChaosView(
                control_chaos, tracer=self.tracer, registry=self.registry
            )
            if cfg.guards.enabled:
                guard = ControlPlaneGuard(
                    cfg.guards,
                    operator_rates_from_unit_costs(
                        self.graph, self.profile(), self.cluster
                    ),
                    tracer=self.tracer,
                    registry=self.registry,
                )
        self._control_view = view
        self._guard = guard
        self._zombie = False
        self.last_guard = guard
        try:
            deployment = self.deploy(
                {op: TimeShiftedRate(p, 0.0) for op, p in patterns.items()},
                parallelism=initial_parallelism,
                started_at_s=0.0,
                health=health,
            )
            now = 0.0
            last_rescale = 0.0
            pending_replan: Optional[str] = None

            def rescale(
                parallelism: Mapping[str, int],
                reason: str,
                downtime_s: Optional[float] = None,
            ) -> None:
                """Record one rescale, pay its downtime up to the run's
                end, redeploy on the surviving slots unless the downtime
                reached the end, restart the gate."""
                nonlocal deployment, now, last_rescale, pending_replan
                fitted = self._fit_to_cluster(parallelism, budget=health.total_slots())
                result.events.append(
                    RescaleEvent(
                        time_s=now,
                        old_parallelism=deployment.parallelism,
                        new_parallelism=dict(fitted),
                        reason=reason,
                    )
                )
                tr = self.tracer
                if tr is not None and tr.enabled:
                    tr.event(
                        "sim",
                        "controller.rescale",
                        now,
                        cat="controller",
                        args={
                            "old_tasks": deployment.total_tasks,
                            "new_tasks": sum(fitted.values()),
                            "new_parallelism": _parallelism_str(fitted),
                            "reason": reason,
                        },
                    )
                if self.registry is not None:
                    self.registry.counter(
                        "controller_rescales_total", help="Rescales enacted."
                    ).inc()
                start = now
                now = self._apply_downtime(
                    result, now, patterns, fitted, downtime_s, end_s=duration_s
                )
                if tr is not None and tr.enabled:
                    tr.span(
                        "sim",
                        "controller.rescale.downtime",
                        start,
                        now,
                        cat="controller",
                    )
                self._flush_diagnosis(deployment)
                if now < duration_s - 1e-9:
                    deployment, now = self._attempt_deploy(
                        result, now, patterns, fitted, reason, health,
                        rollback=deployment.parallelism, end_s=duration_s,
                    )
                last_rescale = now
                pending_replan = None
                if guard is not None:
                    guard.record_round(now, "deploy", observed=True)

            while now < duration_s - 1e-9:
                # ---- chaos events due now --------------------------
                forced_reason: Optional[str] = None
                forced_downtime: Optional[float] = None
                while pending and pending[0].time_s <= now + 1e-9:
                    ev = pending.popleft()
                    occupied = len(deployment.plan.tasks_on(ev.worker_id))
                    if ev.kind == "crash" and occupied:
                        # Measure recovery cost against the engine state
                        # *before* the worker's books are wiped.
                        forced_downtime = max(
                            forced_downtime or 0.0,
                            self._recovery_downtime(deployment, ev.worker_id),
                        )
                    health.apply(ev)
                    observe_fault(ev, tracer=self.tracer, registry=self.registry)
                    # Dead/degraded workers take effect on the running
                    # engine immediately; replanning happens below.
                    deployment.engine.apply_worker_factors(
                        *health.factor_arrays(deployment.engine.cluster)
                    )
                    reason = f"fault:{ev.kind}:w{ev.worker_id}"
                    displaced = ev.kind == "crash" and occupied
                    displaced = displaced or (
                        ev.kind == "slots"
                        and occupied > health.slots_of(ev.worker_id)
                    )
                    if displaced:
                        forced_reason = forced_reason or reason
                    elif pending_replan is None:
                        pending_replan = reason
                if forced_reason is not None:
                    rescale(deployment.parallelism, forced_reason, forced_downtime)
                    continue

                # ---- advance to the next policy tick or chaos event
                horizon = min(now + cfg.policy_interval_s, duration_s)
                if pending and pending[0].time_s < horizon - 1e-9:
                    horizon = max(pending[0].time_s, now + cfg.sim.tick_duration_s)
                deployment.engine.run_until(horizon - deployment.started_at_s)
                now = deployment.started_at_s + deployment.engine.time_s
                self._drain_samples(deployment, result)

                if (
                    now - last_rescale < cfg.activation_time_s
                    or now >= duration_s - 1e-9
                ):
                    if pending_replan is not None and now < duration_s - 1e-9:
                        self._observe_suppressed(now, pending_replan)
                    if guard is not None and now < duration_s - 1e-9:
                        # Gated round: no telemetry screened, no deploy
                        # tried — carries no watchdog evidence.
                        guard.record_round(now, "suppressed", observed=False)
                    continue
                target = {op: patterns[op](now) for op in patterns}
                rates = aggregate_operator_rates(
                    deployment.physical, deployment.engine.metrics.task_rates()
                )
                if view is not None:
                    rates = view.perturb_rates(rates, now, self.graph.job_id)
                if guard is not None:
                    guard.round_time_s = now
                    expected = [
                        (self.graph.job_id, op)
                        for op in self.graph.topological_order()
                    ]
                    rates = guard.validate_rates(rates, expected, now)
                    if self._zombie:
                        # A redeploy terminally failed earlier: the
                        # engine is down whatever the telemetry claims.
                        # Recovery beats scaling — redeploy the current
                        # target.
                        rescale(deployment.parallelism, "recover:deploy_failed")
                        continue
                    if guard.holds_decisions:
                        outcome = "safe_mode" if guard.safe_mode else "suppressed"
                        guard.record_round(now, outcome, observed=True)
                        continue
                decision = self.ds2.decide(
                    rates, target, current_parallelism=deployment.parallelism
                )
                tr = self.tracer
                if tr is not None and tr.enabled:
                    tr.event(
                        "sim",
                        "ds2.decision",
                        now,
                        cat="controller",
                        args={
                            "changed": decision.changed,
                            "parallelism": _parallelism_str(decision.parallelism),
                        },
                    )
                if self.registry is not None:
                    self.registry.counter(
                        "controller_ds2_decisions_total",
                        help="DS2 scaling decisions evaluated.",
                    ).inc()
                if decision.changed:
                    rescale(decision.parallelism, "ds2")
                elif pending_replan is not None:
                    rescale(deployment.parallelism, pending_replan)
                elif guard is not None:
                    guard.record_round(now, "suppressed", observed=True)
            self._flush_diagnosis(deployment)
            if guard is not None:
                guard.finish(duration_s)
            return result
        finally:
            self._control_view = None
            self._guard = None
            self._zombie = False

    def _attempt_deploy(
        self,
        result: AdaptiveRunResult,
        now: float,
        patterns: Mapping[str, RatePattern],
        fitted: Mapping[str, int],
        reason: str,
        health: ClusterHealth,
        rollback: Mapping[str, int],
        end_s: float,
    ) -> Tuple[Deployment, float]:
        """Start a new configuration through the control-chaos gate.

        Without a control-chaos view this is a plain :meth:`deploy`.
        With one, the deploy can fail: **unguarded**, the controller
        believes it succeeded while the job is actually down (the
        undetected-failure model — all engine workers dead until the
        next reconfiguration); **guarded**, failures get bounded retries
        with exponential backoff (each retry paying its backoff as
        extra downtime), then a rollback to the previous configuration,
        and a terminal failure leaves a down engine that the guard's
        zombie-recovery path redeploys on the next un-gated round.
        """
        view = self._control_view
        guard = self._guard
        ok, extra_delay_s = (True, 0.0) if view is None else view.deploy_attempt(now)
        if not ok:
            self._observe_deploy_failed(now, reason)
            if guard is not None:
                guard.deploy_failed_this_round = True
                for attempt in range(1, guard.config.deploy_retry_limit + 1):
                    backoff_s = guard.retry_backoff_s(attempt)
                    self._observe_deploy_retry(now, attempt, backoff_s)
                    now = self._apply_downtime(
                        result, now, patterns, fitted, backoff_s, end_s=end_s
                    )
                    ok, extra_delay_s = view.deploy_attempt(now)
                    if ok:
                        break
                    self._observe_deploy_failed(now, reason)
                if not ok:
                    # Retries exhausted: fall back to the last known
                    # good configuration and try once more.
                    fitted = self._fit_to_cluster(
                        rollback, budget=health.total_slots()
                    )
                    reason = f"{reason}:rollback"
                    self._observe_rollback(now, fitted)
                    ok, extra_delay_s = view.deploy_attempt(now)
                    if not ok:
                        self._observe_deploy_failed(now, reason)
        if ok and extra_delay_s > 0:
            tr = self.tracer
            if tr is not None and tr.enabled:
                tr.event(
                    "sim",
                    "controller.deploy.delayed",
                    now,
                    cat="controller",
                    args={"delay_s": extra_delay_s},
                )
            now = self._apply_downtime(
                result, now, patterns, fitted, extra_delay_s, end_s=end_s
            )
        if guard is not None:
            # New configuration, new contention regime: stale medians
            # must not poison the outlier test.
            guard.reset_history()
        deployment = self.deploy(
            {op: TimeShiftedRate(patterns[op], now) for op in patterns},
            parallelism=fitted,
            started_at_s=now,
            health=health,
            trigger=reason,
        )
        self._zombie = not ok
        if not ok:
            # The controller believes this deployment is live; it is
            # not. Engine truth: every worker down, zero throughput,
            # total backpressure, until recovery redeploys.
            self._kill_engine(deployment.engine)
        return deployment, now

    def _kill_engine(self, engine: FluidSimulation) -> None:
        n = len(engine.cluster.workers)
        engine.apply_worker_factors(
            np.ones(n), np.ones(n), np.ones(n), np.zeros(n, dtype=bool)
        )

    def _observe_deploy_failed(self, now: float, reason: str) -> None:
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.event(
                "sim",
                "controller.deploy.failed",
                now,
                cat="controller",
                args={"reason": reason},
            )
        if self.registry is not None:
            self.registry.counter(
                "controller_deploy_failures_total",
                help="Deploy attempts failed by control-plane chaos.",
            ).inc()

    def _observe_deploy_retry(
        self, now: float, attempt: int, backoff_s: float
    ) -> None:
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.event(
                "sim",
                "controller.deploy.retry",
                now,
                cat="controller",
                args={"attempt": attempt, "backoff_s": backoff_s},
            )
        if self.registry is not None:
            self.registry.counter(
                "controller_deploy_retries_total",
                help="Deploy retries after a failed attempt.",
            ).inc()

    def _observe_rollback(
        self, now: float, parallelism: Mapping[str, int]
    ) -> None:
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.event(
                "sim",
                "controller.rollback",
                now,
                cat="controller",
                args={"parallelism": _parallelism_str(parallelism)},
            )
        if self.registry is not None:
            self.registry.counter(
                "controller_rollbacks_total",
                help="Rollbacks to the last known good configuration.",
            ).inc()

    def _flush_diagnosis(self, deployment: Deployment) -> None:
        """Flush a retiring engine's diagnosis aggregates into the trace."""
        diag = getattr(deployment.engine, "diagnosis", None)
        if diag is not None:
            diag.flush(self.tracer)

    def _observe_suppressed(self, now: float, reason: str) -> None:
        """A wanted replan deferred by the activation gate."""
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.event(
                "sim",
                "controller.rescale.suppressed",
                now,
                cat="controller",
                args={"reason": reason},
            )
        if self.registry is not None:
            self.registry.counter(
                "controller_rescales_suppressed_total",
                help="Replans deferred by the rescale gate.",
            ).inc()

    def _recovery_downtime(self, deployment: Deployment, worker_id: int) -> float:
        """Downtime for recovering a crashed worker's state.

        Flat ``rescale_downtime_s`` when the checkpoint model is off;
        otherwise restart plus restoring the worker's durable state plus
        replaying everything since its last checkpoint
        (:func:`repro.faults.recovery_downtime`).
        """
        cfg = self.config
        engine = deployment.engine
        ids = [w.worker_id for w in engine.cluster.workers]
        if not cfg.checkpoint.enabled or worker_id not in ids:
            return cfg.rescale_downtime_s
        idx = ids.index(worker_id)
        durable = float(engine.durable_state_bytes()[idx])
        since = max(0.0, engine.time_s - engine.last_checkpoint_s)
        return recovery_downtime(cfg.checkpoint, cfg.rescale_downtime_s, durable, since)

    def _drain_samples(
        self, deployment: Deployment, result: AdaptiveRunResult
    ) -> None:
        # Each engine row is drained exactly once: ask only for the rows
        # past the ones this deployment already took.
        fresh = deployment.engine.metrics.job_series(
            deployment.graph.job_id, deployment.samples_taken
        )
        deployment.samples_taken += len(fresh)
        for sample in fresh:
            result.samples.append(
                TimelineSample(
                    time_s=deployment.started_at_s + sample.time_s,
                    target_rate=sample.target_rate,
                    throughput=sample.throughput,
                    backpressure=sample.backpressure,
                    latency_s=sample.latency_s,
                    total_tasks=deployment.total_tasks,
                )
            )

    def _apply_downtime(
        self,
        result: AdaptiveRunResult,
        now: float,
        patterns: Mapping[str, RatePattern],
        new_parallelism: Mapping[str, int],
        downtime_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> float:
        """Append restart-downtime samples and advance the clock.

        ``downtime_s`` overrides the flat restart cost (crash recovery
        with the checkpoint model enabled); the clock advances by a
        whole number of simulation steps so back-to-back rescales never
        double-count a partial step's downtime, and never past
        ``end_s``. Each sample, stamped at its step's end like an
        engine row, carries the summed pattern rates at its step's
        start.
        """
        cfg = self.config
        dt = cfg.sim.dt
        total_tasks = sum(new_parallelism.values())
        if downtime_s is None:
            downtime_s = cfg.rescale_downtime_s
        steps = int(round(downtime_s / dt))
        if end_s is not None:
            steps = min(steps, int((end_s - now) / dt + 1e-9))
        for i in range(steps):
            start = now + i * dt
            result.samples.append(
                TimelineSample(
                    time_s=now + (i + 1) * dt,
                    target_rate=float(sum(p(start) for p in patterns.values())),
                    throughput=0.0,
                    backpressure=1.0,
                    latency_s=0.0,
                    total_tasks=total_tasks,
                )
            )
        return now + steps * dt

    # ------------------------------------------------------------------
    # Controlled accuracy experiment (section 6.4.1 / Table 4)
    # ------------------------------------------------------------------
    def run_controlled_steps(
        self,
        initial_rates: Mapping[str, float],
        rate_steps: List[Mapping[str, float]],
        settle_s: float = 120.0,
        measure_s: float = 180.0,
        initial_parallelism: Optional[Mapping[str, int]] = None,
    ) -> List["StepOutcome"]:
        """Vary the rate stepwise and trigger one DS2 decision per step.

        Per the paper's accuracy experiment: the starting configuration
        is tuned (optimal parallelism and placement for the initial
        rate); each step changes the target rate, lets metrics settle,
        triggers exactly one scaling action, and measures the outcome.
        """
        if initial_parallelism is None:
            initial_parallelism = self.initial_parallelism(initial_rates)
        minimal_oracle = operator_rates_from_unit_costs(
            self.graph, self.profile(), self.cluster
        )
        outcomes: List[StepOutcome] = []
        now = 0.0
        deployment = self.deploy(
            dict(initial_rates), parallelism=initial_parallelism, started_at_s=now
        )
        current_rates = dict(initial_rates)

        for step_index, step_rates in enumerate(rate_steps, start=1):
            # Rate change: replace the engine's drive rates by redeploying
            # the same configuration under the new rates (no downtime for
            # a pure rate change), then let metrics settle.
            current_rates = {op: float(r) for op, r in step_rates.items()}
            deployment = self._start(
                deployment.graph,
                deployment.physical,
                deployment.plan,
                current_rates,
                now,
            )
            deployment.engine.run_until(settle_s)
            now += settle_s

            rates = aggregate_operator_rates(
                deployment.physical, deployment.engine.metrics.task_rates()
            )
            decision = self.ds2.decide(
                rates, current_rates, current_parallelism=deployment.parallelism
            )
            if decision.changed:
                now += self.config.rescale_downtime_s
                deployment = self.deploy(
                    dict(current_rates),
                    parallelism=self._fit_to_cluster(decision.parallelism),
                    started_at_s=now,
                )
            summary = deployment.engine.run(measure_s, warmup_s=measure_s * 0.3)
            now += measure_s
            job = summary.only
            minimal_decision = self.ds2.decide(minimal_oracle, current_rates)
            outcomes.append(
                StepOutcome(
                    step=step_index,
                    target_rate=job.target_rate,
                    throughput=job.throughput,
                    backpressure=job.backpressure,
                    total_tasks=deployment.total_tasks,
                    minimal_tasks=minimal_decision.total_tasks(),
                )
            )
        return outcomes


@dataclass(frozen=True)
class StepOutcome:
    """One row of the Table 4 accuracy experiment."""

    step: int
    target_rate: float
    throughput: float
    backpressure: float
    total_tasks: int
    minimal_tasks: int

    @property
    def meets_throughput(self) -> bool:
        return self.throughput >= self.target_rate * 0.95

    @property
    def over_provisioned(self) -> bool:
        return self.total_tasks > self.minimal_tasks
