"""The fluid-flow simulation engine.

One :class:`FluidSimulation` instance simulates one deployment: a
physical graph placed on a cluster by a placement plan, driven by
per-source target-rate patterns. Records are continuous quantities and
time advances in fixed ticks; see the package docstring and DESIGN.md
for the modelling rationale.

Per tick the engine resolves, in order:

1. **Offered load**: what each task would process this tick — its queue
   backlog (or target generation for sources), capped by its single
   processing thread (one slot = one thread = at most one core).
2. **Resource contention**: per-worker CPU, disk, and NIC grant
   fractions via proportional fair sharing with convex penalties
   (:func:`~repro.simulator.contention.share_resources`, which the
   record runtime's paced budgets call too); a task's processing is
   scaled by the worst grant among the resources it uses.
3. **Backpressure**: bounded downstream buffers throttle emitters
   (credit-style head-of-line blocking: a task processes only what its
   most congested downstream channel can absorb), and the shortfall of
   each source against its target is the reported backpressure.
4. **Metrics**: per-job throughput/backpressure/latency samples and the
   per-task observed and *true* rates DS2 consumes.

Reconfigurations are modelled by the controller layer: it stops one
engine, applies a restart downtime, and starts a new engine with the
new physical graph and plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

# numpy loads ``numpy.random`` on first attribute access; every engine
# seeds a generator, so load it with this module rather than inside the
# first simulation.
from numpy.random import default_rng

from repro.dataflow.cluster import Cluster
from repro.dataflow.physical import PhysicalGraph
from repro.dataflow.validation import validate_deployment
from repro.core.plan import PlacementPlan
from repro.simulator.backpressure import (
    ChannelSet,
    distribute_inflow,
    throttle_emissions,
)
from repro.simulator.contention import (
    ContentionConfig,
    Grants,
    degraded_capacity,
    share_resources,
    thread_cap,
)
from repro.faults.checkpoint import CheckpointConfig
from repro.observability import MetricRegistry, Tracer
from repro.simulator.metrics import MetricsCollector, TickSample
from repro.simulator.network import NicModel
from repro.simulator.results import SimulationSummary
from repro.simulator.state_backend import DiskModel
from repro.units import Seconds, Ticks
from repro.workloads.rates import ConstantRate, RatePattern

MIB = 1024.0 ** 2
_HUGE_RATE = 1e12
#: Sentinel tick index for "no event on the horizon" (far beyond any
#: representable run length).
_MAX_TICK = 2 ** 62

#: Executed ticks the fast-forward cycle detector remembers, and so the
#: longest period it can find. The longest orbit a ``place`` simulation
#: settles into is 90 ticks (Q3-inf following its GC spikes).
_FF_RECORD_TICKS = 128

#: One tick, as a dimensional quantity: multiplying ``dt`` (seconds
#: per tick) by this yields a duration in seconds.
_ONE_TICK = 1.0


@dataclass(frozen=True)
class SimulationConfig:
    """Engine tuning knobs.

    Attributes:
        dt: Tick length in simulated seconds.
        contention: Convexity coefficients of the contention models.
        buffer_bytes_per_task: Input buffer per task; divided by the
            incoming record size to obtain the queue capacity in records
            (Flink's network memory with buffer debloating enabled keeps
            this small and roughly constant per task).
        min_queue_records: Lower bound on queue capacity in records.
        metrics_window_ticks: Rolling window for DS2 task rates.
        noise_std: Relative std-dev of multiplicative measurement noise
            applied to *reported* task rates (never to the dynamics);
            0 disables noise entirely.
        seed: Seed for the measurement-noise generator.
        fast_forward: Steady-state fast-forward, on by default: once
            a tick leaves bit-identical state to the tick ``p`` ticks
            back (a fixed point is ``p = 1``), the engine leaps whole
            periods up to the next event horizon instead of
            re-executing the cycle (see DESIGN.md §9). ``False``
            runs the tick-by-tick reference. Results are exactly equal
            either way by contract — the flag is an execution strategy,
            not a simulation input, and is therefore excluded from the
            plan-cache fingerprint. Ignored when ``noise_std > 0``
            (noise draws from the RNG every tick, so skipping ticks
            would change the stream).
    """

    dt: float = 1.0
    contention: ContentionConfig = field(default_factory=ContentionConfig)
    buffer_bytes_per_task: float = 16.0 * MIB
    min_queue_records: float = 10.0
    #: Upper bound on queue capacity expressed in seconds of the task's
    #: uncontended service rate. Models Flink's buffer debloating, which
    #: keeps in-flight data to roughly a constant *time*, not a constant
    #: byte volume — without it, small-record streams would buffer
    #: minutes of data and mask backpressure for the whole experiment.
    max_buffer_seconds: float = 5.0
    metrics_window_ticks: int = 60
    noise_std: float = 0.0
    seed: int = 0
    fast_forward: bool = True

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.buffer_bytes_per_task <= 0:
            raise ValueError("buffer_bytes_per_task must be positive")
        if self.min_queue_records <= 0:
            raise ValueError("min_queue_records must be positive")
        if self.max_buffer_seconds < self.tick_duration_s:
            raise ValueError("max_buffer_seconds must be at least one tick")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")

    @property
    def tick_duration_s(self) -> Seconds:
        """One tick's extent in simulated seconds.

        Numerically equal to ``dt``, but dimensionally ``dt`` is
        seconds *per tick* (the conversion factor in the engine's
        ``time_s == tick * dt`` identity) while this is a duration —
        ``dt`` times one tick.  Use this when comparing or adding a
        tick's worth of time to other second-valued quantities.
        """
        return self.dt * _ONE_TICK


SourceRates = Mapping[Union[str, Tuple[str, str]], Union[float, RatePattern]]


class _CapacityEpoch:
    """Tick inputs that change only when a worker's capacity does.

    An epoch is the span between two capacity changes. Every capacity
    writer (:meth:`FluidSimulation.apply_worker_factors`, reached from
    the fault driver too) calls ``_ff_reset``, which drops the epoch;
    the next tick builds a new one. The arrays are the ones the tick
    used to recompute, with the same operations in the same order, so
    caching them moves no float.

    Attributes:
        disk_w / nic_w: Per-task gathers of the worker disk and NIC
            capacities.
        io_floor / net_floor: Per-record disk and NIC seconds at full
            capacity (``io / disk_w``, ``cross_bytes_per_record /
            nic_w``).
        alive_w: Per-task gather of the alive mask, or ``None`` while
            every worker is alive.
        thread_cap: The per-task thread cap of a tick, from the service
            floor ``(cpu + io_floor) + net_floor``; ``None`` when a task
            has GC spikes, whose CPU cost changes with time (see
            :meth:`gc_inputs`).
    """

    __slots__ = (
        "disk_w", "nic_w", "io_floor", "net_floor", "alive_w", "thread_cap",
        "_gc_inputs",
    )

    def __init__(self, engine: "FluidSimulation") -> None:
        worker = engine.worker
        self.disk_w = engine.disk.capacity[worker]
        self.nic_w = engine.nic.capacity[worker]
        self.io_floor = engine.io / self.disk_w
        self.net_floor = engine.cross_bytes_per_record / self.nic_w
        alive = engine.worker_alive
        self.alive_w = None if alive.all() else alive[worker]
        self.thread_cap = None
        self._gc_inputs: Dict[bytes, Tuple[np.ndarray, np.ndarray]] = {}
        if not engine._any_gc_spike:
            self.thread_cap = thread_cap(
                (engine.cpu + self.io_floor) + self.net_floor, engine.config.dt
            )

    def gc_inputs(
        self, engine: "FluidSimulation", active: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Effective CPU cost and thread cap of a tick with GC flags ``active``.

        ``active`` holds one flag per task with GC spikes (see
        :meth:`FluidSimulation._gc_active`). Both arrays depend only on
        the flags and the epoch, so each flag pattern is computed once,
        with the operations the tick used, and reused.
        """
        key = active.tobytes()
        pair = self._gc_inputs.get(key)
        if pair is None:
            bump = np.ones(len(active))
            bump[active] += engine._gc_spike_magnitude[active]
            factor = np.ones_like(engine.cpu)
            factor[engine._gc_spiky] = bump
            cpu_eff = engine.cpu * factor
            cap = thread_cap(
                (cpu_eff + self.io_floor) + self.net_floor, engine.config.dt
            )
            pair = (cpu_eff, cap)
            self._gc_inputs[key] = pair
        return pair


class FluidSimulation:
    """Simulates one placed deployment under driven source rates.

    Args:
        physical: The physical execution graph (possibly multi-job).
        cluster: The worker cluster.
        plan: A placement plan valid for (physical, cluster).
        source_rates: Target rate per source operator. Keys are
            ``(job_id, operator)`` pairs, or bare operator names when
            unambiguous across jobs; values are records/s floats or
            :class:`~repro.workloads.rates.RatePattern` instances.
        config: Engine configuration.
        network_cap_bytes_per_s: Optional override capping every
            worker's outbound bandwidth (paper section 3.3's 1 Gbps
            experiment), taking precedence over the worker specs.
        tracer: Optional :class:`~repro.observability.Tracer`; when
            enabled, every tick emits one ``sim``-domain counter record
            per job (target/throughput/backpressure/queue/latency), all
            derived purely from simulated state. Observability sinks
            never influence the dynamics, so they are excluded from the
            plan-cache fingerprint by design.
        registry: Optional :class:`~repro.observability.MetricRegistry`
            mirrored by the :class:`MetricsCollector`.
    """

    def __init__(
        self,
        physical: PhysicalGraph,
        cluster: Cluster,
        plan: PlacementPlan,
        source_rates: SourceRates,
        config: Optional[SimulationConfig] = None,
        network_cap_bytes_per_s: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.physical = physical
        self.cluster = cluster
        self.plan = plan
        self.tracer = tracer
        #: Added to every sim-domain trace timestamp. The controller sets
        #: it to the deployment's absolute start time so an adaptive run's
        #: engines share one timeline; the engine itself always runs on
        #: local time. Never read by the dynamics.
        self.trace_time_offset_s = 0.0
        self.config = config or SimulationConfig()
        validate_deployment(physical, cluster)
        plan.validate(physical, cluster)

        self._rng = default_rng(self.config.seed)
        #: Simulated local time, always derived from the integer tick
        #: counter (``time_s == _tick_index * dt``): accumulating
        #: ``+= dt`` would drift by float error over long runs and
        #: diverge from the timestamps fast-forward leaps compute.
        self.time_s = 0.0
        self._tick_index = 0

        self._patterns = self._normalise_source_rates(source_rates)
        self._build_arrays(network_cap_bytes_per_s)

        # Fast-forward bookkeeping (DESIGN.md §9). Leaping is attempted
        # only when the config allows it and the dynamics are noise-free.
        self._ff_enabled = bool(self.config.fast_forward) and self.config.noise_std == 0
        #: The states the last executed ticks left, oldest first: the
        #: bytes of ``queue`` then ``_last_proc``, one per tick.
        self._ff_ticks: List[bytes] = []
        #: Each recorded state mapped to the last tick count after which
        #: it held, minus ``_ff_offset``.
        self._ff_record: Dict[bytes, int] = {}
        #: Ticks leapt since the record was last cleared: a leap moves
        #: the kept period forward without re-keying it.
        self._ff_offset = 0
        #: Period of the cycle the last executed tick closed (0: none).
        self._ff_period = 0
        #: Per-tick state and dirty-byte increments of that cycle, built
        #: by its first leap.
        self._ff_cycle: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = None
        # Cached piecewise-constant source-target segment: the assembled
        # per-task target array plus the first tick it no longer covers.
        self._target_arr: Optional[np.ndarray] = None
        self._target_until_tick = 0
        self._registry = registry
        #: Leap diagnostics (also mirrored as engine_leaps_total /
        #: engine_ticks_skipped_total registry counters).
        self.leaps = 0
        self.ticks_leapt = 0

        #: Optional fault driver polled at the start of every tick (set
        #: post-construction via :meth:`set_fault_driver` — fault state
        #: is run-scoped, never part of the cacheable simulation input).
        self.fault_driver = None
        #: Optional root-cause diagnosis collector (set post-construction
        #: via :meth:`enable_diagnosis` — an observability sink, never a
        #: simulation input, so it is excluded from the plan-cache
        #: fingerprint like the tracer).
        self.diagnosis = None
        self._checkpoint: Optional[CheckpointConfig] = None
        self._ckpt_dirty: Optional[np.ndarray] = None
        self._ckpt_upload: Optional[np.ndarray] = None
        self._ckpt_counter = None
        self._next_checkpoint_s = math.inf
        #: Local time of the most recent completed checkpoint (0 before
        #: the first one: the initial deployment snapshot is empty).
        self.last_checkpoint_s = 0.0
        self.checkpoints_taken = 0

        job_ids = [g.job_id for g in physical.logical_graphs]
        self.metrics = MetricsCollector(
            job_ids=job_ids,
            task_uids=[t.uid for t in physical.tasks],
            window_ticks=self.config.metrics_window_ticks,
            registry=registry,
        )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _normalise_source_rates(
        self, source_rates: SourceRates
    ) -> Dict[Tuple[str, str], RatePattern]:
        by_name: Dict[str, List[Tuple[str, str]]] = {}
        source_keys: List[Tuple[str, str]] = []
        for graph in self.physical.logical_graphs:
            for op in graph.sources():
                key = (graph.job_id, op)
                source_keys.append(key)
                by_name.setdefault(op, []).append(key)

        patterns: Dict[Tuple[str, str], RatePattern] = {}
        for raw_key, value in source_rates.items():
            if isinstance(raw_key, tuple):
                key = raw_key
            else:
                candidates = by_name.get(raw_key, [])
                if len(candidates) != 1:
                    raise KeyError(
                        f"source name {raw_key!r} is ambiguous or unknown; "
                        f"use a (job_id, operator) key"
                    )
                key = candidates[0]
            if key not in source_keys:
                raise KeyError(f"{key} is not a source operator of this deployment")
            pattern = value if isinstance(value, RatePattern) else ConstantRate(float(value))
            patterns[key] = pattern
        missing = set(source_keys) - set(patterns)
        if missing:
            raise KeyError(f"missing source rates for {sorted(missing)}")
        return patterns

    def _build_arrays(self, network_cap: Optional[float]) -> None:
        physical, cluster, config = self.physical, self.cluster, self.config
        tasks = physical.tasks
        n = len(tasks)

        worker_pos = {w.worker_id: i for i, w in enumerate(cluster.workers)}
        self._worker_count = len(cluster.workers)
        self.worker = np.array(
            [worker_pos[self.plan.worker_of(t)] for t in tasks], dtype=np.int64
        )
        self.cpu_capacity = np.array(
            [w.spec.cpu_capacity for w in cluster.workers], dtype=float
        )
        disk_capacity = np.array(
            [w.spec.disk_bandwidth for w in cluster.workers], dtype=float
        )
        net_capacity = np.array(
            [
                network_cap if network_cap is not None else w.spec.network_bandwidth
                for w in cluster.workers
            ],
            dtype=float,
        )
        self.disk = DiskModel(disk_capacity, config.contention)
        self.nic = NicModel(net_capacity)
        # Pristine capacity baselines for fault-driven degradation;
        # apply_worker_factors always rescales from these, so a later
        # recovery restores the exact original capacities.
        self._base_cpu_capacity = self.cpu_capacity.copy()
        self._base_disk_capacity = disk_capacity.copy()
        self._base_net_capacity = net_capacity.copy()
        self.worker_alive = np.ones(self._worker_count, dtype=bool)

        job_ids = [g.job_id for g in physical.logical_graphs]
        job_pos = {job: i for i, job in enumerate(job_ids)}

        self.cpu = np.zeros(n)
        self.io = np.zeros(n)
        self.outb = np.zeros(n)
        self.sel = np.zeros(n)
        self.state_growth = np.zeros(n)
        self.is_source = np.zeros(n, dtype=bool)
        self.job_idx = np.zeros(n, dtype=np.int64)
        self.queue_cap = np.zeros(n)
        self.gc_period = np.zeros(n)
        self.gc_duration = np.zeros(n)
        self.gc_magnitude = np.zeros(n)
        self.gc_phase = np.zeros(n)
        self._source_share = np.zeros(n)

        for i, task in enumerate(tasks):
            spec = physical.spec_of(task)
            self.cpu[i] = spec.cpu_per_record
            self.io[i] = spec.io_bytes_per_record
            self.outb[i] = spec.out_record_bytes
            self.sel[i] = spec.selectivity
            self.state_growth[i] = spec.state_bytes_per_record
            self.is_source[i] = spec.is_source
            self.job_idx[i] = job_pos[task.job_id]
            if spec.gc_spike is not None:
                parallelism = len(physical.operator_tasks(task.job_id, task.operator))
                self.gc_period[i] = spec.gc_spike.period_s
                self.gc_duration[i] = spec.gc_spike.duration_s
                self.gc_magnitude[i] = spec.gc_spike.magnitude
                self.gc_phase[i] = spec.gc_spike.period_s * task.index / max(1, parallelism)
            if spec.is_source:
                members = physical.operator_tasks(task.job_id, task.operator)
                self._source_share[i] = 1.0 / len(members)
                self.queue_cap[i] = math.inf  # sources have no input queue
            else:
                in_channels = physical.in_channels(task)
                in_record_bytes = max(
                    (physical.spec_of(ch.src).out_record_bytes for ch in in_channels),
                    default=100.0,
                )
                in_record_bytes = max(in_record_bytes, 1.0)
                self.queue_cap[i] = max(
                    config.min_queue_records,
                    config.buffer_bytes_per_task / in_record_bytes,
                )

        channels = physical.channels
        self.c_src = np.array([physical.index_of(ch.src) for ch in channels], dtype=np.int64)
        self.c_dst = np.array([physical.index_of(ch.dst) for ch in channels], dtype=np.int64)
        self.c_share = np.array([ch.share for ch in channels], dtype=float)
        self.c_reroutable = np.array([ch.reroutable for ch in channels], dtype=bool)
        self.c_cross = self.worker[self.c_src] != self.worker[self.c_dst]
        self.channels = ChannelSet(
            self.c_src, self.c_dst, n, self.c_share, self.c_reroutable
        )

        # Static per-task cross-worker output bytes per *input* record,
        # used for the true-rate service-time model.
        cross_bytes = np.zeros(n)
        if len(channels):
            per_channel = self.c_share * self.outb[self.c_src] * self.sel[self.c_src]
            np.add.at(cross_bytes, self.c_src[self.c_cross], per_channel[self.c_cross])
        self.cross_bytes_per_record = cross_bytes

        # Static per-task masks of the resources each task uses (cpu,
        # io, net) and cross-worker channel gathers, read every tick. A
        # task's effective CPU cost is ``cpu`` scaled by a GC factor
        # >= 1, so ``cpu > 0`` is also the mask of tasks using CPU while
        # a spike is active; only Q3-inf has spikes.
        self._uses = (self.cpu > 0, self.io > 0, cross_bytes > 0)
        self._gc_spiky = self.gc_period > 0
        self._any_gc_spike = bool(self._gc_spiky.any())
        self._gc_spike_phase = self.gc_phase[self._gc_spiky]
        self._gc_spike_period = self.gc_period[self._gc_spiky]
        self._gc_spike_duration = self.gc_duration[self._gc_spiky]
        self._gc_spike_magnitude = self.gc_magnitude[self._gc_spiky]
        self._cross_src = self.c_src[self.c_cross]
        self._cross_share = self.c_share[self.c_cross]
        self._cross_outb = self.outb[self._cross_src]
        self._cross_worker = self.worker[self._cross_src]
        #: Tick inputs derived from the capacities (see
        #: :class:`_CapacityEpoch`); built by the first tick after any
        #: change and dropped by :meth:`_ff_reset`.
        self._capacity_epoch: Optional[_CapacityEpoch] = None

        # Queue capacity bounds, in records of uncontended service:
        # - lower bound 1.25 ticks: with coarse fluid ticks, a buffer
        #   smaller than a service quantum would artificially cap
        #   throughput at queue_cap/dt (real credit exchange happens at
        #   millisecond granularity);
        # - upper bound ``max_buffer_seconds``: buffer debloating keeps
        #   in-flight data to a bounded *time*, so contention surfaces
        #   as backpressure within seconds instead of being absorbed by
        #   minutes of buffered records.
        gc_avg = np.ones(n)
        gc_avg[self._gc_spiky] += (
            self._gc_spike_magnitude * self._gc_spike_duration / self._gc_spike_period
        )
        service_time = self.cpu * gc_avg
        service_time = service_time + self.io / self.disk.capacity[self.worker]
        service_time = service_time + self.cross_bytes_per_record / self.nic.capacity[
            self.worker
        ]
        with np.errstate(divide="ignore"):
            tick_service = np.where(
                service_time > 0,
                config.dt / np.maximum(service_time, 1e-12),
                np.inf,
            )
        debloated = np.clip(
            self.queue_cap,
            None,
            np.maximum(
                config.min_queue_records,
                (config.max_buffer_seconds / config.dt) * tick_service,
            ),
        )
        self.queue_cap = np.where(
            self.is_source,
            self.queue_cap,
            np.maximum(debloated, 1.25 * np.where(np.isfinite(tick_service), tick_service, 0.0)),
        )

        self.queue = np.zeros(n)
        self.state_bytes = np.zeros(n)
        self._last_proc = np.zeros(n)
        self._source_indices: Dict[Tuple[str, str], np.ndarray] = {}
        for key in self._patterns:
            members = physical.operator_tasks(*key)
            self._source_indices[key] = np.array(
                [physical.index_of(t) for t in members], dtype=np.int64
            )
        self._job_sources: Dict[str, List[Tuple[str, str]]] = {}
        for key in self._patterns:
            self._job_sources.setdefault(key[0], []).append(key)
        self._job_source_idx: Dict[str, np.ndarray] = {
            job: np.concatenate([self._source_indices[k] for k in keys])
            for job, keys in self._job_sources.items()
        }
        self._job_task_mask: Dict[str, np.ndarray] = {
            job: self.job_idx == job_pos[job] for job in job_ids
        }

    # ------------------------------------------------------------------
    # Faults & checkpoints
    # ------------------------------------------------------------------
    def set_fault_driver(self, driver) -> None:
        """Attach an :class:`~repro.faults.injector.EngineFaultDriver`.

        The driver is polled with the absolute simulated time at the
        start of every tick; due events become capacity/alive mutations
        via :meth:`apply_worker_factors`. Standalone use only — the
        adaptive controller replays chaos schedules itself so it can
        replan around structural faults.
        """
        self.fault_driver = driver
        self._ff_reset()

    def apply_worker_factors(
        self,
        cpu_factor: np.ndarray,
        disk_factor: np.ndarray,
        net_factor: np.ndarray,
        alive: np.ndarray,
    ) -> None:
        """Set per-worker capacity factors and the alive mask.

        Factors are remaining-capacity fractions in [0, 1] applied to
        the pristine baselines (idempotent, never cumulative). Dead
        workers keep a vanishing capacity floor — their *demand* is
        zeroed in :meth:`step`, which is what stops their work.
        """
        self.cpu_capacity = degraded_capacity(self._base_cpu_capacity, cpu_factor)
        self.disk.capacity = degraded_capacity(self._base_disk_capacity, disk_factor)
        self.nic.capacity = degraded_capacity(self._base_net_capacity, net_factor)
        self.worker_alive = np.asarray(alive, dtype=bool).copy()
        self._ff_reset()

    def enable_checkpoints(
        self,
        checkpoint: CheckpointConfig,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        """Turn on the periodic checkpoint cost model for this engine.

        Every ``interval_s`` of local time the per-worker dirty state
        is snapshotted into an upload backlog, which then drains
        through the shared disk at up to ``write_bandwidth_share`` of
        the worker's bandwidth — competing with foreground state I/O.
        """
        if not checkpoint.enabled:
            return
        self._checkpoint = checkpoint
        self._ckpt_dirty = np.zeros(self._worker_count)
        self._ckpt_upload = np.zeros(self._worker_count)
        self._next_checkpoint_s = checkpoint.interval_s
        self._ff_reset()
        if registry is not None:
            self._ckpt_counter = registry.counter(
                "checkpoints_total", help="Checkpoints triggered."
            )

    def enable_diagnosis(self):
        """Attach a root-cause :class:`DiagnosisCollector` to this engine.

        The collector observes every executed tick (contention blame,
        backpressure provenance) and extends analytically across
        fast-forward leaps; the owner must call
        ``engine.diagnosis.flush(tracer)`` once when the engine
        retires. Returns the collector.
        """
        from repro.diagnosis.collector import DiagnosisCollector

        self.diagnosis = DiagnosisCollector(self)
        self._ff_reset()
        return self.diagnosis

    def durable_state_bytes(self) -> np.ndarray:
        """Per-worker state covered by the last completed checkpoint.

        What a replacement worker must restore from remote storage
        after a crash: accumulated state minus bytes still dirty or in
        upload flight. All zeros while checkpointing is disabled
        (nothing is durable, so nothing is restorable).
        """
        if self._checkpoint is None:
            return np.zeros(self._worker_count)
        total = self.worker_state_bytes()
        return np.maximum(0.0, total - self._ckpt_dirty - self._ckpt_upload)

    def _trigger_checkpoint(self) -> None:
        ckpt = self._checkpoint
        self._ckpt_upload += self._ckpt_dirty
        self._ckpt_dirty[:] = 0.0
        self.last_checkpoint_s = self._next_checkpoint_s
        self._next_checkpoint_s += ckpt.interval_s
        self.checkpoints_taken += 1
        if self._ckpt_counter is not None:
            self._ckpt_counter.inc()
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.event(
                "sim",
                "checkpoint",
                self.trace_time_offset_s + self.last_checkpoint_s,
                cat="fault",
                args={
                    "index": self.checkpoints_taken,
                    "upload_bytes": float(np.sum(self._ckpt_upload)),
                },
            )

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def _gc_active(self, time_s: Union[float, np.ndarray]) -> np.ndarray:
        """GC-spike flags of the tasks with spikes at tick start ``time_s``.

        A scalar gives one flag per such task; a column of start times
        gives one row per time, with the same float operations, so the
        fast-forward horizon sees exactly the flags ``step`` uses.
        """
        phase_time = (time_s + self._gc_spike_phase) % self._gc_spike_period
        return phase_time < self._gc_spike_duration

    def step(self) -> None:
        """Advance the simulation by one tick."""
        cfg = self.config
        dt = cfg.dt

        # 0. Fault injection and checkpoint triggers. Due chaos events
        # mutate capacities/aliveness before the tick's demand is
        # computed; a due checkpoint snapshots dirty state into the
        # upload backlog that competes for disk bandwidth below.
        if self.fault_driver is not None:
            update = self.fault_driver.poll(self.trace_time_offset_s + self.time_s)
            if update is not None:
                self.apply_worker_factors(*update)
        if self._checkpoint is not None and (
            self.time_s + 1e-9 >= self._next_checkpoint_s
        ):
            self._trigger_checkpoint()

        # 1. Offered load. A task's offer is capped by its single
        # processing thread working at full speed through the complete
        # per-record service (CPU + state I/O + cross-worker emission):
        # a sequential thread cannot demand more of any resource than it
        # could consume processing alone, so backlog size never inflates
        # contention.
        if self._target_arr is None or self._tick_index >= self._target_until_tick:
            self._refresh_target_segment()
            self._ff_keep_last()
        target = self._target_arr
        epoch = self._capacity_epoch
        if epoch is None:
            epoch = self._capacity_epoch = _CapacityEpoch(self)
        if self._any_gc_spike:
            cpu_eff, cap = epoch.gc_inputs(self, self._gc_active(self.time_s))
        else:
            cpu_eff = self.cpu
            cap = epoch.thread_cap
        want = np.where(self.is_source, target * dt, self.queue)
        want = np.minimum(want, cap)
        if epoch.alive_w is not None:
            # Tasks on dead workers process nothing; their sources still
            # contribute to the target, so the shortfall surfaces as
            # backpressure until the controller replans.
            want = want * epoch.alive_w

        # 2. Resource contention. The checkpoint upload competes for
        # the disk; NIC demand counts cross-worker channels only.
        ckpt_io = None
        if self._checkpoint is not None and (self._ckpt_upload > 0).any():
            ckpt_io = np.minimum(
                self._ckpt_upload / dt,
                self._checkpoint.write_bandwidth_share * self.disk.capacity,
            )
        out_recs_want = want * self.sel
        net_by_worker = np.bincount(
            self._cross_worker,
            weights=(
                out_recs_want[self._cross_src] * self._cross_share * self._cross_outb / dt
            ),
            minlength=self._worker_count,
        )
        grants = share_resources(
            want, cpu_eff, self.io, net_by_worker, self.worker, self._uses,
            self.cpu_capacity, self.disk, self.nic, cfg.contention, dt,
            io_extra=ckpt_io,
        )
        if ckpt_io is not None:
            # The upload stream is granted the same per-worker fraction
            # as foreground I/O; drain the backlog by what was written.
            self._ckpt_upload = np.maximum(
                0.0, self._ckpt_upload - ckpt_io * grants.io_scale * dt
            )
        proc = want * grants.scale

        # 3. Backpressure via bounded downstream buffers. The drain
        # credit is last tick's *actual* processing: using this tick's
        # resource-limited offer would over-credit destinations whose
        # final processing is emission-throttled, letting queues run
        # away past their caps.
        out_recs = proc * self.sel
        throttles = throttle_emissions(
            out_recs,
            self.channels,
            self.queue,
            self.queue_cap,
            draining=self._last_proc,
        )
        proc_final = proc * throttles.throttle
        self._last_proc = proc_final
        out_recs_final = proc_final * self.sel
        inflow = distribute_inflow(out_recs_final, self.channels, throttles)

        self.queue = np.where(
            self.is_source, 0.0, self.queue - proc_final + inflow
        )
        self.queue = np.maximum(self.queue, 0.0)
        self.state_bytes += proc_final * self.state_growth
        if self._checkpoint is not None:
            self._ckpt_dirty += np.bincount(
                self.worker,
                weights=proc_final * self.state_growth,
                minlength=self._worker_count,
            )

        # 4. Metrics. Samples are stamped at tick end — computed as
        # integer-tick-count times dt so leap timestamps land on
        # bit-identical floats.
        tick_end_s = (self._tick_index + 1) * dt
        self._record_metrics(
            epoch, target, proc_final, out_recs_final, cpu_eff, grants, dt,
            tick_end_s,
        )
        if self.diagnosis is not None:
            self.diagnosis.observe_tick(
                grants, target, throttles, proc_final, dt, self.time_s
            )
        self._tick_index += 1
        self.time_s = self._tick_index * dt
        if self._ff_enabled:
            self._ff_observe(uploading=ckpt_io is not None)

    def _record_metrics(
        self,
        epoch: "_CapacityEpoch",
        target: np.ndarray,
        proc_final: np.ndarray,
        out_recs_final: np.ndarray,
        cpu_eff: np.ndarray,
        grants: Grants,
        dt: float,
        tick_end_s: float,
    ) -> None:
        w = self.worker
        service_time = cpu_eff / np.maximum(grants.cpu_scale_w, 1e-12)
        service_time = service_time + self.io / np.maximum(
            epoch.disk_w * grants.io_scale_w, 1e-12
        )
        service_time = service_time + self.cross_bytes_per_record / np.maximum(
            epoch.nic_w * grants.net_scale_w, 1e-12
        )
        # The divisor is at least 1e-12, so nothing divides by zero.
        true_rate = np.where(
            service_time > 0, 1.0 / np.maximum(service_time, 1e-12), _HUGE_RATE
        )
        true_rate = np.minimum(true_rate, _HUGE_RATE)
        observed = proc_final / dt
        busy = np.clip(proc_final * service_time / dt, 0.0, 1.0)

        if self.config.noise_std > 0:
            noise = self._rng.normal(
                1.0, self.config.noise_std, size=len(observed) * 2
            )
            observed = observed * np.clip(noise[: len(observed)], 0.5, 1.5)
            true_rate = true_rate * np.clip(noise[len(observed) :], 0.5, 1.5)

        self.metrics.record_task_tick(observed, true_rate, out_recs_final / dt, busy)
        cpu_util = (
            np.bincount(w, weights=proc_final * cpu_eff / dt, minlength=self._worker_count)
            / self.cpu_capacity
        )
        io_rate = np.bincount(
            w, weights=proc_final * self.io / dt, minlength=self._worker_count
        )
        net_rate = np.bincount(
            self._cross_worker,
            weights=(
                out_recs_final[self._cross_src] * self._cross_share * self._cross_outb / dt
            ),
            minlength=self._worker_count,
        )
        self.metrics.record_worker_usage(cpu_util, io_rate, net_rate)

        tr = self.tracer
        for job_id in self._job_sources:
            idx = self._job_source_idx[job_id]
            job_target = float(target[idx].sum())
            job_throughput = float(proc_final[idx].sum()) / dt
            backpressure = (
                max(0.0, 1.0 - job_throughput / job_target) if job_target > 0 else 0.0
            )
            queued = float(self.queue[self._job_task_mask[job_id]].sum())
            # Little's-law latency estimate; floored at 1% of target so a
            # near-stalled tick reports a large-but-finite latency instead
            # of a divide-by-zero artefact.
            latency_floor = max(0.01 * job_target, 1e-6)
            latency = queued / max(job_throughput, latency_floor)
            self.metrics.record_job_tick(
                job_id,
                TickSample(
                    # stamp at tick end: the sample describes [t, t+dt)
                    time_s=tick_end_s,
                    target_rate=job_target,
                    throughput=job_throughput,
                    backpressure=backpressure,
                    latency_s=latency,
                    queued_records=queued,
                ),
            )
            if tr is not None and tr.enabled:
                tr.counter(
                    "sim",
                    f"job.{job_id}",
                    self.trace_time_offset_s + tick_end_s,
                    {
                        "target_rate": job_target,
                        "throughput": job_throughput,
                        "backpressure": backpressure,
                        "queued_records": queued,
                        "latency_s": latency,
                    },
                    cat="engine",
                )

    # ------------------------------------------------------------------
    # Fast-forward (exact-cycle event-horizon leaps, DESIGN.md §9)
    # ------------------------------------------------------------------
    def _ff_reset(self) -> None:
        """Drop the cycle record after an external mutation.

        Called by every entry point that changes inputs the recorded
        state does not cover (capacity factors, checkpoint setup, fault
        drivers, diagnosis): a cycle must be re-established by fresh
        ticks before the engine may leap again. The capacity epoch is
        dropped too, so the next tick rebuilds it from the current
        capacities and alive mask.
        """
        self._capacity_epoch = None
        self._ff_ticks = []
        self._ff_record = {}
        self._ff_offset = 0
        self._ff_period = 0
        self._ff_cycle = None

    def _ff_keep_last(self) -> None:
        """Forget every recorded state but the last one.

        Called when a new target segment starts: the earlier states
        were reached under the old targets, but the last one is where
        the new segment starts from, so a fixed point is still found
        after two ticks.
        """
        if len(self._ff_ticks) > 1:
            key = self._ff_ticks[-1]
            self._ff_ticks = [key]
            self._ff_record = {key: self._ff_record[key]}

    def _ff_observe(self, uploading: bool) -> None:
        """Record the state this tick left and look for a cycle.

        The state is the bytes of ``(queue, _last_proc)``: one tick is a
        deterministic function of them plus inputs that stay constant
        up to the next event horizon (the GC flags aside, which
        :meth:`_try_leap` checks). So if this tick left the state the
        tick ``p`` ticks back left, the last ``p`` ticks repeat, bit for
        bit, for as long as those inputs do. The match is exact: bytes
        compare, never a tolerance, and ``-0.0`` differs from ``0.0``.
        A tick that ran with a checkpoint upload in flight clears the
        record, since the upload backlog is an input the key does not
        cover.
        """
        key = self.queue.tobytes() + self._last_proc.tobytes()
        tick = self._tick_index - self._ff_offset
        self._ff_period = 0
        self._ff_cycle = None
        if uploading:
            self._ff_ticks = []
            self._ff_record = {}
        else:
            seen = self._ff_record.get(key)
            if seen is not None:
                self._ff_period = tick - seen
        self._ff_record[key] = tick
        self._ff_ticks.append(key)
        if len(self._ff_ticks) > _FF_RECORD_TICKS:
            oldest = self._ff_ticks.pop(0)
            if self._ff_record[oldest] == tick - _FF_RECORD_TICKS:
                del self._ff_record[oldest]

    def _first_tick_at(self, time_s: Seconds) -> Ticks:
        """Smallest tick index whose start time triggers at ``time_s``.

        Mirrors the engine's 1e-9 trigger tolerance: returns the first
        tick with ``tick * dt >= time_s - 1e-9``. The float division is
        only a guess; the adjustment loops pin the exact boundary so a
        leap can never overshoot a trigger tick.
        """
        dt = self.config.dt
        tick = int(math.ceil((time_s - 1e-9) / dt))
        while tick * dt < time_s - 1e-9:
            tick += 1
        while tick > 0 and (tick - 1) * dt >= time_s - 1e-9:
            tick -= 1
        return tick

    def _refresh_target_segment(self) -> None:
        """Rebuild the vectorized per-task source-target array.

        Every shipped pattern is piecewise-constant between the
        breakpoints it announces via ``next_change_after``, so the
        assembled array stays valid until the earliest breakpoint across
        patterns (converted to a tick index). Patterns answering
        ``None`` pin the segment to a single tick — the array is then
        rebuilt every tick, exactly like the old per-tick loop. A probe
        at the segment's last tick guards against optimistic
        ``next_change_after`` implementations: if the pattern value
        differs there, the segment is shrunk to one tick so neither the
        cache nor a leap can ever cross an unannounced change.
        """
        dt = self.config.dt
        tick = self._tick_index
        t = self.time_s
        target = np.zeros(len(self.cpu))
        until = _MAX_TICK
        for key, pattern in self._patterns.items():
            idx = self._source_indices[key]
            value = pattern(t)
            target[idx] = value * self._source_share[idx]
            change = pattern.next_change_after(t)
            if change is None:
                pattern_until = tick + 1
            elif math.isinf(change):
                pattern_until = _MAX_TICK
            else:
                pattern_until = max(self._first_tick_at(change), tick + 1)
                if pattern_until > tick + 1 and pattern((pattern_until - 1) * dt) != value:
                    pattern_until = tick + 1
            until = min(until, pattern_until)
        self._target_arr = target
        self._target_until_tick = until

    def _event_horizon_tick(self) -> Ticks:
        """First future tick whose inputs may differ from the cycle's.

        The earliest of: the next rate-pattern breakpoint (the cached
        target segment's expiry), the next pending chaos event, and the
        next checkpoint trigger — each mapped conservatively to the
        first tick it affects. GC spikes are checked per tick by
        :meth:`_gc_repeat_limit` instead. Under-estimating only costs a
        few extra executed ticks; over-estimating would break the
        equivalence contract, so every source rounds toward the present.
        """
        horizon = self._target_until_tick
        driver = self.fault_driver
        if driver is not None:
            event_time = driver.next_event_time()
            if event_time is not None:
                horizon = min(
                    horizon,
                    self._first_tick_at(event_time - self.trace_time_offset_s),
                )
        if self._checkpoint is not None and math.isfinite(self._next_checkpoint_s):
            horizon = min(horizon, self._first_tick_at(self._next_checkpoint_s))
        return horizon

    def _gc_repeat_limit(self, start: Ticks, period: Ticks, limit: Ticks) -> Ticks:
        """First tick in ``[start, limit)`` whose GC flags differ from
        those of the tick ``period`` earlier; ``limit`` if none does.

        The flags are scanned a few periods at a time, doubling the
        block, so a distant ``limit`` costs work in proportion to the
        ticks the leap covers, not to the bound.
        """
        dt = self.config.dt
        low = start
        block = 4 * period
        while low < limit:
            high = min(limit, low + block)
            active = self._gc_active(np.arange(low - period, high)[:, None] * dt)
            changed = np.flatnonzero((active[period:] != active[:-period]).any(axis=1))
            if len(changed):
                return low + int(changed[0])
            low = high
            block *= 2
        return limit

    def _try_leap(self, end_tick: int) -> bool:
        """Leap whole periods of the detected cycle, up to the event
        horizon capped at ``end_tick``.

        With a diagnosis collector attached only fixed points leap,
        since the collector replays one cached per-tick increment.
        """
        period = self._ff_period
        if not period or (period > 1 and self.diagnosis is not None):
            return False
        start = self._tick_index
        limit = min(self._event_horizon_tick(), end_tick)
        if limit - start < period:
            return False
        if self._any_gc_spike:
            limit = self._gc_repeat_limit(start, period, limit)
        cycles = (limit - start) // period
        if cycles <= 0:
            return False
        self._leap(period, cycles)
        return True

    def _ff_build_cycle(
        self, period: Ticks
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Per-tick state and dirty-byte increments of the last
        ``period`` ticks, in tick order, skipping all-zero ones.

        Each recorded key ends with its tick's ``_last_proc``, so the
        increments ``step`` added are recomputed from it with the same
        operations. The keys come from the per-tick list: with GC spikes
        a state can recur inside the period, so the record's distinct
        states may be fewer than its ticks. The record keeps only this
        period: the first leap shifts it forward by ``_ff_offset``,
        which holds for the cycle's states but not for the transient
        before it.
        """
        keys = self._ff_ticks[-period:]
        self._ff_ticks = keys
        self._ff_record = {key: self._ff_record[key] for key in keys}
        offset = len(self.queue) * 8
        state_incs: List[np.ndarray] = []
        dirty_incs: List[np.ndarray] = []
        for key in keys:
            state_inc = np.frombuffer(key, offset=offset) * self.state_growth
            if not state_inc.any():
                continue
            state_incs.append(state_inc)
            if self._checkpoint is not None:
                dirty_incs.append(
                    np.bincount(
                        self.worker, weights=state_inc, minlength=self._worker_count
                    )
                )
        return state_incs, dirty_incs

    def _leap(self, period: Ticks, cycles: int) -> None:
        """Replay ``cycles`` whole periods of the detected cycle,
        extending state and metrics exactly as tick-by-tick execution
        would have."""
        cycle = self._ff_cycle
        if cycle is None:
            cycle = self._ff_cycle = self._ff_build_cycle(period)
        state_incs, dirty_incs = cycle
        dt = self.config.dt
        start = self._tick_index
        ticks = period * cycles
        # Tick-end timestamps of the skipped ticks, stamped the same way
        # step() stamps them (integer tick count times dt).
        times = np.arange(start + 1, start + ticks + 1, dtype=np.float64) * dt
        self.metrics.repeat_last(period, cycles, times)
        # State accumulators advance by the increments the skipped ticks
        # would have applied, in tick order. Repeated addition — not
        # ``increment * cycles`` — keeps the floats bit-identical with
        # the tick-by-tick path, and still costs only O(ticks) cheap
        # vector adds.
        if state_incs:
            for _ in range(cycles):
                for inc in state_incs:
                    self.state_bytes += inc
        if dirty_incs:
            for _ in range(cycles):
                for inc in dirty_incs:
                    self._ckpt_dirty += inc
        if self.diagnosis is not None:
            # The diagnosis accumulators replay their cached per-tick
            # increment (period 1 only), mirroring the repeated-add
            # contract above.
            self.diagnosis.extend(ticks)
        self._ff_offset += ticks
        self._tick_index = start + ticks
        self.time_s = self._tick_index * dt
        self.leaps += 1
        self.ticks_leapt += ticks
        if self._registry is not None:
            self._registry.counter(
                "engine_leaps_total", help="Fast-forward leaps taken."
            ).inc()
            self._registry.counter(
                "engine_ticks_skipped_total",
                help="Simulation ticks skipped by fast-forward leaps.",
            ).inc(ticks)
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.event(
                "sim",
                "engine.leap",
                self.trace_time_offset_s + start * dt,
                cat="engine",
                args={
                    "ticks": ticks,
                    "from_s": start * dt,
                    "to_s": self.time_s,
                    "period": period,
                },
            )

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def run(self, duration_s: Seconds, warmup_s: Seconds = 0.0) -> SimulationSummary:
        """Simulate for ``duration_s`` and summarise the post-warmup part."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        ticks = max(1, int(round(duration_s / self.config.dt)))
        self._advance_to_tick(self._tick_index + ticks)
        return self.metrics.summarize(warmup_s=warmup_s)

    def run_until(self, time_s: Seconds) -> None:
        """Advance the simulation up to an absolute simulated time."""
        self._advance_to_tick(self._first_tick_at(time_s))

    def _advance_to_tick(self, end_tick: Ticks) -> None:
        while self._tick_index < end_tick:
            if not (self._ff_enabled and self._try_leap(end_tick)):
                self.step()

    def worker_state_bytes(self) -> np.ndarray:
        """Accumulated state-backend bytes per worker (diagnostics)."""
        return np.bincount(
            self.worker, weights=self.state_bytes, minlength=self._worker_count
        )
