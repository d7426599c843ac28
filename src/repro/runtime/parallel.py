"""Sharded record-runtime executor driven by a physical placement.

This module turns the placement layer's outputs into something
*executable*: a :class:`ShardedExecutor` takes a pipeline template, a
:class:`~repro.dataflow.physical.PhysicalGraph` and a
:class:`~repro.core.plan.PlacementPlan`, and runs the query as N
hash-partitioned operator instances per logical operator — one real
:class:`~repro.runtime.operators.Operator` object per task — connected
by bounded FIFO channels (:mod:`repro.runtime.channels`) with
credit-based backpressure.

Everything runs in a single process under a deterministic virtual-time
round-robin scheduler, so a run is a pure function of its inputs:
double runs are byte-identical (the CI gate diffs their traces), and
hash partitioning uses ``crc32`` over key reprs rather than Python's
salted ``hash``.

What runs depends on what the executor is given:

- **No physical graph**: nothing is sharded. The template runs once
  through :meth:`Pipeline.run <repro.runtime.executor.Pipeline.run>`,
  the single-instance semantic reference, and the result is wrapped as
  a :class:`ShardedResult` with no channels.
- **Semantic mode** (physical graph, no cluster): sources release
  freely against bounded channels; used to test partitioned semantics,
  credit backpressure and determinism without a performance model. With
  every operator at parallelism 1 the scheduler reproduces
  ``Pipeline.run``'s outputs, operator counters and state statistics
  bitwise on Q1, Q2 and Q6 (``tests/test_runtime_parallel.py`` and
  ``tests/test_runtime_state_pins.py`` check this).
- **Paced mode** (cluster + placement): virtual time advances in
  50 ms slices; per-slice record budgets come from the single-thread
  cap and the resource-sharing function the fluid engine calls every
  tick (:func:`~repro.simulator.contention.share_resources`), under the
  same :class:`~repro.simulator.engine.SimulationConfig`, so the fluid
  model's throughput predictions can be cross-validated against actual
  record execution under the same placement
  (``experiments/validate_runtime.py``).

Watermarks travel in-band: each instance tracks the last watermark per
input channel and advances to the minimum across its inputs, firing its
operator's windows exactly once per advance (an operator whose
:meth:`~repro.runtime.operators.Operator.can_fire` says nothing can
fire is not called). Window flushes bypass channel credit (tracked as
overflow) so event-time progress can never deadlock behind a full
buffer.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.runtime.channels import BoundedChannel, ChannelStats, ITEM_WATERMARK
from repro.runtime.executor import Pipeline, PipelineResult, check_chain_shape
from repro.runtime.operators import (
    Operator,
    OperatorStats,
    Record,
    WindowJoinOperator,
)
from repro.runtime.state import StateStats
from repro.simulator.contention import share_resources, thread_cap
from repro.simulator.engine import SimulationConfig
from repro.simulator.metrics import check_duration, check_warmup
from repro.simulator.network import NicModel
from repro.simulator.state_backend import DiskModel

_END_OF_TIME = 2**62
_MIN_WATERMARK = -(2**62)

#: Paced-mode virtual-time slice: budgets, pacing and trace counters
#: all advance at this granularity.
_SLICE_MS = 50
_SLICE_S = _SLICE_MS / 1000.0
#: Records one instance may process per scheduler turn before yielding
#: (fairness granularity).
_TURN_CHUNK = 32
#: Per-channel credit in semantic mode, where no cost model sizes it.
_SEMANTIC_CHANNEL_RECORDS = 1024
#: Floor for the paced mode's derived per-channel credits. An int, unlike
#: the engine's ``min_queue_records``: channel capacities count records.
_MIN_CHANNEL_RECORDS = 10


def stable_hash(key: Any) -> int:
    """Deterministic cross-run hash of a partition key.

    Python's builtin ``hash`` is salted per process for strings, which
    would break the byte-identical double-run contract; ``crc32`` over
    the key's repr is stable and fast.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


# ----------------------------------------------------------------------
# Pipeline templates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SourceDef:
    """One timestamp-ordered source stream of a template."""

    tag: str
    records: Tuple[Record, ...]


@dataclass(frozen=True)
class StageDef:
    """One logical operator stage: a name plus an operator factory.

    The factory is invoked once per parallel instance, so every shard
    gets private state; it must return an operator whose ``name``
    equals ``name``.
    """

    name: str
    factory: Callable[[], Operator]


class PipelineTemplate:
    """A re-instantiable pipeline description.

    The classic :class:`Pipeline` holds operator *objects* and can run
    once; a template holds operator *factories*, so the same query can
    be assembled for the single-threaded executor
    (:meth:`build_pipeline`) and instantiated N times per operator by
    the sharded executor.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.sources: List[SourceDef] = []
        self.stages: List[StageDef] = []

    def add_source(
        self, records: Iterable[Record], tag: str = "main"
    ) -> "PipelineTemplate":
        if len(self.sources) >= 2:
            raise ValueError("a pipeline supports at most two sources")
        if any(s.tag == tag for s in self.sources):
            raise ValueError(f"duplicate source tag {tag!r}")
        self.sources.append(SourceDef(tag, tuple(records)))
        return self

    def then(
        self, name: str, factory: Callable[[], Operator]
    ) -> "PipelineTemplate":
        if any(s.name == name for s in self.stages):
            raise ValueError(f"duplicate operator name {name!r}")
        self.stages.append(StageDef(name, factory))
        return self

    def validate(self) -> None:
        """The assembly checks of :meth:`Pipeline.run`, pre-flight."""
        operators = [stage.factory() for stage in self.stages]
        check_chain_shape(len(self.sources), operators)
        for stage, op in zip(self.stages, operators):
            if op.name != stage.name:
                raise ValueError(
                    f"stage {stage.name!r} factory built operator "
                    f"named {op.name!r}"
                )

    def build_pipeline(self) -> Pipeline:
        """Assemble a classic single-threaded :class:`Pipeline`."""
        pipeline = Pipeline(self.name)
        for source in self.sources:
            pipeline.add_source(list(source.records), tag=source.tag)
        for stage in self.stages:
            pipeline.then(stage.factory())
        return pipeline


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RuntimeJobSummary:
    """Post-warmup averages of one sharded run (fluid-comparable).

    ``throughput`` counts records released by the sources per virtual
    second and ``backpressure`` is the shortfall fraction against the
    target rate — the same definitions the fluid
    :class:`~repro.simulator.results.JobSummary` uses, which is what
    makes the cross-validation a like-for-like comparison.
    """

    job_id: str
    target_rate: float
    throughput: float
    backpressure: float
    duration_s: float


@dataclass
class ShardedResult(PipelineResult):
    """A :class:`PipelineResult` plus per-instance and channel views.

    ``operator_stats`` and ``state_stats`` sum each logical operator's
    instances; ``summary`` is set in paced mode only.
    """

    instance_stats: Dict[str, OperatorStats]
    channel_stats: Dict[str, ChannelStats]
    summary: Optional[RuntimeJobSummary] = None


# ----------------------------------------------------------------------
# Internal topology
# ----------------------------------------------------------------------

#: Routing modes of an out-channel group (one group per logical edge).
_FORWARD, _HASH, _REBALANCE, _BROADCAST = range(4)


class _OutGroup:
    """One producing instance's channels toward one downstream operator."""

    __slots__ = ("dst_operator", "channels", "mode", "key_fn", "rr_next", "direct")

    def __init__(
        self,
        dst_operator: str,
        channels: List[BoundedChannel],
        mode: int,
        key_fn: Optional[Callable[[Any], Any]],
    ) -> None:
        self.dst_operator = dst_operator
        self.channels = channels
        self.mode = mode
        self.key_fn = key_fn
        self.rr_next = 0
        # every record goes to every channel of the group: a broadcast,
        # or a group of one channel
        self.direct = mode == _BROADCAST or len(channels) == 1

    def pick(self, record: Record) -> BoundedChannel:
        """The channel this record travels on, in a group that is not
        ``direct`` (deterministic)."""
        channels = self.channels
        if self.mode == _HASH:
            return channels[stable_hash(self.key_fn(record.value)) % len(channels)]
        # rebalance: round-robin over channels with free credit
        for _ in range(len(channels)):
            channel = channels[self.rr_next]
            self.rr_next = (self.rr_next + 1) % len(channels)
            if channel.capacity is None or channel.occupancy < channel.capacity:
                return channel
        return channels[self.rr_next]


class _Relay(Operator):
    """Identity relay for a logical operator the template has no stage
    for (e.g. the pre-join maps of Q2): each record passes through as
    the same object."""

    def process(self, record: Record) -> List[Record]:
        self._count_in()
        return self._emit([record])


class _Instance:
    """One parallel instance of a logical operator (or source shard)."""

    __slots__ = (
        "operator_name", "index", "uid", "operator", "is_source",
        "records", "pos", "released", "released_in_slice",
        "in_channels", "in_queues", "in_sides", "in_watermarks",
        "out_groups", "out_channels", "credit_all", "credit_any",
        "watermark", "end_sent",
        "blocked_slices", "processed",
    )

    def __init__(self, operator_name: str, index: int, uid: str) -> None:
        self.operator_name = operator_name
        self.index = index
        self.uid = uid
        self.operator: Optional[Operator] = None
        self.is_source = False
        self.records: Tuple[Record, ...] = ()
        self.pos = 0
        self.released = 0
        self.released_in_slice = 0
        self.in_channels: List[BoundedChannel] = []
        self.in_sides: List[Optional[str]] = []
        self.in_watermarks: List[int] = []
        self.out_groups: List[_OutGroup] = []
        # the last watermark this instance broadcast: for an operator the
        # minimum over its inputs, for a source its latest release time
        self.watermark = _MIN_WATERMARK
        self.end_sent = False
        self.blocked_slices = 0
        self.processed = 0

    def wire(self) -> None:
        """Derive the per-item views of the channels, once they exist.

        ``in_queues`` are the input channels' queues, whose heads the
        scheduler reads. ``out_channels`` lists every output channel in
        group order, the order watermarks go out in. The credit rule:
        key-bound groups (forward/hash/broadcast) block when *any*
        member channel is full, since the record's target is fixed by
        its key, so a full member head-of-line blocks the producer,
        exactly like the fluid model's HASH throttling; a reroutable
        (rebalance) group blocks only when every member is full.
        ``credit_all`` holds the bounded channels of key-bound groups,
        ``credit_any`` the member lists of rebalance groups that have
        no unbounded member.
        """
        self.in_queues = [channel.items for channel in self.in_channels]
        self.out_channels = [
            channel for group in self.out_groups for channel in group.channels
        ]
        self.credit_all = [
            channel
            for group in self.out_groups if group.mode != _REBALANCE
            for channel in group.channels if channel.capacity is not None
        ]
        self.credit_any = [
            group.channels
            for group in self.out_groups
            if group.mode == _REBALANCE
            and all(channel.capacity is not None for channel in group.channels)
        ]

    def out_of_credit(self) -> bool:
        """True when one more emission cannot go out (see :meth:`wire`)."""
        for channel in self.credit_all:
            if channel.occupancy >= channel.capacity:
                return True
        for channels in self.credit_any:
            for channel in channels:
                if channel.occupancy < channel.capacity:
                    break
            else:
                return True
        return False

    def count_blocked_puts(self) -> None:
        """Charge a turn ended by backpressure to every full out-channel."""
        for channel in self.out_channels:
            if channel.capacity is not None and channel.occupancy >= channel.capacity:
                channel.stats.blocked_puts += 1

    def exhausted(self) -> bool:
        return self.pos >= len(self.records)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

class ShardedExecutor:
    """Run a pipeline template as placed, sharded operator instances.

    Args:
        template: The query (sources + operator factories).
        physical: Physical graph whose logical operators carry the
            template's stage names; logical operators not named by a
            stage become identity relays (e.g. Q2's maps). ``None``
            runs the template once through ``Pipeline.run``: one
            instance per stage and no channels.
        plan: Task placement; required with ``cluster``.
        cluster: Worker capacities. Providing a cluster turns on paced
            mode: virtual-time pacing with fluid-model record budgets.
        source_rates: Target records/s per logical source operator.
            Paced mode needs one for every source: it caps each
            source's release per slice and is the target of the run
            summary's backpressure share. The other modes ignore it.
        config: The fluid engine's configuration. Paced mode reads its
            contention coefficients and buffer sizing
            (``buffer_bytes_per_task``, ``max_buffer_seconds``), so one
            config drives both executors.
        channel_capacity_records: Fixed per-channel credit; ``None``
            derives credits from the cost model (paced mode) or uses a
            flat 1024 records (semantic mode).
        tracer: Optional tracer; ``runtime.shard`` spans and per-slice
            job counters land in the ``sim`` clock domain.
        registry: Optional metric registry for end-of-run counters.
    """

    def __init__(
        self,
        template: PipelineTemplate,
        physical=None,
        plan=None,
        cluster=None,
        source_rates: Optional[Mapping[str, float]] = None,
        config: Optional[SimulationConfig] = None,
        channel_capacity_records: Optional[int] = None,
        tracer=None,
        registry=None,
    ) -> None:
        template.validate()
        self.template = template
        self.physical = physical
        self.plan = plan
        self.cluster = cluster
        self.config = config or SimulationConfig()
        self._channel_capacity_records = channel_capacity_records
        self.tracer = tracer
        self.registry = registry
        self._source_rates = dict(source_rates or {})

        if cluster is not None:
            if physical is None or plan is None:
                raise ValueError("paced mode needs both a physical graph and a plan")
            for op in physical.logical_graphs[0].sources():
                if op not in self._source_rates:
                    raise ValueError(
                        f"paced mode needs a rate for source {op!r} in source_rates"
                    )

        # every enqueued item takes the next ticket
        self._tickets = itertools.count(1)
        self._outputs: List[Record] = []
        self._instances: List[_Instance] = []
        self._sources: List[List[_Instance]] = []  # per template source
        self._channels: List[BoundedChannel] = []

        if physical is None:
            self.job_id = template.name
            return
        self._build_from_physical()
        self.job_id = physical.logical_graphs[0].job_id
        if cluster is not None:
            self._build_cost_model()

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _new_channel(self, name: str, capacity: Optional[int]) -> BoundedChannel:
        channel = BoundedChannel(name, capacity)
        self._channels.append(channel)
        return channel

    def _register(self, inst: _Instance) -> None:
        self._instances.append(inst)
        self._op_instances.setdefault(inst.operator_name, []).append(inst)

    def _build_from_physical(self) -> None:
        """Instantiate the template onto a physical graph's tasks."""
        from repro.dataflow.graph import Partitioning

        graph = self.physical.logical_graphs[0]
        source_ops = graph.sources()
        if len(source_ops) != len(self.template.sources):
            raise ValueError(
                f"template has {len(self.template.sources)} sources but the "
                f"logical graph has {len(source_ops)}"
            )
        stage_by_name = {stage.name: stage for stage in self.template.stages}
        unknown = set(stage_by_name) - set(graph.operators)
        if unknown:
            raise ValueError(
                f"template stages missing from the logical graph: "
                f"{sorted(unknown)}"
            )

        # Side of each logical operator: which template source its
        # records descend from (None past a join / for the join itself).
        side_of: Dict[str, Optional[int]] = {}
        for position, op in enumerate(source_ops):
            side_of[op] = position
        for op in graph.topological_order():
            if op in side_of:
                continue
            upstream_sides = {side_of[e.src] for e in graph.upstream(op)}
            side_of[op] = (
                upstream_sides.pop() if len(upstream_sides) == 1 else None
            )

        self._op_instances = {}
        instances_of: Dict[str, List[_Instance]] = {}
        for op in graph.topological_order():
            tasks = self.physical.operator_tasks(graph.job_id, op)
            members: List[_Instance] = []
            for task in tasks:
                inst = _Instance(op, task.index, task.uid)
                spec = self.physical.spec_of(task)
                if spec.is_source:
                    inst.is_source = True
                elif op in stage_by_name:
                    inst.operator = stage_by_name[op].factory()
                else:
                    inst.operator = _Relay(op)
                self._register(inst)
                members.append(inst)
            instances_of[op] = members

        # Split each template source's records round-robin over its
        # source instances (deterministic, preserves per-instance order).
        for position, op in enumerate(source_ops):
            members = instances_of[op]
            shards: List[List[Record]] = [[] for _ in members]
            for seq, record in enumerate(self.template.sources[position].records):
                shards[seq % len(members)].append(record)
            for inst, shard in zip(members, shards):
                inst.records = tuple(shard)
            self._sources.append(members)

        # Channels follow the physical graph exactly; per-edge routing
        # mode and key accessor are shared by all producing instances.
        edge_mode: Dict[Tuple[str, str], Tuple[int, Optional[Callable]]] = {}
        for edge in graph.edges:
            key_fn = self._edge_key_fn(edge.dst, side_of.get(edge.src))
            if edge.partitioning is Partitioning.FORWARD:
                mode = _FORWARD
            elif edge.partitioning is Partitioning.BROADCAST:
                mode = _BROADCAST
            elif edge.partitioning is Partitioning.HASH and key_fn is not None:
                mode = _HASH
            else:
                mode = _REBALANCE
            edge_mode[(edge.src, edge.dst)] = (mode, key_fn)

        capacities = self._channel_capacities(graph, instances_of)
        by_uid = {inst.uid: inst for inst in self._instances}
        for src_op in graph.topological_order():
            for src_inst in instances_of[src_op]:
                task = self.physical.task_by_uid(src_inst.uid)
                grouped: Dict[str, List] = {}
                for channel in self.physical.out_channels(task):
                    grouped.setdefault(channel.dst.operator, []).append(channel)
                for dst_op, phys_channels in grouped.items():
                    phys_channels.sort(key=lambda ch: ch.dst.index)
                    mode, key_fn = edge_mode[(src_op, dst_op)]
                    members: List[BoundedChannel] = []
                    for phys in phys_channels:
                        dst_inst = by_uid[phys.dst.uid]
                        channel = self._new_channel(
                            f"{src_inst.uid}->{dst_inst.uid}",
                            capacities.get(dst_inst.uid),
                        )
                        dst_inst.in_channels.append(channel)
                        dst_inst.in_sides.append(
                            self._join_side(dst_inst, side_of.get(src_op))
                        )
                        dst_inst.in_watermarks.append(_MIN_WATERMARK)
                        members.append(channel)
                    src_inst.out_groups.append(
                        _OutGroup(dst_op, members, mode, key_fn)
                    )
        for inst in self._instances:
            inst.wire()

    def _edge_key_fn(
        self, dst_op: str, src_side: Optional[int]
    ) -> Optional[Callable[[Any], Any]]:
        """Partition-key accessor for records entering ``dst_op``."""
        stage = next(
            (s for s in self.template.stages if s.name == dst_op), None
        )
        if stage is None:
            return None
        probe = stage.factory()
        if isinstance(probe, WindowJoinOperator):
            if src_side == 0:
                return probe.left_key_fn
            if src_side == 1:
                return probe.right_key_fn
            return None
        return getattr(probe, "key_fn", None)

    def _join_side(
        self, dst_inst: _Instance, src_side: Optional[int]
    ) -> Optional[str]:
        if not isinstance(dst_inst.operator, WindowJoinOperator):
            return None
        if src_side not in (0, 1):
            raise ValueError(
                f"cannot derive a join side for channel into {dst_inst.uid}"
            )
        return (WindowJoinOperator.LEFT, WindowJoinOperator.RIGHT)[src_side]

    def _channel_capacities(
        self, graph, instances_of: Dict[str, List[_Instance]]
    ) -> Dict[str, Optional[int]]:
        """Per-destination-instance channel credit, keyed by uid.

        Mirrors the fluid engine's buffer sizing: bytes-derived caps,
        debloated to ``max_buffer_seconds`` of uncontended service, then
        split across the instance's input channels. Without a cluster
        there is no service model, so every channel gets a flat 1024
        records. A fixed ``channel_capacity_records`` overrides both.
        """
        cfg = self.config
        capacities: Dict[str, Optional[int]] = {}
        fixed = self._channel_capacity_records
        for op in graph.topological_order():
            spec = graph.operator(op)
            for inst in instances_of[op]:
                if inst.is_source:
                    continue
                if fixed is not None:
                    capacities[inst.uid] = fixed
                    continue
                if self.cluster is None:
                    capacities[inst.uid] = _SEMANTIC_CHANNEL_RECORDS
                    continue
                in_edges = graph.upstream(op)
                in_bytes = max(
                    [graph.operator(e.src).out_record_bytes for e in in_edges]
                    or [100.0]
                )
                worker = self.cluster.worker(self.plan.worker_of_uid(inst.uid))
                floor = (
                    spec.cpu_per_record
                    + spec.io_bytes_per_record / worker.spec.disk_bandwidth
                )
                per_task = cfg.buffer_bytes_per_task / max(in_bytes, 1.0)
                if floor > 0:
                    per_task = min(per_task, cfg.max_buffer_seconds / floor)
                n_in = max(
                    1,
                    sum(
                        len(instances_of[e.src]) for e in in_edges
                    ),
                )
                capacities[inst.uid] = max(
                    _MIN_CHANNEL_RECORDS, int(per_task / n_in)
                )
        return capacities

    # ------------------------------------------------------------------
    # Cost model (paced mode): the fluid engine's thread cap and resource
    # sharing, applied to actual per-instance queues.
    # ------------------------------------------------------------------
    def _build_cost_model(self) -> None:
        physical, cluster = self.physical, self.cluster
        worker_pos = {w.worker_id: i for i, w in enumerate(cluster.workers)}
        self._worker_count = len(cluster.workers)
        self._cpu_capacity = np.array(
            [w.spec.cpu_capacity for w in cluster.workers], dtype=float
        )
        self._disk = DiskModel(
            np.array([w.spec.disk_bandwidth for w in cluster.workers]),
            self.config.contention,
        )
        self._nic = NicModel(
            np.array([w.spec.network_bandwidth for w in cluster.workers])
        )
        n = len(self._instances)
        self._cpu = np.zeros(n)
        self._io = np.zeros(n)
        self._cross_bytes = np.zeros(n)
        self._worker = np.zeros(n, dtype=np.int64)
        self._carry = np.zeros(n)
        for i, inst in enumerate(self._instances):
            task = physical.task_by_uid(inst.uid)
            spec = physical.spec_of(task)
            self._cpu[i] = spec.cpu_per_record
            self._io[i] = spec.io_bytes_per_record
            self._worker[i] = worker_pos[self.plan.worker_of(task)]
            cross = 0.0
            src_worker = self.plan.worker_of(task)
            for channel in physical.out_channels(task):
                if self.plan.worker_of(channel.dst) != src_worker:
                    cross += channel.share * spec.out_record_bytes * spec.selectivity
            self._cross_bytes[i] = cross
        self._uses = (self._cpu > 0, self._io > 0, self._cross_bytes > 0)
        service_floor = (
            self._cpu
            + self._io / self._disk.capacity[self._worker]
            + self._cross_bytes / self._nic.capacity[self._worker]
        )
        self._thread_cap = thread_cap(service_floor, _SLICE_S)

    def _slice_budgets(self, due: np.ndarray) -> np.ndarray:
        """Integer record budgets for one slice.

        The fluid engine's offered load and resource sharing over
        operator *instances* instead of fluid tasks: the single-thread
        cap, then :func:`share_resources`, the function
        ``FluidSimulation.step`` calls. Only the NIC demand is summed
        here, per instance. Fractional grants carry over between slices
        so long-run rates are unbiased.
        """
        want = np.minimum(due, self._thread_cap)
        net_by_worker = np.bincount(
            self._worker,
            weights=want * self._cross_bytes / _SLICE_S,
            minlength=self._worker_count,
        )
        grants = share_resources(
            want, self._cpu, self._io, net_by_worker, self._worker, self._uses,
            self._cpu_capacity, self._disk, self._nic, self.config.contention,
            _SLICE_S,
        )
        budget_f = want * grants.scale + self._carry
        budgets = np.floor(budget_f)
        self._carry = budget_f - budgets
        return budgets

    # ------------------------------------------------------------------
    # Emission and watermark plumbing
    # ------------------------------------------------------------------
    def _route(self, inst: _Instance, outputs: List[Record], force: bool) -> None:
        """Enqueue each output on its group's channels, one ticket per
        put: record by record, group by group, channel by channel."""
        if not inst.out_groups:
            self._outputs.extend(outputs)
            return
        tickets = self._tickets
        for record in outputs:
            for group in inst.out_groups:
                targets = group.channels if group.direct else (group.pick(record),)
                for channel in targets:
                    if force:
                        channel.force_put(next(tickets), record)
                    elif not channel.try_put(next(tickets), record):  # pragma: no cover - guarded
                        raise RuntimeError(f"emission into full channel {channel.name}")

    def _broadcast_watermark(self, inst: _Instance, watermark_ms: int) -> None:
        """Send a watermark the instance advanced to on every out-channel."""
        tickets = self._tickets
        for channel in inst.out_channels:
            channel.put_watermark(next(tickets), watermark_ms)

    def _handle_watermark(
        self, inst: _Instance, channel_index: int, watermark_ms: int
    ) -> None:
        if watermark_ms > inst.in_watermarks[channel_index]:
            inst.in_watermarks[channel_index] = watermark_ms
        advanced = min(inst.in_watermarks)
        if advanced <= inst.watermark:
            return
        inst.watermark = advanced
        # an operator that cannot fire at this watermark is not called
        # (Operator.can_fire): the call would emit and change nothing
        if inst.operator.can_fire(advanced):
            fired = inst.operator.on_watermark(advanced)
            if fired:
                # window flushes bypass channel credit: blocking a
                # trigger on a full buffer could deadlock the event-time
                # clock
                self._route(inst, fired, force=True)
        self._broadcast_watermark(inst, advanced)

    # ------------------------------------------------------------------
    # Scheduler turns
    # ------------------------------------------------------------------
    def _operator_turn(
        self, inst: _Instance, budget: float
    ) -> Tuple[int, bool, bool]:
        """Process up to ``budget`` records; returns (used, progress, blocked).

        Each step takes the input item with the lowest ticket (with one
        input, simply its head). Watermark items are free: they consume
        neither budget nor the fairness chunk, so event time keeps
        advancing even through instances whose record budget is
        exhausted this slice. FIFO still holds — a watermark queued
        behind records waits for them.
        """
        limit = min(budget, _TURN_CHUNK)
        used = 0
        progressed = False
        operator = inst.operator
        channels = inst.in_channels
        sides = inst.in_sides
        queues = inst.in_queues
        single = len(queues) == 1
        bounded = bool(inst.credit_all or inst.credit_any)
        while True:
            if single:
                if not queues[0]:
                    break
                best = 0
            else:
                best = -1
                best_ticket = 0
                for index, queue in enumerate(queues):
                    if queue:
                        ticket = queue[0][0]
                        if best < 0 or ticket < best_ticket:
                            best, best_ticket = index, ticket
                if best < 0:
                    break
            channel = channels[best]
            if queues[best][0][1] == ITEM_WATERMARK:
                self._handle_watermark(inst, best, channel.get()[2])
                progressed = True
                continue
            if used >= limit:
                break
            if bounded and inst.out_of_credit():
                inst.count_blocked_puts()
                return used, progressed, True
            record = channel.get()[2]
            side = sides[best]
            if side is not None:
                outputs = operator.process_side(side, record)
            else:
                outputs = operator.process(record)
            if outputs:
                self._route(inst, outputs, force=False)
            inst.processed += 1
            used += 1
            progressed = True
        return used, progressed, False

    def _source_turn(
        self, inst: _Instance, budget: float, now_ms: float
    ) -> Tuple[int, bool, bool]:
        """Release due records; returns (used, progress, blocked)."""
        limit = min(budget, _TURN_CHUNK)
        used = 0
        progressed = False
        records = inst.records
        while used < limit and inst.pos < len(records):
            record = records[inst.pos]
            if record.timestamp_ms > now_ms:
                break
            if inst.out_of_credit():
                inst.count_blocked_puts()
                return used, progressed, True
            inst.pos += 1
            inst.released += 1
            inst.released_in_slice += 1
            self._route(inst, [record], force=False)
            if record.timestamp_ms > inst.watermark:
                inst.watermark = record.timestamp_ms
                self._broadcast_watermark(inst, inst.watermark)
            used += 1
            progressed = True
        if inst.exhausted() and not inst.end_sent:
            inst.end_sent = True
            if _END_OF_TIME > inst.watermark:
                inst.watermark = _END_OF_TIME
                self._broadcast_watermark(inst, _END_OF_TIME)
            progressed = True
        return used, progressed, False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, duration_s: Optional[float] = None, warmup_s: float = 0.0
    ) -> ShardedResult:
        """Execute and return outputs plus statistics.

        ``duration_s``/``warmup_s`` only apply to paced mode (a virtual
        wall to run to, and the summary's warmup cut); the single-
        instance and semantic modes always run their datasets to
        completion. In paced mode ``duration_s`` must be finite and
        positive, or None (the datasets run to completion), and
        ``warmup_s`` must lie below the run's end: ``duration_s``, or the
        last slice's end when ``duration_s`` is None.
        """
        if self.physical is None:
            return self._run_single_instance()
        if self.cluster is None:
            self._run_semantic()
            summary = None
        else:
            summary = self._run_paced(duration_s, warmup_s)
        return self._result(summary)

    # -- single instance: the reference executor -----------------------
    def _run_single_instance(self) -> ShardedResult:
        result = self.template.build_pipeline().run()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "sim", "runtime.exact.done", 0.0, cat="runtime",
                args={
                    "job": self.job_id,
                    "ingested": result.records_ingested,
                    "outputs": len(result.outputs),
                },
            )
        self._publish_metrics(result.operator_stats, result.records_ingested)
        return ShardedResult(
            outputs=result.outputs,
            operator_stats=result.operator_stats,
            state_stats=result.state_stats,
            records_ingested=result.records_ingested,
            instance_stats={
                f"{name}[0]": stats
                for name, stats in result.operator_stats.items()
            },
            channel_stats={},
        )

    # -- semantic mode (physical graph, no performance model) ---------
    def _run_semantic(self) -> None:
        slice_index = 0
        while True:
            progressed = self._run_slice(math.inf, budgets=None)
            slice_index += 1
            if not progressed and all(
                inst.exhausted() and inst.end_sent
                for members in self._sources for inst in members
            ):
                break
            if not progressed:  # pragma: no cover - safety net
                raise RuntimeError("sharded scheduler stalled with work left")
        self._emit_slice_trace(slice_index)

    # -- paced mode (virtual time + fluid budgets) ---------------------
    def _run_paced(
        self, duration_s: Optional[float], warmup_s: float
    ) -> RuntimeJobSummary:
        if duration_s is not None:
            check_duration(duration_s)
        check_warmup(warmup_s, math.inf if duration_s is None else duration_s)
        dt = _SLICE_S
        rates = [
            float(self._source_rates[members[0].operator_name])
            for members in self._sources
        ]
        target_total = sum(rates)
        # Per-instance source offer cap, mirroring the fluid engine's
        # source ``want = target * dt``: a backlogged source may not
        # burst past its target rate to catch up, so shortfall shows up
        # as sustained backpressure exactly as it does in the model.
        source_cap = np.full(len(self._instances), np.inf)
        for members, rate in zip(self._sources, rates):
            rate_per_inst = rate / len(members)
            for inst in members:
                source_cap[self._instances.index(inst)] = rate_per_inst * dt
        samples: List[Tuple[float, float]] = []  # (slice_end_s, released)
        now_ms = 0.0
        slice_index = 0
        while True:
            if duration_s is not None and now_ms / 1000.0 >= duration_s:
                break
            now_ms += _SLICE_MS
            due = np.zeros(len(self._instances))
            for i, inst in enumerate(self._instances):
                if inst.is_source:
                    # count due records, stopping just past the offer
                    # cap so a deep backlog is never rescanned in full
                    limit = source_cap[i] + 1.0
                    records = inst.records
                    pos = inst.pos
                    count = 0
                    while (
                        pos + count < len(records)
                        and count < limit
                        and records[pos + count].timestamp_ms <= now_ms
                    ):
                        count += 1
                    due[i] = min(float(count), source_cap[i])
                else:
                    due[i] = sum(ch.occupancy for ch in inst.in_channels)
            budgets = self._slice_budgets(due)
            self._run_slice(now_ms, budgets=budgets)
            released = sum(
                inst.released_in_slice
                for members in self._sources for inst in members
            )
            for members in self._sources:
                for inst in members:
                    inst.released_in_slice = 0
            slice_end_s = (slice_index + 1) * dt
            samples.append((slice_end_s, float(released)))
            if self.tracer is not None and self.tracer.enabled:
                throughput = released / dt
                self.tracer.counter(
                    "sim", f"runtime.job.{self.job_id}", slice_end_s,
                    {
                        "throughput": throughput,
                        "backpressure": (
                            max(0.0, 1.0 - throughput / target_total)
                            if target_total > 0 else 0.0
                        ),
                        "released": float(released),
                    },
                    cat="runtime",
                )
            slice_index += 1
            if (
                duration_s is None
                and all(
                    inst.exhausted() and inst.end_sent
                    for members in self._sources for inst in members
                )
                and all(len(ch) == 0 for ch in self._channels)
            ):
                break
        self._emit_slice_trace(slice_index)
        duration = samples[-1][0]
        if duration_s is None:
            check_warmup(warmup_s, duration)
        window = [(t, r) for t, r in samples if t >= warmup_s]
        mean_throughput = sum(r for _, r in window) / (len(window) * dt)
        backpressure = (
            max(0.0, 1.0 - mean_throughput / target_total)
            if target_total > 0 else 0.0
        )
        return RuntimeJobSummary(
            job_id=self.job_id,
            target_rate=target_total,
            throughput=mean_throughput,
            backpressure=backpressure,
            duration_s=duration - warmup_s,
        )

    def _run_slice(
        self, now_ms: float, budgets: Optional[np.ndarray]
    ) -> bool:
        """One slice of round-robin turns; True if anything progressed."""
        # Python floats: the same IEEE arithmetic as the float64
        # budgets, without a numpy scalar per turn
        remaining = (
            budgets.tolist() if budgets is not None
            else [math.inf] * len(self._instances)
        )
        blocked_this_slice = [False] * len(self._instances)
        slice_progress = False
        progressed = True
        while progressed:
            progressed = False
            for i, inst in enumerate(self._instances):
                if inst.is_source:
                    used, turn_progress, blocked = self._source_turn(
                        inst, remaining[i], now_ms
                    )
                else:
                    used, turn_progress, blocked = self._operator_turn(
                        inst, remaining[i]
                    )
                remaining[i] -= used
                if blocked:
                    blocked_this_slice[i] = True
                progressed = progressed or turn_progress
                slice_progress = slice_progress or turn_progress
        for i, inst in enumerate(self._instances):
            if blocked_this_slice[i]:
                inst.blocked_slices += 1
        return slice_progress

    def _emit_slice_trace(self, slices: int) -> None:
        if self.tracer is None or not self.tracer.enabled:
            return
        for inst in self._instances:
            self.tracer.span(
                "sim", "runtime.shard", 0.0, slices * _SLICE_S, cat="runtime",
                args={
                    "task": inst.uid,
                    "records": inst.released if inst.is_source else inst.processed,
                    "blocked_slices": inst.blocked_slices,
                },
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _result(self, summary: Optional[RuntimeJobSummary]) -> ShardedResult:
        instance_stats: Dict[str, OperatorStats] = {}
        operator_stats: Dict[str, OperatorStats] = {}
        state_stats: Dict[str, StateStats] = {}
        for name, members in self._op_instances.items():
            if members[0].is_source:
                continue
            total = OperatorStats()
            state_total = StateStats()
            for inst in members:
                stats = inst.operator.stats
                instance_stats[inst.uid] = stats
                total.records_in += stats.records_in
                total.records_out += stats.records_out
                inst_state = inst.operator.state_stats()
                state_total.reads += inst_state.reads
                state_total.writes += inst_state.writes
                state_total.deletes += inst_state.deletes
                state_total.bytes_read += inst_state.bytes_read
                state_total.bytes_written += inst_state.bytes_written
            operator_stats[name] = total
            state_stats[name] = state_total
        channel_stats = {ch.name: ch.stats for ch in self._channels}
        ingested = sum(
            inst.released for members in self._sources for inst in members
        )
        self._publish_metrics(operator_stats, ingested)
        return ShardedResult(
            outputs=list(self._outputs),
            operator_stats=operator_stats,
            instance_stats=instance_stats,
            state_stats=state_stats,
            channel_stats=channel_stats,
            records_ingested=ingested,
            summary=summary,
        )

    def _publish_metrics(
        self, operator_stats: Dict[str, OperatorStats], ingested: int
    ) -> None:
        registry = self.registry
        if registry is None:
            return
        labels = {"job": self.job_id}
        registry.counter(
            "runtime_records_ingested_total", labels=labels,
            help="Source records released by the sharded runtime.",
        ).inc(ingested)
        for name, stats in operator_stats.items():
            op_labels = {"job": self.job_id, "operator": name}
            registry.counter(
                "runtime_records_processed_total", labels=op_labels,
                help="Records processed per logical operator.",
            ).inc(stats.records_in)
        blocked = sum(ch.stats.blocked_puts for ch in self._channels)
        overflow = sum(ch.stats.overflow_puts for ch in self._channels)
        peak = max(
            (ch.stats.peak_occupancy for ch in self._channels), default=0
        )
        registry.counter(
            "runtime_channel_blocked_puts_total", labels=labels,
            help="Emissions blocked by exhausted channel credit.",
        ).inc(blocked)
        registry.counter(
            "runtime_channel_overflow_puts_total", labels=labels,
            help="Window flushes forced past channel capacity.",
        ).inc(overflow)
        registry.gauge(
            "runtime_channel_peak_occupancy_records", labels=labels,
            help="High-water channel occupancy across the run.",
        ).set(float(peak))

