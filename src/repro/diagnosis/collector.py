"""Engine-facing diagnosis facade: attribution + provenance, leap-safe.

A :class:`DiagnosisCollector` is attached to a running
:class:`~repro.simulator.engine.FluidSimulation` via
``engine.enable_diagnosis()``. The engine calls :meth:`observe_tick`
once per executed tick (with the tick's
:class:`~repro.simulator.contention.Grants` and backpressure working
state) and :meth:`extend` for every fast-forward leap; the
owner — controller or CLI — calls :meth:`flush` exactly once when the
engine retires, which emits the aggregated ``contention.blame``,
``diagnosis.provenance`` and ``diagnosis.bottleneck`` records into the
tracer's sim domain.

Aggregated flush-time emission (rather than per-tick events) is what
keeps the diagnosis records byte-identical with ``fast_forward`` on and
off: the accumulators advance by repeated addition during leaps, and
nothing is emitted from inside the tick loop.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.diagnosis.attribution import RESOURCES, ContentionAttributor
from repro.diagnosis.provenance import BottleneckTracker
from repro.simulator.contention import Grants
from repro.units import Seconds

#: Blame entities reported beyond co-located tasks: the concurrency
#: penalty's capacity loss and external (checkpoint upload) demand.
OVERHEAD_ENTITY = "overhead"
EXTERNAL_ENTITY = "external"

#: Blamed entities listed per victim in ``contention.blame`` events.
_TOP_BLAMED = 5


class DiagnosisCollector:
    """Per-engine root-cause accumulator (attribution + provenance)."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.attribution = ContentionAttributor(len(engine.cpu), engine.worker)
        self.provenance = BottleneckTracker(engine)
        self._task_uids = [t.uid for t in engine.physical.tasks]
        self._worker_ids = [w.worker_id for w in engine.cluster.workers]
        self._flushed = False
        self._sig: Optional[bytes] = None
        self._sig_dt = 0.0

    # -- engine hooks --------------------------------------------------
    def observe_tick(
        self,
        grants: Grants,
        target: np.ndarray,
        throttles,
        proc_final: np.ndarray,
        dt: float,
        tick_start_s: Seconds,
    ) -> None:
        """Record one executed tick (called by ``FluidSimulation.step``)."""
        engine = self._engine
        # One bytes signature over every mutable tick input the
        # components read — including the capacity arrays the fault
        # injector mutates. The derived quantities (net demand, and the
        # effective disk capacity the grants carry) are pure functions
        # of these plus static topology, so an unchanged signature means
        # both cached per-tick increments apply verbatim; the
        # dominant-origin timeline is already in sync from the previous
        # identical tick. Shapes are fixed per engine, so the joined
        # tobytes encoding is injective and compares in C.
        io_extra = grants.io_extra
        sig = b"".join(
            (
                grants.want.tobytes(),
                target.tobytes(),
                grants.cpu_demand.tobytes(),
                proc_final.tobytes(),
                grants.io_demand.tobytes(),
                throttles.throttle.tobytes(),
                throttles.grants.tobytes(),
                grants.cpu_scale.tobytes(),
                grants.cpu_effective.tobytes(),
                grants.io_scale.tobytes(),
                grants.net_scale.tobytes(),
                engine.cpu_capacity.tobytes(),
                engine.disk.capacity.tobytes(),
                engine.nic.capacity.tobytes(),
                engine.worker_alive.tobytes(),
                io_extra.tobytes() if io_extra is not None else b"",
            )
        )
        if sig == self._sig and dt == self._sig_dt:
            self.attribution.extend(1)
            self.provenance.extend(1)
            return
        self._sig = sig
        self._sig_dt = dt
        net_demand = grants.want * engine.cross_bytes_per_record / dt
        self.attribution.observe(
            dt,
            grants.cpu_demand,
            grants.cpu_scale,
            engine.cpu_capacity,
            grants.cpu_effective,
            grants.io_demand,
            grants.io_scale,
            engine.disk.capacity,
            grants.disk_effective,
            io_extra,
            net_demand,
            grants.net_scale,
            engine.nic.capacity,
        )
        self.provenance.observe(
            target,
            proc_final,
            throttles.throttle,
            throttles.grants,
            grants.cpu_scale,
            grants.io_scale,
            grants.net_scale,
            engine.worker_alive,
            dt,
            tick_start_s,
        )

    def extend(self, ticks: int) -> None:
        """Advance the accumulators over a fast-forward leap.

        The engine leaps only at fixed points while a collector is
        attached, so one cached per-tick increment covers every
        skipped tick.
        """
        self.attribution.extend(ticks)
        self.provenance.extend(ticks)

    # -- retirement ----------------------------------------------------
    def flush(self, tracer) -> None:
        """Emit the aggregated diagnosis into the tracer's sim domain.

        Called once when the engine retires (replan, rescale, or run
        end). All values are derived purely from simulated state and
        stamped at the engine's current absolute sim time, preserving
        the trace byte-identity contract.
        """
        if self._flushed:
            return
        self._flushed = True
        engine = self._engine
        end_local_s: Seconds = engine.time_s
        self.provenance.finish(end_local_s)
        if tracer is None or not tracer.enabled:
            return
        offset_s = engine.trace_time_offset_s
        now_s = offset_s + end_local_s

        for job, origin, start_s, stop_s in self.provenance.spans:
            task, resource = origin
            tracer.span(
                "sim",
                "diagnosis.bottleneck",
                offset_s + start_s,
                offset_s + stop_s,
                cat="diagnosis",
                args={
                    "job": job,
                    "task": self._task_uids[task],
                    "worker": self._worker_ids[int(engine.worker[task])],
                    "resource": resource,
                },
            )

        job_totals: Dict[str, Seconds] = {}
        for (job, _task, _resource), seconds in self.provenance.bp_s.items():
            job_totals[job] = job_totals.get(job, 0.0) + seconds
        for key in sorted(self.provenance.bp_s):
            job, task, resource = key
            seconds = self.provenance.bp_s[key]
            total = job_totals[job]
            tracer.event(
                "sim",
                "diagnosis.provenance",
                now_s,
                cat="diagnosis",
                args={
                    "job": job,
                    "task": self._task_uids[task],
                    "worker": self._worker_ids[int(engine.worker[task])],
                    "resource": resource,
                    "bp_seconds": seconds,
                    "share": seconds / total if total > 0 else 0.0,
                },
            )

        for resource in RESOURCES:
            deficit = self.attribution.deficit_s[resource]
            blame = self.attribution.blame_s[resource]
            for task in np.flatnonzero(deficit > 0.0):
                task = int(task)
                tracer.event(
                    "sim",
                    "contention.blame",
                    now_s,
                    cat="diagnosis",
                    args={
                        "task": self._task_uids[task],
                        "worker": self._worker_ids[int(engine.worker[task])],
                        "resource": resource,
                        "deficit_s": float(deficit[task]),
                        "blamed": self._top_blamed(blame[task]),
                    },
                )

    def _top_blamed(self, row: np.ndarray) -> List[List[Any]]:
        """Largest blame entries of one victim row, as [entity, seconds]."""
        n = len(self._task_uids)
        entries: List[Tuple[str, float]] = [
            (self._task_uids[j], float(row[j]))
            for j in range(n)
            if row[j] > 0.0
        ]
        if row[n] > 0.0:
            entries.append((OVERHEAD_ENTITY, float(row[n])))
        if row[n + 1] > 0.0:
            entries.append((EXTERNAL_ENTITY, float(row[n + 1])))
        entries.sort(key=lambda item: (-item[1], item[0]))
        return [[entity, seconds] for entity, seconds in entries[:_TOP_BLAMED]]
