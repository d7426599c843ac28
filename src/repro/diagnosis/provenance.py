"""Backpressure provenance: which bottleneck originated each stall.

A backpressured source only reports the symptom — its shortfall against
target. The cause sits somewhere downstream: a task whose resource
grant collapsed, a dead worker, or a task that simply cannot serve its
load alone. Per tick this tracker walks each backpressured source's
dataflow forward along its most-congested downstream channel (the
minimum destination grant — exactly the credit that throttled the
emitter) until it reaches a task whose own processing, not its
emission, is the binding factor, and classifies that task's binding
resource:

- ``crash`` — the task sits on a dead worker;
- ``cpu`` / ``disk`` / ``network`` — the worker-level grant for a
  resource the task uses is the minimum binding factor;
- otherwise the task is service-limited (its single thread cannot go
  faster even alone) and is classified by its dominant service term.

The job's backpressure-seconds for the tick are then distributed over
the discovered origins in proportion to the per-source shortfalls,
pinned so the shares sum to the tick's backpressure exactly (same
sequential-order contract as the contention attribution). A per-job
timeline of *dominant* origins is kept as spans; dominance can only
change on an executed tick, so fast-forward leaps (with a collector
attached, the engine leaps only at exact fixed points) extend the
accumulators by repeated addition and leave the timeline untouched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.diagnosis.attribution import _pin_row_total, exact_sum
from repro.units import Seconds

#: An origin: (task index, resource name). Worker identity is implied
#: by the engine's static placement and resolved at flush time.
OriginKey = Tuple[int, str]


class BottleneckTracker:
    """Accumulates backpressure-seconds per (job, origin) with a timeline.

    Args:
        engine: The :class:`~repro.simulator.engine.FluidSimulation`
            being observed. Only static topology and live capacity
            references are read — never mutated.
    """

    def __init__(self, engine) -> None:
        n = len(engine.cpu)
        self._n = n
        self._worker = engine.worker
        self._c_dst = engine.c_dst
        self._uses_cpu, self._uses_io, self._uses_net = engine._uses
        self._cpu = engine.cpu
        self._io = engine.io
        self._cross_bpr = engine.cross_bytes_per_record
        self._disk = engine.disk
        self._nic = engine.nic
        self._out_channels: List[np.ndarray] = [
            np.flatnonzero(engine.c_src == t) for t in range(n)
        ]
        self._job_source_idx = dict(engine._job_source_idx)

        self.bp_s: Dict[Tuple[str, int, str], Seconds] = {}
        #: Closed dominant-origin spans: (job, origin, start_s, end_s).
        self.spans: List[Tuple[str, OriginKey, Seconds, Seconds]] = []
        self.ticks_observed = 0
        self._current: Dict[str, Optional[OriginKey]] = {
            job: None for job in self._job_source_idx
        }
        self._since_s: Dict[str, Seconds] = {}
        self._inc_items: List[Tuple[Tuple[str, int, str], Seconds]] = []
        self._dominant: Dict[str, Optional[OriginKey]] = {}

    # -- per-tick observation ------------------------------------------
    def observe(
        self,
        target: np.ndarray,
        proc_final: np.ndarray,
        throttle: np.ndarray,
        grants: np.ndarray,
        cpu_scale: np.ndarray,
        io_scale: np.ndarray,
        net_scale: np.ndarray,
        worker_alive: np.ndarray,
        dt: float,
        tick_start_s: Seconds,
    ) -> None:
        """Attribute one executed tick's backpressure to origins.

        Computes the tick's increment and dominant origins, applies the
        increment and updates the timeline; :meth:`extend` repeats the
        increment.
        """
        self._inc_items = []
        self._dominant = {}
        span_ticks = 1  # each increment covers exactly one executed tick
        for job in sorted(self._job_source_idx):
            idx = self._job_source_idx[job]
            job_target = float(np.sum(target[idx]))
            job_throughput = float(np.sum(proc_final[idx])) / dt
            bp_fraction = (
                max(0.0, 1.0 - job_throughput / job_target)
                if job_target > 0
                else 0.0
            )
            bp_tick_s: Seconds = bp_fraction * span_ticks * dt
            if bp_tick_s <= 0.0:
                self._dominant[job] = None
                continue
            shortfall = np.maximum(0.0, target[idx] * dt - proc_final[idx])
            weights: Dict[OriginKey, float] = {}
            for pos, src in enumerate(idx):
                if shortfall[pos] <= 0.0:
                    continue
                origin = self._walk(
                    int(src),
                    throttle,
                    grants,
                    cpu_scale,
                    io_scale,
                    net_scale,
                    worker_alive,
                )
                weights[origin] = weights.get(origin, 0.0) + float(
                    shortfall[pos]
                )
            if not weights:
                self._dominant[job] = None
                continue
            keys = sorted(weights)
            weight_arr = np.array([weights[k] for k in keys])
            shares = bp_tick_s * weight_arr / float(np.sum(weight_arr))
            _pin_row_total(shares, bp_tick_s, int(np.argmax(weight_arr)))
            for key, share_s in zip(keys, shares):
                self._inc_items.append(((job, key[0], key[1]), float(share_s)))
            self._dominant[job] = keys[int(np.argmax(weight_arr))]
        self._apply_increment()
        self._update_timeline(tick_start_s)

    def extend(self, ticks: int) -> None:
        """Repeat the last observed tick's increment ``ticks`` times.

        Called for a tick whose input signature matches the last
        observed one and for fast-forward leaps (with a collector
        attached, the engine leaps only at exact fixed points). Either
        way the per-tick inputs — and therefore the dominant origin —
        are those of the last observed tick, so the timeline needs no
        update.
        """
        for _ in range(ticks):
            self._apply_increment()

    def finish(self, end_s: Seconds) -> None:
        """Close all open dominant-origin spans at ``end_s``."""
        for job, origin in sorted(self._current.items()):
            if origin is not None:
                self.spans.append((job, origin, self._since_s[job], end_s))
            self._current[job] = None

    def _apply_increment(self) -> None:
        for key, share_s in self._inc_items:
            self.bp_s[key] = self.bp_s.get(key, 0.0) + share_s
        self.ticks_observed += 1

    def _update_timeline(self, tick_start_s: Seconds) -> None:
        for job, dominant in self._dominant.items():
            current = self._current.get(job)
            if dominant == current:
                continue
            if current is not None:
                self.spans.append(
                    (job, current, self._since_s[job], tick_start_s)
                )
            self._current[job] = dominant
            self._since_s[job] = tick_start_s

    def _walk(
        self,
        src: int,
        throttle: np.ndarray,
        grants: np.ndarray,
        cpu_scale: np.ndarray,
        io_scale: np.ndarray,
        net_scale: np.ndarray,
        worker_alive: np.ndarray,
    ) -> OriginKey:
        current = src
        for _ in range(self._n + 1):
            w = self._worker[current]
            if not worker_alive[w]:
                return (current, "crash")
            resource: Optional[str] = None
            res_scale = 1.0
            if self._uses_cpu[current] and cpu_scale[w] < res_scale:
                res_scale = float(cpu_scale[w])
                resource = "cpu"
            if self._uses_io[current] and io_scale[w] < res_scale:
                res_scale = float(io_scale[w])
                resource = "disk"
            if self._uses_net[current] and net_scale[w] < res_scale:
                res_scale = float(net_scale[w])
                resource = "network"
            out = self._out_channels[current]
            if throttle[current] < res_scale and len(out):
                # Emission-bound: follow the most congested channel —
                # the minimum destination grant is the credit that
                # produced the throttle.
                dsts = self._c_dst[out]
                nxt = int(dsts[int(np.argmin(grants[dsts]))])
                if nxt == current:
                    break
                current = nxt
                continue
            if resource is not None:
                return (current, resource)
            break
        return (current, self._service_resource(current))

    def _service_resource(self, task: int) -> str:
        """Dominant term of the task's uncontended per-record service."""
        w = self._worker[task]
        terms = (
            ("cpu", float(self._cpu[task])),
            ("disk", float(self._io[task]) / float(self._disk.capacity[w])),
            (
                "network",
                float(self._cross_bpr[task]) / float(self._nic.capacity[w]),
            ),
        )
        best = max(terms, key=lambda item: item[1])
        return best[0] if best[1] > 0.0 else "cpu"


__all__ = ["BottleneckTracker", "OriginKey", "exact_sum"]
