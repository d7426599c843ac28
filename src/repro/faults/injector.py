"""Engine-side fault injection and shared fault observability.

Two consumers replay a :class:`~repro.faults.schedule.ChaosSchedule`,
and both fold its events through a
:class:`~repro.faults.health.ClusterHealth`, so a fault does the same
thing to a worker whoever replays it:

- the **adaptive controller** processes events itself (it must stop the
  engine at each event, replan around crashes, and account recovery
  downtime), applying capacity changes through
  :meth:`FluidSimulation.apply_worker_factors`;
- a **standalone engine** (static-placement benchmarks and tests)
  attaches an :class:`EngineFaultDriver`, which the engine polls every
  tick: due events become capacity/alive mutations with no
  replanning — the "no controller" ablation.

Both paths report each injected event through :func:`observe_fault`, so
the trace event names and metric labels are identical regardless of who
replayed the schedule — the CI chaos gate diffs these records.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.dataflow.cluster import Cluster
from repro.faults.health import ClusterHealth
from repro.faults.schedule import ChaosSchedule, FaultEvent
from repro.observability import MetricRegistry, Tracer


def observe_fault(
    event: FaultEvent,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricRegistry] = None,
) -> None:
    """Emit the canonical trace event + metric for one injected fault.

    The trace record lives in the ``sim`` clock domain at the event's
    scheduled time: fault injection is part of the simulated world, so
    identically-seeded runs must reproduce it byte-for-byte.
    """
    if tracer is not None and tracer.enabled:
        tracer.event(
            "sim",
            f"fault.{event.kind}",
            event.time_s,
            cat="fault",
            args={"worker": event.worker_id, "magnitude": event.magnitude},
        )
    if registry is not None:
        registry.counter(
            "faults_injected_total",
            labels={"kind": event.kind},
            help="Chaos fault events injected, by kind.",
        ).inc()


class EngineFaultDriver:
    """Replays chaos events onto one engine as capacity mutations.

    Args:
        schedule: A :class:`ChaosSchedule` or an iterable of events.
        cluster: The cluster the engine was built on; every event must
            name one of its workers.
        tracer: Optional tracer for the ``fault.*`` sim-domain events.
        registry: Optional registry for the injection counters.

    Due events fold into a :class:`ClusterHealth` over the engine's
    cluster (``slots`` has no engine capacity effect but is still
    traced). :meth:`poll` is called by the engine at the start of every
    tick with the absolute simulated time and returns the health's
    factor arrays only when an event fired.
    """

    def __init__(
        self,
        schedule: Union[ChaosSchedule, Iterable[FaultEvent]],
        cluster: Cluster,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        events = ChaosSchedule(schedule).events
        self._health = ClusterHealth(cluster)
        self._health.check(events)
        self._cluster = cluster
        self._pending = deque(events)
        self.tracer = tracer
        self.registry = registry
        #: Events already fired, in firing order (diagnostics/tests).
        self.applied: List[FaultEvent] = []

    def poll(
        self, time_s: float
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Fire every event due at ``time_s``; factors when any fired."""
        fired = False
        while self._pending and self._pending[0].time_s <= time_s + 1e-9:
            event = self._pending.popleft()
            self._health.apply(event)
            self.applied.append(event)
            observe_fault(event, self.tracer, self.registry)
            fired = True
        if not fired:
            return None
        return self._health.factor_arrays(self._cluster)

    @property
    def exhausted(self) -> bool:
        return not self._pending

    def next_event_time(self) -> Optional[float]:
        """Absolute time of the next pending event, ``None`` when drained.

        The fast-forward engine uses this as one event-horizon source:
        a leap must stop at (conservatively, just before) the tick that
        would fire this event.
        """
        if not self._pending:
            return None
        return self._pending[0].time_s
