"""Control-plane chaos: degraded telemetry and failing reconfigurations.

The data-plane chaos layer (:mod:`repro.faults.schedule`) breaks the
*world* the job runs in; this module breaks what the **controller
observes and commands** while the world stays healthy. The distinction
matters because the adaptive loop is only as good as its inputs: DS2
consumes windowed rate metrics, CAPS consumes profiled unit costs, and
reconfigurations go through a deploy step that real clusters fail or
stall all the time. A :class:`ControlChaosSchedule` perturbs exactly
those three surfaces — metrics, profiles, deployments — and never
touches engine truth, so a run's *physical* outcome degrades only
through the controller's own bad (or well-guarded) reactions.

Like the data-plane grammar, schedules are explicit ordered event lists
with no hidden randomness: identical schedules against identical seeds
must reproduce byte-identical sim-domain traces, and the same
control-plane records with fast-forward on (the default) or off.

The tokens are the data plane's (:class:`~repro.faults.schedule.Schedule`)
with an ``op<name>`` target or none, wired through ``--control-chaos``::

    metric_drop:op<name>@<t>[for<d>]          # observation lost
    metric_corrupt:op<name>@<t>[for<d>][x<m>] # NaN (no x) or x<m>-scaled
    profile_stale:@<t>[for<d>]                # telemetry frozen at last round
    deploy_fail:@<t>[xN]                      # next N deploy attempts fail
    deploy_delay:@<t>x<lag>                   # next deploy pays <lag> s extra

Window semantics: ``for<d>`` makes the fault bite on every controller
observation in ``[t, t+d]``; without it the fault is a one-shot that
bites on the first observation (or deploy attempt) at or after ``t``
and is then consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults.schedule import Schedule, check_numbers, format_token
from repro.observability import MetricRegistry, Tracer
from repro.scaling.rates import OperatorRates
from repro.units import Seconds

#: Recognised control-fault kinds, in canonical order (deterministic
#: tie-breaking of same-time events).
CONTROL_FAULT_KINDS = (
    "metric_drop",
    "metric_corrupt",
    "profile_stale",
    "deploy_fail",
    "deploy_delay",
)

#: Kinds that perturb one operator's observed rate metrics.
METRIC_KINDS = ("metric_drop", "metric_corrupt")

#: Kinds that perturb the deploy step of a reconfiguration.
DEPLOY_KINDS = ("deploy_fail", "deploy_delay")


@dataclass(frozen=True)
class ControlFaultEvent:
    """One timed control-plane fault.

    Attributes:
        time_s: Absolute simulated time from which the fault is armed.
        kind: One of :data:`CONTROL_FAULT_KINDS`.
        operator: Target operator name for :data:`METRIC_KINDS`;
            ``None`` for the untargeted kinds.
        duration_s: Window length for metric/staleness kinds; ``0``
            means one-shot (first observation at/after ``time_s``).
        magnitude: Kind-specific payload — the true-rate scale factor
            for ``metric_corrupt`` (``None`` injects NaN), the failure
            count for ``deploy_fail`` (default 1), the extra downtime
            seconds for ``deploy_delay`` (required).
    """

    time_s: Seconds
    kind: str
    operator: Optional[str] = None
    duration_s: Seconds = 0.0
    magnitude: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in CONTROL_FAULT_KINDS:
            raise ValueError(
                f"unknown control-fault kind {self.kind!r}; expected one "
                f"of {CONTROL_FAULT_KINDS}"
            )
        check_numbers(self.time_s, self.duration_s, self.magnitude)
        if self.kind in METRIC_KINDS:
            if not self.operator:
                raise ValueError(f"{self.kind} requires an op<name> target")
        elif self.operator is not None:
            raise ValueError(f"{self.kind} does not take an operator target")
        if self.kind in DEPLOY_KINDS and self.duration_s != 0.0:
            raise ValueError(f"{self.kind} does not take a for<duration> window")
        if self.magnitude is not None and self.magnitude <= 0:
            raise ValueError(
                f"{self.kind} magnitude must be positive; got {self.magnitude}"
            )
        if self.kind == "deploy_fail" and self.magnitude is not None:
            if self.magnitude != int(self.magnitude):
                raise ValueError(
                    f"deploy_fail count must be a positive integer; "
                    f"got {self.magnitude}"
                )
        if self.kind == "deploy_delay" and self.magnitude is None:
            raise ValueError("deploy_delay requires an x<lag> in seconds")
        if self.kind in ("metric_drop", "profile_stale") and self.magnitude is not None:
            raise ValueError(f"{self.kind} does not take an x<magnitude>")

    @classmethod
    def from_token(
        cls, kind: str, target: str, time_s: float, duration_s: Optional[float],
        magnitude: Optional[float],
    ) -> "ControlFaultEvent":
        """Build from a token whose target is ``op<name>`` or empty."""
        operator: Optional[str] = None
        if target:
            if not target.startswith("op") or len(target) <= 2:
                raise ValueError(f"bad target {target!r}; expected op<name>")
            operator = target[2:]
        return cls(time_s, kind, operator, duration_s or 0.0, magnitude)

    @property
    def fail_count(self) -> int:
        """Deploy attempts this ``deploy_fail`` event makes fail."""
        if self.kind != "deploy_fail":
            raise ValueError("fail_count is only defined for deploy_fail")
        return 1 if self.magnitude is None else int(self.magnitude)

    def sort_key(self) -> Tuple[float, int, str]:
        return (self.time_s, CONTROL_FAULT_KINDS.index(self.kind), self.operator or "")

    def spec(self) -> str:
        """The token form :meth:`ControlChaosSchedule.parse` round-trips."""
        target = f"op{self.operator}" if self.operator else ""
        return format_token(
            self.kind, target, self.time_s, self.duration_s, self.magnitude
        )


class ControlChaosSchedule(Schedule):
    """An immutable, time-sorted sequence of control-plane faults."""

    event_type = ControlFaultEvent
    flag = "control-chaos"


def observe_control_fault(
    event: ControlFaultEvent,
    time_s: Seconds,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricRegistry] = None,
) -> None:
    """Emit the canonical trace event + metric for one control fault.

    The trace record lands at the simulated time the fault first
    *bites* (its first observation or deploy attempt), which is a pure
    function of the schedule and the controller's policy ticks — so
    identically-parameterised runs reproduce it byte-for-byte, with or
    without fast-forward.
    """
    if tracer is not None and tracer.enabled:
        args: Dict[str, object] = {"armed_at_s": event.time_s}
        if event.operator is not None:
            args["operator"] = event.operator
        if event.duration_s > 0:
            args["duration_s"] = event.duration_s
        if event.magnitude is not None:
            args["magnitude"] = event.magnitude
        tracer.event(
            "sim",
            f"control_fault.{event.kind}",
            time_s,
            cat="control_fault",
            args=args,
        )
    if registry is not None:
        registry.counter(
            "control_faults_injected_total",
            labels={"kind": event.kind},
            help="Control-plane chaos events that bit, by kind.",
        ).inc()


class _ArmedEvent:
    """One scheduled event plus its consumption state."""

    __slots__ = ("event", "consumed", "observed", "remaining")

    def __init__(self, event: ControlFaultEvent) -> None:
        self.event = event
        self.consumed = False  # one-shots: already bitten
        self.observed = False  # trace/counter emitted
        self.remaining = (
            event.fail_count if event.kind == "deploy_fail" else 0
        )


class ControlChaosView:
    """Replays a :class:`ControlChaosSchedule` onto one adaptive run.

    The controller consults the view at two points of every control
    round: :meth:`perturb_rates` on the telemetry it is about to hand
    to DS2, and :meth:`deploy_attempt` before starting a new engine.
    The view mutates only what the controller *sees*; engine truth is
    never touched, so any physical degradation that follows is the
    controller's own doing.
    """

    def __init__(
        self,
        schedule: ControlChaosSchedule,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.schedule = schedule
        self.tracer = tracer
        self.registry = registry
        self._metric = [
            _ArmedEvent(e) for e in schedule if e.kind in METRIC_KINDS
        ]
        self._stale = [
            _ArmedEvent(e) for e in schedule if e.kind == "profile_stale"
        ]
        self._fail = [
            _ArmedEvent(e) for e in schedule if e.kind == "deploy_fail"
        ]
        self._delay = [
            _ArmedEvent(e) for e in schedule if e.kind == "deploy_delay"
        ]
        self._last_rates: Optional[Dict[Tuple[str, str], OperatorRates]] = None
        #: ``(bite_time_s, event)`` pairs in bite order (diagnostics).
        self.applied: List[Tuple[float, ControlFaultEvent]] = []

    # ------------------------------------------------------------------
    def _bite(self, armed: _ArmedEvent, time_s: float) -> None:
        self.applied.append((time_s, armed.event))
        if not armed.observed:
            armed.observed = True
            observe_control_fault(armed.event, time_s, self.tracer, self.registry)

    def _active(self, armed: _ArmedEvent, time_s: float) -> bool:
        """Whether a metric/staleness event bites at this observation."""
        event = armed.event
        if event.duration_s > 0:
            return event.time_s - 1e-9 <= time_s <= event.time_s + event.duration_s + 1e-9
        if armed.consumed or time_s < event.time_s - 1e-9:
            return False
        armed.consumed = True
        return True

    # ------------------------------------------------------------------
    def stale_at(self, time_s: Seconds) -> bool:
        """Whether a ``profile_stale`` window covers this observation."""
        stale = False
        for armed in self._stale:
            if self._active(armed, time_s):
                self._bite(armed, time_s)
                stale = True
        return stale

    def perturb_rates(
        self,
        rates: Dict[Tuple[str, str], OperatorRates],
        time_s: Seconds,
        job_id: str,
    ) -> Dict[Tuple[str, str], OperatorRates]:
        """What the controller observes instead of the true telemetry."""
        if self.stale_at(time_s):
            # Frozen telemetry: the last delivered observation repeats.
            if self._last_rates is not None:
                return dict(self._last_rates)
            return dict(rates)
        perturbed = dict(rates)
        for armed in self._metric:
            if not self._active(armed, time_s):
                continue
            event = armed.event
            key = (job_id, event.operator)
            self._bite(armed, time_s)
            if key not in perturbed:
                continue
            if event.kind == "metric_drop":
                del perturbed[key]
            else:  # metric_corrupt
                sample = perturbed[key]
                if event.magnitude is None:
                    perturbed[key] = OperatorRates(
                        true_rate_per_task=float("nan"),
                        observed_rate=float("nan"),
                        observed_output_rate=float("nan"),
                        busy_fraction=float("nan"),
                    )
                else:
                    perturbed[key] = OperatorRates(
                        true_rate_per_task=sample.true_rate_per_task
                        * event.magnitude,
                        observed_rate=sample.observed_rate,
                        observed_output_rate=sample.observed_output_rate,
                        busy_fraction=sample.busy_fraction,
                    )
        self._last_rates = dict(perturbed)
        return perturbed

    def deploy_attempt(self, time_s: Seconds) -> Tuple[bool, Seconds]:
        """Outcome of one deploy attempt: ``(succeeded, extra_delay_s)``.

        An armed ``deploy_fail`` budget makes the attempt fail (one
        unit consumed per attempt, earliest-armed event first). A
        successful attempt may still consume a one-shot
        ``deploy_delay`` and pay its lag as extra restart downtime.
        """
        for armed in self._fail:
            if armed.remaining > 0 and time_s >= armed.event.time_s - 1e-9:
                armed.remaining -= 1
                self._bite(armed, time_s)
                return False, 0.0
        for armed in self._delay:
            if not armed.consumed and time_s >= armed.event.time_s - 1e-9:
                armed.consumed = True
                self._bite(armed, time_s)
                return True, float(armed.event.magnitude)
        return True, 0.0
