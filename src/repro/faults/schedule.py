"""Deterministic chaos schedules: one grammar for both fault planes.

A chaos schedule is an explicit, ordered list of timed fault events —
there is no hidden randomness. Determinism is the whole point: two runs
driven by the same schedule (and the same simulator seed) must be
byte-identical in the sim-domain trace, which is what the CI chaos
gates assert. Anything stochastic (fuzzed fault times, random victim
selection) must be resolved *outside* the schedule, producing a
concrete event list that can be replayed.

Two planes share the grammar. A :class:`ChaosSchedule` (``--chaos``)
holds :class:`FaultEvent` records that break the *world*:

- **structural** (``crash``, ``recover``, ``slots``): they change which
  workers/slots exist, so the controller must replan around them;
- **degradation** (``disk``, ``net``, ``cpu``): a straggler keeps its
  slots but loses a fraction of one capacity — the magnitude is the
  *remaining* fraction (``x0.5`` halves the bandwidth).

A :class:`~repro.faults.telemetry.ControlChaosSchedule`
(``--control-chaos``) holds faults that break what the controller
observes and commands.

A spec is a comma-joined list of
``kind:[target]@<time>[for<duration>][x<magnitude>]`` tokens. Each
event type reads its own target and rejects the optional parts its
kinds do not take (DESIGN.md section 8 has the per-kind table), e.g.::

    crash:w3@120,recover:w3@300,disk:w1@200x0.5,slots:w2@100x2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, Iterator, Optional, Tuple

#: Recognised fault kinds, in canonical order (used for deterministic
#: tie-breaking of same-time events).
FAULT_KINDS = ("crash", "recover", "slots", "disk", "net", "cpu")

#: Kinds that change the set of usable workers/slots; the controller
#: handles these (replan, blacklisting), not the engine capacities.
STRUCTURAL_KINDS = ("crash", "recover", "slots")

#: Kinds that scale one capacity dimension of a live worker.
DEGRADE_KINDS = ("disk", "net", "cpu")

#: Default remaining-capacity fraction when a degrade token omits ``x``.
DEFAULT_DEGRADE_MAGNITUDE = 0.5


def check_numbers(
    time_s: float, duration_s: float = 0.0, magnitude: Optional[float] = None
) -> None:
    """The checks both planes share: finite, non-negative time and window,
    and a finite magnitude. Each event type adds its per-kind checks."""
    if not (math.isfinite(time_s) and time_s >= 0):
        raise ValueError(f"time must be finite and non-negative; got {time_s}")
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ValueError(f"duration must be finite and non-negative; got {duration_s}")
    if magnitude is not None and not math.isfinite(magnitude):
        raise ValueError(f"magnitude must be finite; got {magnitude}")


def format_number(value: float) -> str:
    """``:g`` text when it parses back exactly, else the shortest exact text."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def format_token(
    kind: str, target: str, time_s: float, duration_s: float = 0.0,
    magnitude: Optional[float] = None,
) -> str:
    """One token of the grammar; :meth:`Schedule.parse` reads it back."""
    token = f"{kind}:{target}@{format_number(time_s)}"
    if duration_s > 0:
        token += f"for{format_number(duration_s)}"
    if magnitude is not None:
        token += f"x{format_number(magnitude)}"
    return token


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


def _split(token: str) -> Tuple[str, str, float, Optional[float], Optional[float]]:
    """``(kind, target, time, duration, magnitude)``; absent parts are None."""
    kind, colon, rest = token.partition(":")
    target, at, timing = rest.partition("@")
    if not (colon and at):
        raise ValueError("expected kind:[target]@<time>[for<duration>][x<magnitude>]")
    timing, x, magnitude = timing.partition("x")
    timing, window, duration = timing.partition("for")
    return (
        kind,
        target,
        _number(timing, "time"),
        _number(duration, "duration") if window else None,
        _number(magnitude, "magnitude") if x else None,
    )


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault (or recovery) aimed at one worker.

    Attributes:
        time_s: Absolute simulated time the event fires.
        kind: One of :data:`FAULT_KINDS`.
        worker_id: The victim worker's id.
        magnitude: Remaining capacity fraction in (0, 1] for degrade
            kinds; the number of slots lost (>= 1) for ``slots``;
            ignored (1.0) for ``crash``/``recover``.
    """

    time_s: float
    kind: str
    worker_id: int
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        check_numbers(self.time_s, magnitude=self.magnitude)
        if self.worker_id < 0:
            raise ValueError("worker_id must be non-negative")
        if self.kind in DEGRADE_KINDS and not 0.0 < self.magnitude <= 1.0:
            raise ValueError(
                f"{self.kind} magnitude is the remaining capacity fraction "
                f"and must be in (0, 1]; got {self.magnitude}"
            )
        if self.kind == "slots":
            if self.magnitude < 1 or self.magnitude != int(self.magnitude):
                raise ValueError(
                    f"slots magnitude is the number of slots lost and must "
                    f"be a positive integer; got {self.magnitude}"
                )

    @classmethod
    def from_token(
        cls, kind: str, target: str, time_s: float, duration_s: Optional[float],
        magnitude: Optional[float],
    ) -> "FaultEvent":
        """Build from a ``w<id>`` token: no kind takes ``for<duration>``,
        ``crash``/``recover`` take no ``x<magnitude>``, degrades default to 0.5."""
        if not target.startswith("w") or not target[1:].isdigit():
            raise ValueError(f"bad worker {target!r}; expected w<id>")
        if duration_s is not None:
            raise ValueError(f"{kind} takes no for<duration>")
        if magnitude is None:
            magnitude = DEFAULT_DEGRADE_MAGNITUDE if kind in DEGRADE_KINDS else 1.0
        elif kind in ("crash", "recover"):
            raise ValueError(f"{kind} takes no x<magnitude>")
        return cls(time_s, kind, int(target[1:]), magnitude)

    @property
    def structural(self) -> bool:
        return self.kind in STRUCTURAL_KINDS

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.time_s, self.worker_id, FAULT_KINDS.index(self.kind))

    def spec(self) -> str:
        """The token form that :meth:`ChaosSchedule.parse` round-trips."""
        magnitude = None if self.kind in ("crash", "recover") else self.magnitude
        return format_token(
            self.kind, f"w{self.worker_id}", self.time_s, magnitude=magnitude
        )


class Schedule:
    """An immutable, time-sorted sequence of one plane's fault events.

    A subclass names its event type and its CLI flag. The event type
    supplies ``from_token`` (its target and per-kind checks),
    ``sort_key`` (ordering, and the identity duplicates share) and
    ``spec`` (its token).
    """

    event_type: ClassVar[type]
    #: The CLI flag (without dashes) the spec arrives through; errors cite it.
    flag: ClassVar[str]

    def __init__(self, events: Iterable = ()) -> None:
        self._events: Tuple = tuple(sorted(events, key=self.event_type.sort_key))

    @classmethod
    def parse(cls, spec: str) -> "Schedule":
        """Parse a comma-joined spec string.

        Malformed tokens — unknown kinds, bad targets, unparseable or
        non-finite numbers, parts a kind does not take — and duplicates
        of an earlier token's kind, target and time raise a
        :class:`ValueError` naming the offending token.
        """
        events = []
        seen: Dict[tuple, str] = {}
        for raw in spec.split(","):
            token = raw.strip()
            if not token:
                continue
            try:
                event = cls.event_type.from_token(*_split(token))
            except ValueError as exc:
                raise ValueError(f"bad {cls.flag} token {token!r}: {exc}") from None
            key = event.sort_key()
            if key in seen:
                raise ValueError(
                    f"duplicate {cls.flag} token {token!r} (same kind, "
                    f"target and time as {seen[key]!r})"
                )
            seen[key] = token
            events.append(event)
        return cls(events)

    @property
    def events(self) -> Tuple:
        return self._events

    def spec(self) -> str:
        """Canonical spec string (``parse(s.spec())`` equals ``s``)."""
        return ",".join(event.spec() for event in self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __iter__(self) -> Iterator:
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec()!r})"


class ChaosSchedule(Schedule):
    """An immutable, time-sorted sequence of worker faults."""

    event_type = FaultEvent
    flag = "chaos"

    def worker_ids(self) -> Tuple[int, ...]:
        """Sorted, de-duplicated victim worker ids."""
        return tuple(sorted({event.worker_id for event in self._events}))
