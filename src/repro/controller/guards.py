"""Control-plane defense layers: metric guards, deploy retry, watchdog.

The adaptive loop trusts two inputs it does not control — the rate
telemetry DS2 scales from and the deploy step that turns a plan into a
running engine. Either can lie (see :mod:`repro.faults.telemetry`), and
an unguarded controller propagates the lie straight into parallelism
and placement. This module holds the hardening policy threaded through
:class:`~repro.controller.capsys.CAPSysController`:

1. **Metric validation + quarantine** — per-operator samples are
   rejected when non-finite, negative, physically impossible (true rate
   far above the uncontended profile oracle), or a statistical outlier
   against that operator's own accepted history (MAD modified z-score).
   Rejected samples are replaced by the last known good observation so
   DS2 always sees a complete, plausible rate map.
2. **Staleness budget** — an operator whose samples keep getting
   rejected (or dropped) is eventually *quarantined*: the guard stops
   trusting the whole telemetry snapshot and holds scaling decisions
   until fresh accepted data arrives.
3. **Watchdog / safe mode** — K consecutive failed control rounds
   (guard rejections or deploy failures) force *safe mode*: scaling
   decisions are held, placement degrades to the deterministic
   ``flink_evenly`` baseline, and a ``controller.safe_mode`` span is
   emitted until a clean round clears the state.

Everything here is deterministic — pure functions of the observed
sample sequence — so guarded runs stay byte-identical in the sim-domain
trace, and their control-plane records are the same with fast-forward
on (the default) or off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from collections import deque

from repro.observability import MetricRegistry, Tracer
from repro.scaling.rates import OperatorRates
from repro.units import Seconds

OperatorKey = Tuple[str, str]

#: Outcomes a control round can end in, canonical order.
ROUND_OUTCOMES = ("deploy", "suppressed", "safe_mode")

#: Modified z-score scale factor (0.6745 ≈ Φ⁻¹(0.75); makes the MAD
#: consistent with the standard deviation under normality).
_MAD_SCALE = 0.6745


@dataclass(frozen=True)
class GuardConfig:
    """Control-plane guard parameters.

    The defaults are deliberately loose: contention legitimately moves
    observed rates by small integer factors, so the guards only reject
    samples that are *physically* implausible or wildly outside the
    operator's own accepted history. Guards arm only when a control
    chaos schedule is in play (see ``run_adaptive``): a clean run has
    no guard state to report, so its outputs carry no guard rounds.
    """

    enabled: bool = True
    #: Reject a sample whose true rate exceeds this multiple of the
    #: operator's uncontended profiled rate (contended rates are lower,
    #: never ×8 higher).
    max_rate_factor: float = 8.0
    #: Reject a sample whose MAD modified z-score against the accepted
    #: history exceeds this *and* whose ratio to the median is outside
    #: ``[1/outlier_ratio, outlier_ratio]``.
    outlier_zscore: float = 8.0
    outlier_ratio: float = 10.0
    #: Accepted-history window per operator for the outlier test.
    history_window: int = 8
    #: Consecutive rejected/missing rounds per operator before the
    #: telemetry snapshot as a whole is quarantined.
    staleness_budget_rounds: int = 3
    #: Deploy failure handling: bounded retries with exponential
    #: backoff, then rollback to the last known good configuration.
    deploy_retry_limit: int = 2
    deploy_backoff_s: Seconds = 2.0
    deploy_backoff_factor: float = 2.0
    #: Consecutive failed control rounds before the watchdog forces
    #: safe mode.
    watchdog_rounds: int = 3

    def __post_init__(self) -> None:
        for name in (
            "max_rate_factor",
            "outlier_zscore",
            "outlier_ratio",
            "deploy_backoff_s",
            "deploy_backoff_factor",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and positive; got {value}")
        if self.outlier_ratio <= 1.0:
            raise ValueError("outlier_ratio must be > 1")
        if self.deploy_backoff_factor < 1.0:
            raise ValueError("deploy_backoff_factor must be >= 1")
        if self.history_window < 2:
            raise ValueError("history_window must be >= 2")
        if self.staleness_budget_rounds < 1:
            raise ValueError("staleness_budget_rounds must be >= 1")
        if self.deploy_retry_limit < 0:
            raise ValueError("deploy_retry_limit must be >= 0")
        if self.watchdog_rounds < 1:
            raise ValueError("watchdog_rounds must be >= 1")


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass(frozen=True)
class RateVerdict:
    """Outcome of validating one operator's rate sample."""

    accepted: bool
    reason: str = ""  # rejection reason when not accepted


class ControlPlaneGuard:
    """Stateful guard pipeline for one adaptive run.

    Args:
        config: Guard thresholds and budgets.
        reference_rates: The uncontended per-operator rates implied by
            the profiled unit costs (the bootstrap oracle) — both the
            physical-plausibility ceiling and the substitute of last
            resort when no good observation exists yet.
        tracer: Emits ``controller.guard.reject`` events and the
            ``controller.safe_mode`` span on the sim clock.
        registry: Hosts ``controller_guard_rejections_total{reason}``,
            ``controller_rounds_total{outcome}``, and
            ``controller_safe_mode_total``.
    """

    def __init__(
        self,
        config: GuardConfig,
        reference_rates: Mapping[OperatorKey, OperatorRates],
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.config = config
        self.reference = dict(reference_rates)
        self.tracer = tracer
        self.registry = registry
        self._history: Dict[OperatorKey, Deque[float]] = {}
        self._last_good: Dict[OperatorKey, OperatorRates] = {}
        self._stale_rounds: Dict[OperatorKey, int] = {}
        self.rejections_this_round = 0
        self.total_rejections = 0
        #: Consecutive failed rounds seen by the watchdog.
        self.failed_streak = 0
        self.safe_mode = False
        self._safe_mode_since: Optional[float] = None
        self.safe_mode_entries = 0
        self.rounds: Dict[str, int] = {k: 0 for k in ROUND_OUTCOMES}
        #: Whether this round saw a deploy attempt fail (set by the
        #: controller; feeds the watchdog).
        self.deploy_failed_this_round = False
        #: Sim time of the current control round (set by the
        #: controller; timestamps guard events raised from deep inside
        #: the placement path, which has no clock of its own).
        self.round_time_s: Seconds = 0.0

    # ------------------------------------------------------------------
    # Metric validation
    # ------------------------------------------------------------------
    def _verdict(self, key: OperatorKey, sample: OperatorRates) -> RateVerdict:
        values = (
            sample.true_rate_per_task,
            sample.observed_rate,
            sample.observed_output_rate,
            sample.busy_fraction,
        )
        if any(not math.isfinite(v) for v in values):
            return RateVerdict(False, "non_finite")
        if any(v < 0 for v in values):
            return RateVerdict(False, "negative")
        ref = self.reference.get(key)
        if ref is not None and sample.true_rate_per_task > (
            self.config.max_rate_factor * ref.true_rate_per_task
        ):
            return RateVerdict(False, "impossible_rate")
        history = self._history.get(key)
        if history is not None and len(history) >= 3:
            values_list = list(history)
            med = _median(values_list)
            mad = _median([abs(v - med) for v in values_list])
            if mad > 1e-12 and med > 1e-12:
                z = _MAD_SCALE * abs(sample.true_rate_per_task - med) / mad
                ratio = sample.true_rate_per_task / med
                wild = (
                    ratio > self.config.outlier_ratio
                    or ratio < 1.0 / self.config.outlier_ratio
                )
                if z > self.config.outlier_zscore and wild:
                    return RateVerdict(False, "outlier")
        return RateVerdict(True)

    def _observe_rejection(
        self, key: OperatorKey, reason: str, time_s: Seconds
    ) -> None:
        self.rejections_this_round += 1
        self.total_rejections += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "sim",
                "controller.guard.reject",
                time_s,
                cat="controller",
                args={"operator": key[1], "reason": reason},
            )
        if self.registry is not None:
            self.registry.counter(
                "controller_guard_rejections_total",
                labels={"reason": reason},
                help="Telemetry samples rejected by the control-plane guard.",
            ).inc()

    def validate_rates(
        self,
        rates: Mapping[OperatorKey, OperatorRates],
        expected_keys: List[OperatorKey],
        time_s: Seconds,
    ) -> Dict[OperatorKey, OperatorRates]:
        """Screen one telemetry snapshot; always returns a complete map.

        Rejected or missing samples are substituted by the operator's
        last accepted observation (or, before any, the profile
        reference), so downstream DS2 never sees a hole or a NaN.
        """
        self.rejections_this_round = 0
        cleaned: Dict[OperatorKey, OperatorRates] = {}
        for key in expected_keys:
            sample = rates.get(key)
            if sample is None:
                self._observe_rejection(key, "missing", time_s)
                self._stale_rounds[key] = self._stale_rounds.get(key, 0) + 1
                cleaned[key] = self._substitute(key)
                continue
            verdict = self._verdict(key, sample)
            if not verdict.accepted:
                self._observe_rejection(key, verdict.reason, time_s)
                self._stale_rounds[key] = self._stale_rounds.get(key, 0) + 1
                cleaned[key] = self._substitute(key)
                continue
            self._stale_rounds[key] = 0
            self._last_good[key] = sample
            history = self._history.setdefault(
                key, deque(maxlen=self.config.history_window)
            )
            history.append(sample.true_rate_per_task)
            cleaned[key] = sample
        return cleaned

    def _substitute(self, key: OperatorKey) -> OperatorRates:
        good = self._last_good.get(key)
        if good is not None:
            return good
        ref = self.reference.get(key)
        if ref is not None:
            return ref
        # No basis at all: a neutral sample that asks for no change.
        return OperatorRates(
            true_rate_per_task=1.0,
            observed_rate=1.0,
            observed_output_rate=1.0,
            busy_fraction=1.0,
        )

    def plan_rejected(self) -> None:
        """The plan sanity guard fired: an invalid plan was discarded.

        Counted like a telemetry rejection (reason ``plan``) so the
        watchdog sees repeated planning failures too.
        """
        self._observe_rejection(("", "*"), "plan", self.round_time_s)

    def reset_history(self) -> None:
        """Forget per-operator rate history after a redeploy.

        A new configuration is a new contention regime; yesterday's
        medians would flag legitimate new steady states as outliers.
        Last-known-good samples and staleness counters survive — they
        track telemetry trust, not the contention regime.
        """
        self._history.clear()

    @property
    def telemetry_quarantined(self) -> bool:
        """Whether any operator exhausted its staleness budget."""
        budget = self.config.staleness_budget_rounds
        return any(v >= budget for v in self._stale_rounds.values())

    # ------------------------------------------------------------------
    # Deploy retry policy
    # ------------------------------------------------------------------
    def retry_backoff_s(self, attempt: int) -> Seconds:
        """Backoff paid before retry ``attempt`` (1-based)."""
        return self.config.deploy_backoff_s * (
            self.config.deploy_backoff_factor ** (attempt - 1)
        )

    # ------------------------------------------------------------------
    # Watchdog / safe mode
    # ------------------------------------------------------------------
    @property
    def holds_decisions(self) -> bool:
        """Whether scaling decisions are held this round."""
        return self.safe_mode or self.telemetry_quarantined

    def record_round(
        self, time_s: Seconds, outcome: str, observed: bool
    ) -> None:
        """Close one control round and update the watchdog.

        Args:
            time_s: Sim time the round closed at.
            outcome: One of :data:`ROUND_OUTCOMES`.
            observed: Whether the round produced evidence — fresh
                telemetry screened or a deploy attempted. Gated rounds
                that never looked at telemetry carry no signal and do
                not move the watchdog streak either way.
        """
        if outcome not in ROUND_OUTCOMES:
            raise ValueError(
                f"unknown round outcome {outcome!r}; expected one of "
                f"{ROUND_OUTCOMES}"
            )
        self.rounds[outcome] += 1
        if self.registry is not None:
            self.registry.counter(
                "controller_rounds_total",
                labels={"outcome": outcome},
                help="Control rounds by terminal outcome.",
            ).inc()
        if not observed:
            self.deploy_failed_this_round = False
            return
        failed = self.rejections_this_round > 0 or self.deploy_failed_this_round
        self.deploy_failed_this_round = False
        if failed:
            self.failed_streak += 1
            if (
                not self.safe_mode
                and self.failed_streak >= self.config.watchdog_rounds
            ):
                self._enter_safe_mode(time_s)
        else:
            self.failed_streak = 0
            if self.safe_mode:
                self._exit_safe_mode(time_s)

    def _enter_safe_mode(self, time_s: Seconds) -> None:
        self.safe_mode = True
        self._safe_mode_since = time_s
        self.safe_mode_entries += 1
        if self.registry is not None:
            self.registry.counter(
                "controller_safe_mode_total",
                help="Watchdog-forced safe-mode entries.",
            ).inc()

    def _exit_safe_mode(self, time_s: Seconds) -> None:
        self.safe_mode = False
        if (
            self.tracer is not None
            and self.tracer.enabled
            and self._safe_mode_since is not None
        ):
            self.tracer.span(
                "sim",
                "controller.safe_mode",
                self._safe_mode_since,
                time_s,
                cat="controller",
            )
        self._safe_mode_since = None

    def finish(self, time_s: Seconds) -> None:
        """Flush an open safe-mode span at end of run."""
        if self.safe_mode:
            self._exit_safe_mode(time_s)
            self.safe_mode = True  # state stays true; only the span closes

    @property
    def verdict(self) -> str:
        """Guard verdict for the placement explanation."""
        if self.safe_mode:
            return "safe_mode"
        if self.rejections_this_round > 0 or self.telemetry_quarantined:
            return "rejected"
        return "clean"
