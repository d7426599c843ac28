"""Structured explanations of placement decisions.

Every ``CapsStrategy.place`` call — initial deployment or adaptive
replan — produces one :class:`Explanation`: what triggered the
placement, which candidate won (pareto search, greedy warm start, or
the evenly fallback), why it beat the runner-up, and how much headroom
the chosen plan has against each pruning threshold. Explanations are
persisted alongside traces (``diagnosis.explanation`` events) and
surface in ``repro.observability diagnose`` reports, answering the
"why did the scheduler do that" half of root-cause analysis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

#: Cost dimensions reported in margins, fixed order.
_DIMENSIONS = ("cpu", "io", "net")


@dataclass(frozen=True)
class Explanation:
    """Why one placement decision came out the way it did.

    Attributes:
        trigger: What prompted the placement — ``"initial"``, a DS2
            rescale reason, or a fault reason such as
            ``"fault:disk:w3"`` (set by the controller; a bare
            strategy call leaves it ``"standalone"``).
        chosen: Winning candidate: ``"search"``, ``"greedy"`` or
            ``"evenly"``.
        fallback_stage: ``None`` when the search (or a better greedy
            warm start) produced the plan normally; otherwise the
            fallback stage taken (``"greedy"`` / ``"evenly"``).
        weighted_cost: Weighted scalar cost of the chosen plan
            (``None`` when no cost model could evaluate it).
        runner_up: The beaten candidate, if any.
        runner_up_cost: The beaten candidate's weighted cost.
        margins: Per-dimension headroom of the chosen plan against the
            pruning thresholds, ``threshold - cost`` (positive means
            within threshold).
        thresholds: The pruning thresholds the search ran with.
        plans_explored: Satisfying plans the search discovered.
        reason: One-line human-readable summary of the decision.
        guard_verdict: Control-plane guard verdict attached by the
            controller when guards are armed (``"clean"``,
            ``"rejected"`` — telemetry was quarantined this round — or
            ``"safe_mode"``); ``None`` when guards are not armed, so a
            run without them records no verdict.
    """

    trigger: str
    chosen: str
    fallback_stage: Optional[str]
    weighted_cost: Optional[float]
    runner_up: Optional[str]
    runner_up_cost: Optional[float]
    margins: Mapping[str, float] = field(default_factory=dict)
    thresholds: Mapping[str, float] = field(default_factory=dict)
    plans_explored: int = 0
    reason: str = ""
    guard_verdict: Optional[str] = None

    def with_trigger(self, trigger: str) -> "Explanation":
        """Copy with the controller-known trigger filled in."""
        return dataclasses.replace(self, trigger=trigger)

    def with_guard_verdict(self, verdict: str) -> "Explanation":
        """Copy with the controller's guard verdict filled in."""
        return dataclasses.replace(self, guard_verdict=verdict)

    def to_args(self) -> Dict[str, Any]:
        """Flat JSON-encodable mapping for trace-event args."""
        args: Dict[str, Any] = {
            "trigger": self.trigger,
            "chosen": self.chosen,
            "fallback_stage": self.fallback_stage or "",
            "plans_explored": self.plans_explored,
            "reason": self.reason,
        }
        if self.weighted_cost is not None:
            args["weighted_cost"] = self.weighted_cost
        if self.runner_up is not None:
            args["runner_up"] = self.runner_up
        if self.runner_up_cost is not None:
            args["runner_up_cost"] = self.runner_up_cost
        for dim in _DIMENSIONS:
            if dim in self.margins:
                args[f"margin_{dim}"] = self.margins[dim]
            if dim in self.thresholds:
                args[f"threshold_{dim}"] = self.thresholds[dim]
        if self.guard_verdict is not None:
            args["guard_verdict"] = self.guard_verdict
        return args

    def format_text(self) -> str:
        parts = [f"trigger={self.trigger}", f"chose {self.chosen}"]
        if self.runner_up is not None:
            if self.weighted_cost is not None and self.runner_up_cost is not None:
                parts.append(
                    f"over {self.runner_up} "
                    f"({self.weighted_cost:.6g} vs {self.runner_up_cost:.6g})"
                )
            else:
                parts.append(f"over {self.runner_up}")
        if self.fallback_stage:
            parts.append(f"fallback={self.fallback_stage}")
        margins = ", ".join(
            f"{dim}={self.margins[dim]:.6g}"
            for dim in _DIMENSIONS
            if dim in self.margins
        )
        if margins:
            parts.append(f"margins: {margins}")
        if self.guard_verdict:
            parts.append(f"guard={self.guard_verdict}")
        if self.reason:
            parts.append(self.reason)
        return "; ".join(parts)


def explain_placement(
    chosen: str,
    weights: Mapping[str, float],
    cost=None,
    runner_up: Optional[str] = None,
    runner_up_cost=None,
    thresholds=None,
    plans_explored: int = 0,
    fallback_stage: Optional[str] = None,
    reason: str = "",
) -> Explanation:
    """Build an :class:`Explanation` from ``CapsStrategy.place`` state.

    ``cost``, ``runner_up_cost`` and ``thresholds`` are
    :class:`~repro.core.cost_model.CostVector` instances (or ``None``
    when the corresponding candidate could not be evaluated).
    """
    margins: Dict[str, float] = {}
    threshold_map: Dict[str, float] = {}
    if thresholds is not None:
        for dim in _DIMENSIONS:
            threshold_map[dim] = float(thresholds[dim])
            if cost is not None:
                margins[dim] = float(thresholds[dim]) - float(cost[dim])
    return Explanation(
        trigger="standalone",
        chosen=chosen,
        fallback_stage=fallback_stage,
        weighted_cost=(
            float(cost.weighted_total(weights)) if cost is not None else None
        ),
        runner_up=runner_up,
        runner_up_cost=(
            float(runner_up_cost.weighted_total(weights))
            if runner_up_cost is not None
            else None
        ),
        margins=margins,
        thresholds=threshold_map,
        plans_explored=plans_explored,
        reason=reason,
    )
