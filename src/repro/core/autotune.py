"""Threshold auto-tuning (paper section 5.2).

Threshold-based pruning requires a factor vector ``alpha``; the ideal is
the *minimum feasible* threshold, which yields the most resource-balanced
plan the deployment admits. The auto-tuner finds it in two phases:

- **Phase 1**: for each dimension in isolation (the other dimensions
  disabled), start from the tightest possible bound (a perfectly
  balanced placement, ``alpha = 0``) and geometrically relax it until a
  satisfying plan exists.
- **Phase 2**: jointly applying the three per-dimension minima is not
  guaranteed feasible, so all three are relaxed *together* by the phase-2
  relaxation factor until a plan satisfying the full vector exists.

Both phases use a configurable relaxation factor (the paper uses 1.1 for
both) and an overall timeout for early exit on infeasible configurations.
Because the result depends only on the query graph and the resources, the
paper precomputes thresholds for candidate scaling scenarios offline and
looks them up when scaling triggers. Here
:class:`~repro.placement.caps.CapsStrategy` memoises each whole
placement decision, tuned thresholds included, for the life of the
process: placing a scenario once is the precomputation, and placing it
again is the lookup.

**Bisection over the paper's sequences.** Each phase walks a fixed
candidate sequence (:meth:`ThresholdAutoTuner.phase1_candidates` and
:meth:`ThresholdAutoTuner.phase2_candidates`) and wants its first
feasible entry. Exact feasibility is monotone along both: Eq. 10's bound
``L_min + alpha (L_max - L_min)`` grows with ``alpha``, so a looser
threshold admits a superset of plans, and each phase-2 vector is
componentwise >= the one before it. So the tuner bisects each sequence
instead of scanning it, and returns the same candidate, bit for bit, as
the in-order scan in O(log n) probes. Every probe rebinds the thresholds
of one prepared :class:`~repro.core.search.CapsSearch` rather than
building a new one.

*Caveat.* A probe that stops at ``probe_max_nodes`` or a wall-clock
budget without finding a plan reports "infeasible" without proof, and
such probes are not monotone: only they can make bisection differ from
the scan. :attr:`AutoTuneResult.truncated_probes` counts them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, TypeVar,
)

from repro.observability import clock
from repro.core.cost_model import CostModel, CostVector, DIMENSIONS, TaskCosts
from repro.core.search import CapsSearch, SearchLimits


T = TypeVar("T")


@dataclass
class AutoTuneResult:
    """Outcome of one auto-tuning run.

    ``iterations`` counts the feasibility probes run (each one
    :meth:`CapsSearch.run <repro.core.search.CapsSearch.run>` call);
    ``truncated_probes`` counts those that stopped at the node or
    wall-clock budget without finding a plan.
    """

    thresholds: CostVector
    phase1_minima: CostVector
    iterations: int
    duration_s: float
    timed_out: bool
    truncated_probes: int

    @property
    def feasible(self) -> bool:
        return all(math.isfinite(self.thresholds[d]) for d in DIMENSIONS)


class ThresholdAutoTuner:
    """Finds the minimum feasible pruning threshold vector.

    :meth:`tune` bisects each phase's candidate sequence over one
    prepared search (see the module docstring): unless a probe is
    truncated, the result equals the first feasible candidate of the
    paper's in-order scan, found in O(log n) probes.

    Args:
        cost_model: Cost model for the deployment being tuned.
        relaxation_phase1: Multiplicative step for single-dimension
            relaxation (paper default 1.1).
        relaxation_phase2: Multiplicative step for joint relaxation
            (paper default 1.1).
        initial_alpha: First non-zero threshold tried after the exact
            ``alpha = 0`` probe fails.
        timeout_s: Overall wall-clock budget ("users can set a timeout
            value that allows exiting the search early").
        search_timeout_s: Budget for each individual feasibility probe.
        reorder: Forwarded to the underlying searches.
    """

    def __init__(
        self,
        cost_model: CostModel,
        relaxation_phase1: float = 1.1,
        relaxation_phase2: float = 1.1,
        initial_alpha: float = 0.01,
        timeout_s: float = 5.0,
        search_timeout_s: Optional[float] = None,
        probe_max_nodes: Optional[int] = 500_000,
        reorder: bool = True,
        sensitivity_kappa: float = 0.9,
    ) -> None:
        if relaxation_phase1 <= 1.0 or relaxation_phase2 <= 1.0:
            raise ValueError("relaxation factors must be > 1")
        if not 0.0 < initial_alpha <= 1.0:
            raise ValueError("initial_alpha must be in (0, 1]")
        if timeout_s <= 0:
            raise ValueError("timeout must be positive")
        self.cost_model = cost_model
        self.relaxation_phase1 = relaxation_phase1
        self.relaxation_phase2 = relaxation_phase2
        self.initial_alpha = initial_alpha
        self.timeout_s = timeout_s
        self.search_timeout_s = search_timeout_s
        #: Node budget per feasibility probe. An infeasible probe close
        #: to the feasibility boundary can expand an exponential
        #: frontier before proving emptiness; capping it treats
        #: "couldn't find a plan within the budget" as infeasible, which
        #: only errs toward slightly looser (still feasible) thresholds.
        self.probe_max_nodes = probe_max_nodes
        self.reorder = reorder
        #: Dimensions whose worst-case co-located load stays below this
        #: fraction of one worker's capacity are not tuned at all: their
        #: imbalance cannot affect performance (paper Figure 5 shows the
        #: same judgement for Q1-sliding's network dimension), so their
        #: threshold stays fully relaxed instead of fighting the
        #: sensitive dimensions during joint relaxation.
        self.insensitive = set(cost_model.insensitive_dimensions(sensitivity_kappa))

    # ------------------------------------------------------------------
    def phase1_candidates(self) -> List[float]:
        """Phase 1's grid for one dimension, tightest first.

        ``0.0`` (a perfectly balanced placement), then ``initial_alpha``
        multiplied by ``relaxation_phase1`` while it stays <= 1 + 1e-9.
        Built by repeated multiplication: ``initial_alpha * r**k`` rounds
        differently, and the tuned thresholds are these exact floats.
        """
        candidates = [0.0]
        alpha = self.initial_alpha
        while alpha <= 1.0 + 1e-9:
            candidates.append(alpha)
            alpha *= self.relaxation_phase1
        return candidates

    def phase2_candidates(self, minima: Mapping[str, float]) -> List[Dict[str, float]]:
        """Phase 2's joint vectors, from the phase-1 ``minima`` up.

        Each vector adds ``step`` to every tuned dimension, capped at
        1.0, and then ``step *= relaxation_phase2`` (``step`` starts at
        ``initial_alpha``). The sequence ends at the first vector whose
        entries are all >= 1, which admits every slot-feasible plan and
        is accepted without a probe.

        A purely multiplicative step would poison the vector whenever
        one dimension's isolated minimum is (near) zero — e.g. the
        network dimension, whose unconstrained optimum is the degenerate
        all-on-one-worker plan with C_net = 0: the near-zero entry crawls
        while the others blow past 1, and the first feasible vector then
        admits *only* heavily co-located plans. Equal additive steps keep
        the vector's structure, so the first feasible vector admits the
        balanced plan.
        """
        joint = dict(minima)
        candidates = [joint]
        step = self.initial_alpha
        while not all(joint[d] >= 1.0 for d in DIMENSIONS):
            joint = {
                d: joint[d] if d in self.insensitive else min(1.0, joint[d] + step)
                for d in DIMENSIONS
            }
            step *= self.relaxation_phase2
            candidates.append(joint)
        return candidates

    def _relax_single(self, dimension: str, probe: "_Probes") -> float:
        """Phase 1 for one dimension: its minimum feasible alpha."""
        grid = self.phase1_candidates()

        def feasible(alpha: float) -> bool:
            thresholds = {d: math.inf for d in DIMENSIONS}
            thresholds[dimension] = alpha
            return probe.feasible(thresholds)

        first = _first_feasible(grid, feasible)
        if first == len(grid):
            # No grid point admitted a plan: slots force C_i above the
            # grid's last point (~0.97 with the defaults), or the probes
            # near the top were truncated. alpha = 1 admits every
            # slot-feasible plan (C_i <= 1 always), and the search
            # constructor rejects slot-infeasible problems.
            return 1.0
        return grid[first]

    # ------------------------------------------------------------------
    def tune(self) -> AutoTuneResult:
        """Run both phases and return the minimum feasible vector."""
        started = clock.monotonic()
        probe = _Probes(self, deadline=started + self.timeout_s)
        timed_out = False
        minima: Dict[str, float] = {d: 1.0 for d in DIMENSIONS}
        # Fully relaxed until phase 2 finishes: on a timeout the result
        # admits every slot-feasible plan.
        joint: Dict[str, float] = dict(minima)
        try:
            for dim in DIMENSIONS:
                if dim not in self.insensitive:
                    minima[dim] = self._relax_single(dim, probe)
            candidates = self.phase2_candidates(minima)
            joint = candidates[_first_feasible(candidates[:-1], probe.feasible)]
        except _TimeoutSignal:
            timed_out = True
        return AutoTuneResult(
            thresholds=CostVector(**joint),
            phase1_minima=CostVector(**minima),
            iterations=probe.runs,
            duration_s=clock.elapsed_since(started),
            timed_out=timed_out,
            truncated_probes=probe.truncated,
        )


def _first_feasible(candidates: Sequence[T], feasible: Callable[[T], bool]) -> int:
    """Index of the first feasible candidate, ``len(candidates)`` if none.

    Plain bisection: with feasibility monotone along ``candidates`` it
    finds the in-order scan's answer in O(log n) calls of ``feasible``.
    """
    lo, hi = 0, len(candidates)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


class _Probes:
    """First-plan feasibility probes on one prepared search, counted."""

    def __init__(self, tuner: ThresholdAutoTuner, deadline: float) -> None:
        self.tuner = tuner
        self.deadline = deadline
        self.search = CapsSearch(
            tuner.cost_model, reorder=tuner.reorder, collect_pareto=False
        )
        self.runs = 0
        self.truncated = 0

    def feasible(self, thresholds: Mapping[str, float]) -> bool:
        """Whether any plan satisfies ``thresholds``."""
        remaining = self.deadline - clock.monotonic()
        if remaining <= 0:
            raise _TimeoutSignal
        probe_timeout = remaining
        if self.tuner.search_timeout_s is not None:
            probe_timeout = min(probe_timeout, self.tuner.search_timeout_s)
        self.search.set_thresholds(thresholds)
        result = self.search.run(
            SearchLimits(
                first_satisfying=True,
                timeout_s=probe_timeout,
                max_nodes=self.tuner.probe_max_nodes,
            )
        )
        self.runs += 1
        if not result.found and not result.stats.exhausted:
            self.truncated += 1
        return result.found


class _TimeoutSignal(Exception):
    """Raised internally when the overall auto-tune deadline passes."""

