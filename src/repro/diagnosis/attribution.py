"""Contention attribution: decompose per-task deficits into blame.

The engine's proportional-sharing step answers *how much* each task was
scaled back on each resource; this module answers *by whom*. Per tick
and per resource, every task that demanded a contended resource was
stalled for ``(1 - scale) * dt`` seconds of the tick. That stall is
split into:

- a **concurrency-penalty overhead** share — the part of the capacity
  loss caused by the convex penalty itself (thread oversubscription on
  CPU, compaction interference on disk), which no single contender
  owns; and
- **contender** shares — the rest, split over the *other* demanders on
  the worker in proportion to their demand (a task alone on a saturated
  resource blames itself; the checkpoint upload stream is an external
  contender with its own column).

Conservation is exact, not approximate: the correctly-rounded sum of
one decomposition row (:func:`exact_sum`, ``math.fsum``) reproduces the
stall bit-for-bit, which is what lets the accumulated blame counters be
cross-checked against the accumulated deficit counters and what keeps
fast-forward leaps (repeated addition of a cached per-tick increment)
bit-identical to tick-by-tick execution.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.units import Fraction, Seconds

#: Resource axes attributed, in fixed report order.
RESOURCES: Tuple[str, str, str] = ("cpu", "disk", "network")

#: Number of extra blame columns beyond the per-task ones: the
#: concurrency-penalty overhead column and the external-demand column
#: (checkpoint upload stream).
EXTRA_COLUMNS = 2


def exact_sum(values: np.ndarray) -> float:
    """Correctly-rounded exact float sum — the conservation contract.

    The decomposition's exactness is defined against ``math.fsum``
    (the true real sum, rounded once), so it is independent of any
    accumulation order and tests and cross-checks must use it too.
    Order-sensitive running sums (pairwise ``np.sum``, naive loops)
    may legitimately differ by ulps and are *not* the contract.
    """
    return math.fsum(float(v) for v in values)


def _pin_row_total(row: np.ndarray, total_s: Seconds, adjust: int) -> None:
    """Nudge ``row[adjust]`` until the exact row sum equals ``total_s``.

    The proportional shares are computed by division, so their sum
    drifts from the stall by a few ulps; assigning the residual to the
    preferred component and iterating the correction usually pins the
    exact sum in one or two rounds. When that column cannot reach the
    target on its own ulp grid, :func:`_pin_last` finishes the job with
    a direct solve plus a tie-breaking perturbation.
    """
    if _pin_at(row, total_s, adjust, 32):
        return
    _pin_last(row, total_s)


def _pin_at(row: np.ndarray, total_s: Seconds, adjust: int, rounds: int) -> bool:
    # A full-residual nudge moves ``row[adjust]`` by several of its own
    # ulps at once and can jump straight over the target sum (the
    # residual is measured in the *sum's* ulps, which may be coarser).
    # Once the residual changes sign we therefore drop to single-ulp
    # stepping, which visits every attainable sum value in order.
    ulp_only = False
    prev_sign = 0
    for _ in range(rounds):
        acc = exact_sum(row)
        if acc == total_s:
            return True
        sign = 1 if acc < total_s else -1
        if prev_sign and sign != prev_sign:
            ulp_only = True
        prev_sign = sign
        nudged = row[adjust] + (total_s - acc)
        if ulp_only or nudged == row[adjust]:
            row[adjust] = np.nextafter(
                row[adjust], math.inf if sign > 0 else -math.inf
            )
        else:
            row[adjust] = nudged
    return exact_sum(row) == total_s


def _pin_last(row: np.ndarray, total_s: Seconds) -> None:
    """Pin the exact sum by solving for the last nonzero column.

    Setting ``row[j] = total_s - prefix`` puts the true real sum within
    half an ulp of the target, so the correctly-rounded ``fsum`` lands
    on it except in one edge case: the real sum sits *exactly* on a
    rounding boundary and round-half-even sends both of ``row[j]``'s
    neighbouring grid points away. Because ``fsum`` never absorbs small
    addends, perturbing the smallest nonzero prefix column by one of
    its own (much finer) ulps moves the real sum strictly inside the
    rounding preimage, after which the re-solve is exact. A prefix
    already above the target (possible only when the trailing column is
    residual-sized) zeroes that column and retries one column earlier,
    terminating at ``row = [total_s, 0, ...]`` in the worst case.
    """
    for _ in range(128):
        nonzero = np.flatnonzero(row)
        if not len(nonzero):
            row[0] = total_s
            return
        j = int(nonzero[-1])
        prefix = exact_sum(row[:j])
        x = total_s - prefix
        if x <= 0.0:
            row[j] = 0.0
            continue
        row[j] = x
        for _ in range(8):
            acc = exact_sum(row)
            if acc == total_s:
                return
            row[j] = np.nextafter(
                row[j], math.inf if acc < total_s else -math.inf
            )
        if j == 0 or not row[:j].any():
            return
        prefix_nonzero = nonzero[nonzero < j]
        p = int(prefix_nonzero[np.argmin(row[prefix_nonzero])])
        row[p] = np.nextafter(row[p], 0.0)


def decompose_deficit(
    demand: np.ndarray,
    extra_demand: float,
    raw_capacity: float,
    effective_capacity: float,
    stall_s: Seconds,
) -> np.ndarray:
    """Blame decomposition for one worker's contended resource.

    Args:
        demand: Per-task demand on this worker (resource units, all
            strictly positive — zero-demand tasks have no deficit).
        extra_demand: Additional non-task demand sharing the resource
            this tick (the checkpoint upload stream), same units.
        raw_capacity: The resource's capacity before concurrency
            penalties.
        effective_capacity: Capacity after penalties (equal to
            ``raw_capacity`` for penalty-free resources such as the
            NIC).
        stall_s: Each demander's stall this tick in seconds —
            ``(1 - scale) * dt``, identical for every demander because
            proportional sharing grants everyone the same fraction.

    Returns:
        A ``(k, k + 2)`` matrix, one row per demander: columns
        ``0..k-1`` blame the co-located demanders, column ``k`` is the
        concurrency-penalty overhead, column ``k + 1`` the external
        demand. Each row's :func:`exact_sum` equals ``stall_s``
        exactly.
    """
    demand = np.asarray(demand, dtype=float)
    k = len(demand)
    out = np.zeros((k, k + EXTRA_COLUMNS))
    if k == 0 or stall_s <= 0.0:
        return out
    total_demand = float(np.sum(demand)) + extra_demand
    lost = total_demand - effective_capacity
    if lost <= 0.0:
        return out
    # Without the penalty the worker would lose max(0, D - C); the
    # penalty accounts for the remainder, min(D, C) - C_eff.
    overhead_fraction: Fraction = (
        min(total_demand, raw_capacity) - effective_capacity
    ) / lost
    overhead_fraction = min(max(overhead_fraction, 0.0), 1.0)
    overhead_s: Seconds = stall_s * overhead_fraction
    for i in range(k):
        row = out[i]
        row[k] = overhead_s
        others = demand.copy()
        others[i] = 0.0
        weight_total = float(np.sum(others)) + extra_demand
        pool_s: Seconds = stall_s - overhead_s
        if weight_total <= 0.0:
            # Sole demander: the task saturated the resource itself.
            row[i] = pool_s
            _pin_row_total(row, stall_s, i)
            continue
        row[:k] = pool_s * others / weight_total
        if extra_demand > 0.0:
            row[k + 1] = pool_s * extra_demand / weight_total
        if extra_demand >= float(np.max(others)):
            adjust = k + 1
        else:
            adjust = int(np.argmax(others))
        _pin_row_total(row, stall_s, adjust)
    return out


class ContentionAttributor:
    """Accumulates per-(task, resource, blamed-entity) stall seconds.

    One matrix per resource, shape ``(n, n + 2)``: row = stalled task,
    columns = blamed tasks, then the penalty-overhead column, then the
    external-demand column. A parallel per-task vector accumulates the
    raw deficit (stall seconds) so conservation can be cross-checked
    after any run.

    Per-tick inputs are deterministic functions of engine state, so the
    computed increment is cached and reused while the input signature
    is unchanged — which also makes :meth:`extend` (repeated addition
    of the cached increment during a fast-forward leap) bit-identical
    to stepping the skipped ticks.
    """

    def __init__(self, task_count: int, task_worker: np.ndarray) -> None:
        self._n = task_count
        self._task_worker = np.asarray(task_worker, dtype=np.int64)
        self.blame_s: Dict[str, np.ndarray] = {
            r: np.zeros((task_count, task_count + EXTRA_COLUMNS))
            for r in RESOURCES
        }
        self.deficit_s: Dict[str, np.ndarray] = {
            r: np.zeros(task_count) for r in RESOURCES
        }
        self.ticks_observed = 0
        self._sig: Optional[bytes] = None
        self._inc_blame: Dict[str, np.ndarray] = {}
        self._inc_rows: Dict[str, np.ndarray] = {}
        self._inc_deficit: Dict[str, np.ndarray] = {}

    # -- per-tick observation ------------------------------------------
    def observe(
        self,
        dt: float,
        cpu_demand: np.ndarray,
        cpu_scale: np.ndarray,
        cpu_capacity: np.ndarray,
        cpu_effective: np.ndarray,
        io_demand: np.ndarray,
        io_scale: np.ndarray,
        disk_capacity: np.ndarray,
        disk_effective: np.ndarray,
        ckpt_io: Optional[np.ndarray],
        net_demand: np.ndarray,
        net_scale: np.ndarray,
        net_capacity: np.ndarray,
    ) -> None:
        """Attribute one executed tick's deficits.

        Demands are per-task, scales/capacities per-worker; ``ckpt_io``
        is the optional per-worker checkpoint upload demand competing
        for disk bandwidth.
        """
        # Exact-value signature as one bytes string: per-array tobytes
        # joined in a fixed order (shapes are fixed per engine, so the
        # concatenation is injective). Bytes compare in C, which keeps
        # the converged-tick fast path to a couple of microseconds.
        sig = b"".join(
            (
                cpu_demand.tobytes(),
                cpu_scale.tobytes(),
                cpu_capacity.tobytes(),
                cpu_effective.tobytes(),
                io_demand.tobytes(),
                io_scale.tobytes(),
                disk_capacity.tobytes(),
                disk_effective.tobytes(),
                ckpt_io.tobytes() if ckpt_io is not None else b"",
                net_demand.tobytes(),
                net_scale.tobytes(),
                net_capacity.tobytes(),
            )
        )
        if sig != self._sig:
            self._sig = sig
            self._recompute_increment(
                dt,
                cpu_demand,
                cpu_scale,
                cpu_capacity,
                cpu_effective,
                io_demand,
                io_scale,
                disk_capacity,
                disk_effective,
                ckpt_io,
                net_demand,
                net_scale,
                net_capacity,
            )
        self._apply_increment()

    def extend(self, ticks: int) -> None:
        """Apply the cached per-tick increment ``ticks`` more times.

        Called for fast-forward leaps, which the engine takes only at
        exact fixed points while a collector is attached: there the
        per-tick inputs are constant, so repeating the cached addition
        reproduces tick-by-tick accumulation bit-for-bit.
        """
        for _ in range(ticks):
            self._apply_increment()

    def _apply_increment(self) -> None:
        for resource in RESOURCES:
            rows = self._inc_rows.get(resource)
            if rows is None or not len(rows):
                continue
            self.blame_s[resource][rows] += self._inc_blame[resource]
            self.deficit_s[resource][rows] += self._inc_deficit[resource]
        self.ticks_observed += 1

    def _recompute_increment(
        self,
        dt: float,
        cpu_demand: np.ndarray,
        cpu_scale: np.ndarray,
        cpu_capacity: np.ndarray,
        cpu_effective: np.ndarray,
        io_demand: np.ndarray,
        io_scale: np.ndarray,
        disk_capacity: np.ndarray,
        disk_effective: np.ndarray,
        ckpt_io: Optional[np.ndarray],
        net_demand: np.ndarray,
        net_scale: np.ndarray,
        net_capacity: np.ndarray,
    ) -> None:
        per_resource = {
            "cpu": (cpu_demand, cpu_scale, cpu_capacity, cpu_effective, None),
            "disk": (io_demand, io_scale, disk_capacity, disk_effective, ckpt_io),
            "network": (net_demand, net_scale, net_capacity, net_capacity, None),
        }
        self._inc_blame = {}
        self._inc_rows = {}
        self._inc_deficit = {}
        for resource, (demand, scale, raw, eff, extra) in per_resource.items():
            self._inc_rows[resource] = np.zeros(0, dtype=np.int64)
            contended = np.flatnonzero(scale < 1.0)
            if not len(contended):
                continue
            inc = np.zeros((self._n, self._n + EXTRA_COLUMNS))
            deficit = np.zeros(self._n)
            for w in contended:
                on_w = np.flatnonzero((self._task_worker == w) & (demand > 0.0))
                if not len(on_w):
                    continue
                stall_s: Seconds = (1.0 - float(scale[w])) * dt
                extra_w = float(extra[w]) if extra is not None else 0.0
                shares = decompose_deficit(
                    demand[on_w], extra_w, float(raw[w]), float(eff[w]), stall_s
                )
                k = len(on_w)
                inc[np.ix_(on_w, on_w)] += shares[:, :k]
                inc[on_w, self._n] += shares[:, k]
                inc[on_w, self._n + 1] += shares[:, k + 1]
                deficit[on_w] += stall_s
            rows = np.flatnonzero(np.any(inc != 0.0, axis=1) | (deficit != 0.0))
            self._inc_rows[resource] = rows
            if len(rows):
                self._inc_blame[resource] = inc[rows]
                self._inc_deficit[resource] = deficit[rows]
