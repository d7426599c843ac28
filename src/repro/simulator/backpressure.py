"""Credit-style backpressure: bounded-buffer emission throttling.

Flink's credit-based flow control lets an upstream task emit only while
every receiving channel has buffer credit; one congested channel stalls
the emitter entirely (head-of-line blocking). The fluid equivalent: each
destination grants its emitters a fill fraction ``g = space / inflow``
and an emitter's throttle is the *minimum* grant over its outgoing
channels.

Sustained throttling propagates upstream tick by tick — throttled tasks
drain their queues slower, so their own upstream emitters see shrinking
space — until it reaches the sources, whose shortfall against target is
the backpressure metric the paper reports.

Per-destination sums that start from zero use
``np.bincount(index, weights=..., minlength=n)``, which adds in index
order from 0.0 exactly as ``np.add.at`` into a zero array does, at
about half the cost. Divisions that may meet a zero divisor use
``np.divide(..., where=...)`` into a prefilled array, so no tick needs
``np.errstate``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _fill_ratio(
    inflow: np.ndarray,
    queue: np.ndarray,
    queue_cap: np.ndarray,
    draining: np.ndarray,
) -> np.ndarray:
    """``space / inflow`` per destination, ``inf`` where nothing is offered.

    Both grants are clamps of this one division.
    """
    space = np.maximum(0.0, queue_cap - queue + draining)
    return np.divide(space, inflow, out=np.full(len(inflow), np.inf), where=inflow > 0)


def destination_grants(
    inflow: np.ndarray,
    queue: np.ndarray,
    queue_cap: np.ndarray,
    draining: np.ndarray,
) -> np.ndarray:
    """Fill fraction each destination can accept this tick.

    Space includes the records the destination is draining this tick:
    with per-tick fluid steps, a buffer smaller than one tick of inflow
    must still sustain ``inflow == service rate`` in steady state (the
    real system exchanges credits at millisecond granularity). The
    drain estimate is the destination's resource-limited processing,
    which upper-bounds its final processing, so occupancy may transiently
    overshoot the cap by the difference; the overshoot is bounded and
    decays.

    Args:
        inflow: Offered records per destination task.
        queue: Current queue occupancy per task.
        queue_cap: Queue capacity per task (inf for sources).
        draining: Records each destination processes this tick.

    Returns:
        Per-task grant in [0, 1]; tasks with no offered inflow grant 1.
    """
    return np.minimum(1.0, _fill_ratio(inflow, queue, queue_cap, draining))


def destination_grants_uncapped(
    inflow: np.ndarray,
    queue: np.ndarray,
    queue_cap: np.ndarray,
    draining: np.ndarray,
) -> np.ndarray:
    """Like :func:`destination_grants` but allowed to exceed 1.

    Used for REBALANCE channels: a consumer with spare buffer can absorb
    *more* than its nominal share when the emitter reroutes around a
    congested peer, so its grant must express the surplus capacity. The
    value is clamped to a finite bound so an idle consumer (zero offered
    inflow) does not produce infinities.
    """
    return np.minimum(_fill_ratio(inflow, queue, queue_cap, draining), 1e9)


class ChannelSet:
    """A deployment's channels and the index subsets the flow split reads.

    Channels never change during a run, so the head-of-line and
    reroutable subsets, and each emitter's total reroutable share, are
    taken once here instead of on every tick. ``reroutable`` is None
    when every channel blocks head-of-line; the subsets exist only
    otherwise.

    Args:
        c_src / c_dst: Channel endpoint indices.
        task_count: Total number of tasks.
        c_share: Channel stream shares (required with ``c_reroutable``).
        c_reroutable: Per-channel bool, True for REBALANCE channels.
            When omitted or all False, every channel blocks head-of-line.
    """

    __slots__ = (
        "src", "dst", "share", "task_count", "reroutable",
        "hol_src", "hol_dst", "hol_share",
        "rr_src", "rr_dst", "rr_share", "rr_total_share", "rr_has", "rr_total_has",
    )

    def __init__(
        self,
        c_src: np.ndarray,
        c_dst: np.ndarray,
        task_count: int,
        c_share: Optional[np.ndarray] = None,
        c_reroutable: Optional[np.ndarray] = None,
    ) -> None:
        self.src = c_src
        self.dst = c_dst
        self.share = c_share
        self.task_count = task_count
        if c_reroutable is None or not c_reroutable.any():
            self.reroutable = None
            return
        if c_share is None:
            raise ValueError("c_share is required when channels are reroutable")
        self.reroutable = c_reroutable
        hol = ~c_reroutable
        self.hol_src = c_src[hol] if hol.any() else None
        self.hol_dst = c_dst[hol]
        self.hol_share = c_share[hol]
        self.rr_src = c_src[c_reroutable]
        self.rr_dst = c_dst[c_reroutable]
        self.rr_share = c_share[c_reroutable]
        total_share = np.zeros(task_count)
        np.add.at(total_share, self.rr_src, self.rr_share)
        self.rr_total_share = total_share
        self.rr_has = total_share > 0
        self.rr_total_has = total_share[self.rr_has]


def emitter_throttles(
    grants: np.ndarray,
    channels: ChannelSet,
    grants_uncapped: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-emitter throttle from its channels' grants.

    Key-partitioned (HASH) and one-to-one channels block the emitter at
    the *minimum* (capped) grant: records are bound to a specific
    consumer, so one congested channel stalls the operator
    (head-of-line blocking). REBALANCE channels are reroutable — the
    emitter can keep feeding uncongested consumers — so they contribute
    the share-weighted average of the *uncapped* grants (a peer with
    surplus buffer offsets a congested one), clamped to 1.

    Args:
        grants: Per-destination fill grants, capped at 1.
        channels: The deployment's channels.
        grants_uncapped: Per-destination grants allowed to exceed 1;
            defaults to ``grants`` (which disables surplus absorption).
    """
    task_count = channels.task_count
    throttle = np.ones(task_count)
    if not len(channels.src):
        return throttle
    if channels.reroutable is None:
        np.minimum.at(throttle, channels.src, grants[channels.dst])
        return throttle
    if grants_uncapped is None:
        grants_uncapped = grants
    if channels.hol_src is not None:
        np.minimum.at(throttle, channels.hol_src, grants[channels.hol_dst])
    # Weighted-average uncapped grant over the reroutable channels.
    weighted = np.bincount(
        channels.rr_src,
        weights=channels.rr_share * grants_uncapped[channels.rr_dst],
        minlength=task_count,
    )
    has = channels.rr_has
    avg = np.ones(task_count)
    avg[has] = np.minimum(1.0, weighted[has] / channels.rr_total_has)
    return np.minimum(throttle, avg)


def throttle_emissions(
    out_recs: np.ndarray,
    channels: ChannelSet,
    queue: np.ndarray,
    queue_cap: np.ndarray,
    draining: np.ndarray,
) -> "ThrottleResult":
    """End-to-end helper: per-tick emission throttle and flow weights.

    Combines the offered inflow aggregation, destination grants, and
    partitioning-aware emitter throttling. After distributing emissions
    with :func:`distribute_inflow`, no destination queue exceeds its
    capacity by more than the slack documented in
    :func:`destination_grants`.
    """
    n = len(out_recs)
    inflow = np.bincount(
        channels.dst, weights=out_recs[channels.src] * channels.share, minlength=n
    )
    # destination_grants and destination_grants_uncapped, sharing the
    # one division.
    ratio = _fill_ratio(inflow, queue, queue_cap, draining)
    grants = np.minimum(1.0, ratio)
    grants_uncapped = np.minimum(ratio, 1e9)
    throttle = emitter_throttles(grants, channels, grants_uncapped)
    return ThrottleResult(
        throttle=throttle, grants=grants, grants_uncapped=grants_uncapped
    )


class ThrottleResult:
    """Emitter throttles plus the grant state needed to distribute flow."""

    __slots__ = ("throttle", "grants", "grants_uncapped")

    def __init__(
        self,
        throttle: np.ndarray,
        grants: np.ndarray,
        grants_uncapped: np.ndarray,
    ) -> None:
        self.throttle = throttle
        self.grants = grants
        self.grants_uncapped = grants_uncapped


def distribute_inflow(
    out_recs_final: np.ndarray,
    channels: ChannelSet,
    result: ThrottleResult,
) -> np.ndarray:
    """Per-destination inflow after partitioning-aware distribution.

    Key-bound (HASH) channels deliver their static share of the final
    emission. REBALANCE channels *reroute*: the emitter distributes its
    stream proportionally to ``share * grant``, so a congested consumer
    receives only what it can absorb and the surplus flows to its
    peers — this is what lets one slow subtask not cap a rebalanced
    pipeline, while keeping per-edge record conservation exact.
    """
    n = len(out_recs_final)
    if channels.reroutable is None:
        return np.bincount(
            channels.dst,
            weights=out_recs_final[channels.src] * channels.share,
            minlength=n,
        )
    if channels.hol_src is not None:
        inflow = np.bincount(
            channels.hol_dst,
            weights=out_recs_final[channels.hol_src] * channels.hol_share,
            minlength=n,
        )
    else:
        inflow = np.zeros(n)
    # grant-weighted redistribution within each emitter's reroutable set
    # (uncapped grants: surplus buffer at one consumer attracts the flow
    # rerouted away from congested peers)
    weight = channels.rr_share * result.grants_uncapped[channels.rr_dst]
    total_weight = np.bincount(channels.rr_src, weights=weight, minlength=n)
    src_rr = channels.rr_src
    # each emitter sends (out * total_share) records on its reroutable
    # channels, split in proportion to weight; emitters whose consumers
    # granted nothing send nothing.
    scale = np.divide(
        channels.rr_total_share, total_weight, out=np.zeros(n),
        where=total_weight > 0,
    )
    contribution = out_recs_final[src_rr] * weight * scale[src_rr]
    # Lands on top of the head-of-line inflow, so it stays a scatter-add.
    np.add.at(inflow, channels.rr_dst, contribution)
    return inflow
