"""Sensitivity sweeps over the simulator's contention calibration.

The reproduction's headline comparisons (CAPS beats random placement;
co-location hurts) should not hinge on one choice of contention
coefficients. These helpers re-run a compact version of an experiment
across a grid of coefficients and report how the *conclusion* (the
ordering, not the absolute numbers) behaves — the robustness analysis a
simulator-based reproduction owes its reader.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataflow.cluster import Cluster
from repro.dataflow.graph import LogicalGraph
from repro.core.plan import PlacementPlan
from repro.simulator.contention import ContentionConfig
from repro.simulator.engine import SimulationConfig
from repro.experiments.runner import simulate_plan


@dataclass(frozen=True)
class SweepPoint:
    """Outcome of one experiment at one contention calibration."""

    label: str
    config: ContentionConfig
    balanced_throughput: float
    piled_throughput: float

    @property
    def penalty(self) -> float:
        """Relative throughput loss of the co-located plan."""
        if self.balanced_throughput <= 0:
            return 0.0
        return 1.0 - self.piled_throughput / self.balanced_throughput

    @property
    def ordering_holds(self) -> bool:
        """Whether balance still beats co-location at this calibration."""
        return self.balanced_throughput >= self.piled_throughput


def sweep_colocation_penalty(
    graph: LogicalGraph,
    cluster: Cluster,
    balanced_plan: PlacementPlan,
    piled_plan: PlacementPlan,
    rate: float,
    configs: Sequence[Tuple[str, ContentionConfig]],
    duration_s: float = 300.0,
    warmup_s: float = 120.0,
    network_cap_bytes_per_s: Optional[float] = None,
) -> List[SweepPoint]:
    """Measure the co-location penalty across contention calibrations.

    Args:
        graph: The query under test.
        cluster: The worker cluster.
        balanced_plan / piled_plan: A low- and a high-contention plan
            (e.g. from :func:`~repro.experiments.runner.plan_with_colocation`).
        rate: Per-source target rate.
        configs: (label, contention config) grid to sweep.

    Returns:
        One :class:`SweepPoint` per calibration.
    """
    points: List[SweepPoint] = []
    for label, contention in configs:
        sim_config = SimulationConfig(contention=contention)
        balanced = simulate_plan(
            graph, cluster, balanced_plan, rate,
            duration_s=duration_s, warmup_s=warmup_s,
            config=sim_config, network_cap_bytes_per_s=network_cap_bytes_per_s,
        )
        piled = simulate_plan(
            graph, cluster, piled_plan, rate,
            duration_s=duration_s, warmup_s=warmup_s,
            config=sim_config, network_cap_bytes_per_s=network_cap_bytes_per_s,
        )
        points.append(
            SweepPoint(
                label=label,
                config=contention,
                balanced_throughput=balanced.throughput,
                piled_throughput=piled.throughput,
            )
        )
    return points


def default_coefficient_grid() -> List[Tuple[str, ContentionConfig]]:
    """A grid spanning half to double the calibrated coefficients."""
    base = ContentionConfig()
    grid: List[Tuple[str, ContentionConfig]] = []
    for factor in (0.5, 1.0, 2.0):
        grid.append(
            (
                f"x{factor:g}",
                replace(
                    base,
                    cpu_thread_penalty=base.cpu_thread_penalty * factor,
                    gamma_compaction=base.gamma_compaction * factor,
                ),
            )
        )
    return grid
