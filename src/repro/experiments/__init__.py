"""Experiment harness shared by the benchmark suite.

- :mod:`repro.experiments.runner` -- cluster builders matching the
  paper's AWS setups, single-run and multi-run simulation drivers, and
  the exhaustive plan enumeration used by the motivation study.
- :mod:`repro.experiments.reporting` -- plain-text tables and box-plot
  statistics that render each paper table/figure as terminal output.
- :mod:`repro.experiments.figures` -- series assembly for the
  figure-shaped results (timelines, scatter plots) as printable data.
"""

from repro.experiments.runner import (
    ExperimentRun,
    enumerate_all_plans,
    make_isolation_cluster,
    make_motivation_cluster,
    make_multitenant_cluster,
    make_odrp_cluster,
    simulate_plan,
    strategy_box_runs,
)
from repro.experiments.reporting import BoxStats, box_stats, format_table

__all__ = [
    "ExperimentRun",
    "enumerate_all_plans",
    "make_isolation_cluster",
    "make_motivation_cluster",
    "make_multitenant_cluster",
    "make_odrp_cluster",
    "simulate_plan",
    "strategy_box_runs",
    "BoxStats",
    "box_stats",
    "format_table",
]
