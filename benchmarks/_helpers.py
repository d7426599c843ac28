"""Shared fixtures and helpers for the benchmark suite.

Every ``bench_*`` module regenerates one table or figure of the paper
(see DESIGN.md section 3 for the index) and prints it in paper-shaped
rows. ``pytest-benchmark`` times the core computation of each experiment
with a single round — these are experiments, not micro-benchmarks, so
wall-clock repetition would only burn time without adding information.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Callable, Dict, Mapping, Tuple

from repro.controller.capsys import CAPSysController, ControllerConfig
from repro.dataflow.cluster import Cluster
from repro.dataflow.graph import LogicalGraph
from repro.workloads import QueryPreset

#: Simulated durations for the experiment benches. The paper warms up
#: 6-10 min and measures 10-15 min; simulated time is cheap but not
#: free, so the benches use a compressed but still steady-state window.
DURATION_S = 420.0
WARMUP_S = 180.0


def write_bench_json(name: str, payload: Mapping, directory: str = ".") -> str:
    """Write a machine-readable ``BENCH_<name>.json`` result file.

    The shared writer for the perf-trajectory files: every entry carries
    enough environment metadata (host python, core count, timestamp) for
    a later run to decide whether a comparison is apples-to-apples.
    Returns the path written.
    """
    path = os.path.join(directory, f"BENCH_{name}.json")
    document = {
        "bench": name,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "results": dict(payload),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def merge_bench_json(name: str, section: str, payload: Mapping, directory: str = ".") -> str:
    """Merge one result section into an existing ``BENCH_<name>.json``.

    Several scripts contribute to the same trajectory file (e.g.
    ``bench_perf_search.py`` and ``bench_perf_engine.py`` both feed
    ``BENCH_perf.json``); this writer preserves the other sections
    instead of clobbering them, refreshing only the shared environment
    metadata. Starts a fresh document when the file is absent or
    unreadable. Returns the path written.
    """
    path = os.path.join(directory, f"BENCH_{name}.json")
    results: Dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            previous = json.load(fh)
        if isinstance(previous.get("results"), dict):
            results = previous["results"]
    except (OSError, ValueError):
        pass
    results[section] = dict(payload)
    return write_bench_json(name, results, directory=directory)


def current_commit(directory: str = ".") -> str:
    """Short hash of the checked-out commit, for labelling bench results.

    ``+dirty`` is appended when ``src/`` has uncommitted changes, so a
    number is never credited to a commit that did not produce it;
    ``"unknown"`` outside a git checkout.
    """

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=directory, capture_output=True, text=True,
            check=True,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--", "src")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return commit + ("+dirty" if dirty else "")


def merge_bench_section_with_previous(
    name: str, section: str, payload: Mapping, directory: str = "."
) -> str:
    """Merge ``payload`` (which carries a ``"commit"``) as ``section``,
    keeping a before/after pair.

    The section's last result from a *different* commit is kept under
    ``"previous"``; re-running at the same commit keeps the existing
    ``"previous"``. So running the bench at a parent commit and then at
    its change leaves both numbers side by side. Returns the path
    written.
    """
    path = os.path.join(directory, f"BENCH_{name}.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            old = json.load(fh)["results"][section]
    except (OSError, ValueError, KeyError, TypeError):
        old = None
    entry = dict(payload)
    if isinstance(old, dict):
        if old.get("commit") != entry.get("commit"):
            entry["previous"] = {k: v for k, v in old.items() if k != "previous"}
        elif "previous" in old:
            entry["previous"] = old["previous"]
    return merge_bench_json(name, section, entry, directory=directory)


def run_once(benchmark, fn: Callable):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def profiled_controller(
    graph: LogicalGraph,
    cluster: Cluster,
    strategy="caps",
    **config_kwargs,
) -> CAPSysController:
    """A controller with the profiling phase already run."""
    config = ControllerConfig(**config_kwargs) if config_kwargs else None
    controller = CAPSysController(graph, cluster, strategy=strategy, config=config)
    controller.profile()
    return controller


def ds2_sized_graph(
    preset: QueryPreset, cluster: Cluster, rate: float
) -> Tuple[LogicalGraph, Dict[Tuple[str, str], float], dict]:
    """The DS2-sized logical graph for a preset at a target rate.

    Returns (scaled graph, engine source-rate map, profiled unit costs),
    which is the deployment state right before placement in the CAPSys
    workflow (paper Figure 6, steps 2-3).
    """
    g = preset.build()
    controller = profiled_controller(g, cluster)
    unit_costs = controller.profile()
    parallelism = controller.initial_parallelism({op: rate for op in g.sources()})
    scaled = g.with_parallelism(parallelism)
    rates = {(scaled.job_id, op): rate for op in scaled.sources()}
    return scaled, rates, unit_costs
