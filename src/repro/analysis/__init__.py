"""Determinism & concurrency-safety static analysis for this repository.

The reproduction's headline guarantees are *invariants*, not features:

1. the fluid simulator is a deterministic function of its inputs
   (which is what makes the plan-evaluation cache and the CAPS
   equivalence suites sound), and
2. the partitioned process-pool search shares no unsynchronised
   mutable state (which is what makes it bit-identical to the
   sequential DFS).

Example-based tests witness these invariants on specific inputs; this
package *checks them mechanically* over the whole tree with a custom
AST analysis, run as::

    PYTHONPATH=src python -m repro.analysis            # human-readable
    PYTHONPATH=src python -m repro.analysis --format json

Six rule families (see the rule modules for the full catalogue):

- ``DET`` (:mod:`repro.analysis.rules_det`) — determinism lint over
  code import-reachable from ``repro.simulator``/``repro.core``.
- ``RACE`` (:mod:`repro.analysis.rules_race`) — conservative
  shared-state checks over code call-reachable from the parallel
  backends' worker entry points.
- ``KEY`` (:mod:`repro.analysis.rules_key`) — cache-key completeness
  of the plan-evaluation fingerprint.
- ``API`` (:mod:`repro.analysis.rules_api`) — hygiene (mutable default
  arguments, swallowed exceptions).
- ``UNIT`` (:mod:`repro.analysis.rules_unit`) — interprocedural
  physical-dimension checking (seconds vs ticks vs bytes vs rates)
  over the numeric packages, built on the abstract-interpretation
  core in :mod:`repro.analysis.absint`.
- ``FF`` (:mod:`repro.analysis.rules_ff`) — static verification of
  the fast-forward leap-safety contract (DESIGN.md section 9): every
  state mutation in the tick-loop call closure must be covered by the
  analytic extension set, and rate-pattern breakpoint schedules must
  agree with their rate curves.

Deliberate exceptions are recorded inline::

    deadline = time.monotonic() + t  # repro: allow[DET002] user-requested timeout

Suppressions must carry a reason (bare ones are ``SUP001`` findings)
and must match a live finding (stale ones are ``SUP002``). The process
exits non-zero when any unsuppressed finding remains, which is what the
CI ``analysis`` job gates on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.analysis.ast_utils import SourceFile, load_package, load_source
from repro.analysis.report import Finding, Report, finalize
from repro.analysis.rules_api import check_api
from repro.analysis.rules_det import (
    DEFAULT_DET_ROOTS,
    SANCTIONED_CLOCK_MODULES,
    check_det,
)
from repro.analysis.rules_ff import (
    DEFAULT_FF_COVERAGE,
    DEFAULT_FF_ENTRIES,
    check_ff,
    classify_functions,
)
from repro.analysis.rules_key import DEFAULT_KEY_SPEC, KeySpec, check_key
from repro.analysis.rules_race import DEFAULT_RACE_ENTRIES, check_race
from repro.analysis.rules_unit import DEFAULT_UNIT_ROOTS, check_unit

#: The six rule families, in reporting order.
FAMILIES = ("DET", "RACE", "KEY", "API", "UNIT", "FF")


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parents[1]


def analyze_sources(
    sources: Sequence[SourceFile],
    families: Optional[Iterable[str]] = None,
    det_roots: Optional[Iterable[str]] = DEFAULT_DET_ROOTS,
    unit_roots: Optional[Iterable[str]] = DEFAULT_UNIT_ROOTS,
) -> Report:
    """Run the selected rule families over already-loaded sources."""
    selected = set(families) if families is not None else set(FAMILIES)
    unknown = selected - set(FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown rule families {sorted(unknown)}; expected {FAMILIES}"
        )
    findings: List[Finding] = []
    if "DET" in selected:
        findings.extend(check_det(sources, roots=det_roots))
    if "RACE" in selected:
        findings.extend(check_race(sources))
    if "KEY" in selected:
        findings.extend(check_key(sources))
    if "API" in selected:
        findings.extend(check_api(sources))
    if "UNIT" in selected:
        findings.extend(check_unit(sources, roots=unit_roots))
    if "FF" in selected:
        findings.extend(check_ff(sources))
    return finalize(findings, sources, families=sorted(selected))


def run_analysis(
    root: Optional[Path] = None,
    families: Optional[Iterable[str]] = None,
) -> Report:
    """Scan a package tree (default: this installed ``repro`` package)."""
    package_root = Path(root) if root is not None else default_root()
    sources = load_package(package_root)
    # Exclude the analyzer's own package from analysis scope? No — it
    # must hold itself to the same hygiene rules, and it is not
    # import-reachable from the simulator/search roots, so DET/RACE do
    # not apply to it anyway.
    return analyze_sources(sources, families=families)


__all__ = [
    "FAMILIES",
    "Finding",
    "KeySpec",
    "Report",
    "SourceFile",
    "analyze_sources",
    "check_api",
    "check_det",
    "check_ff",
    "check_key",
    "check_race",
    "check_unit",
    "classify_functions",
    "default_root",
    "load_package",
    "load_source",
    "run_analysis",
    "DEFAULT_DET_ROOTS",
    "DEFAULT_FF_COVERAGE",
    "DEFAULT_FF_ENTRIES",
    "DEFAULT_KEY_SPEC",
    "DEFAULT_RACE_ENTRIES",
    "DEFAULT_UNIT_ROOTS",
    "SANCTIONED_CLOCK_MODULES",
]
