"""FF: static verification of the fast-forward leap-safety contract.

DESIGN.md section 9 defines fast-forward as an *execution strategy*:
when the engine detects an exact cycle (a fixed point is period 1) it
may leap over whole periods, provided the skipped ticks are
reconstructed bit-identically by an analytic extension (repeated
metric rows, repeated-addition state advance in tick order,
``observe_cycle`` histograms) and the leap never crosses an *event
horizon* (rate-pattern breakpoints, fault events, checkpoint triggers)
or a tick whose GC-spike flags differ from those one period earlier.
``tests/test_engine_fast_forward.py`` enforces this dynamically with
equivalence property tests; these rules prove the structural half
statically, so an edit that would silently break bit-identity fails
the analysis gate instead of a sampled property test:

- **FF000** — contract drift: a configured entry point or a
  leap-coverage spec entry no longer matches the code (function gone,
  class gone, attribute never written).  The spec below is *data*; when
  the engine changes shape this rule forces the spec to follow.
- **FF001** — uncovered state write: a function call-reachable from
  the per-tick loop mutates instance state (attribute assignment or a
  mutating method call such as ``append``/``popleft``) that is not in
  the leap-coverage spec.  Every covered attribute names the mechanism
  that makes leaping over it safe; an uncovered write is state the
  analytic extension would silently drop.
- **FF002** — breakpoint drift: a :class:`RatePattern` subclass
  overrides ``rate_at`` but inherits a *non-trivial*
  ``next_change_after`` from another subclass.  The base class default
  (``None`` — "assume a change at every tick") is conservative and
  safe to inherit; a sibling's optimistic breakpoint schedule is not.
- **FF003** — breakpoint inconsistency: a pattern's
  ``next_change_after`` reads instance fields that ``rate_at`` never
  reads.  The horizon calculation must be a function of the same
  state that shapes the rate curve, otherwise the two can disagree.
- **FF004** — unsanctioned clock: code call-reachable from the
  per-tick loop reads a raw wall clock (``time.time`` …) outside the
  sanctioned accessor modules.  DET002 already covers import-reachable
  code; this closes the gap for call-closure members that imports
  alone do not reach, because any wall-clock dependence makes the
  skipped-tick reconstruction unreproducible by definition.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.ast_utils import (
    SourceFile,
    dotted_name,
    import_aliases,
    resolve_name,
)
from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.report import Finding
from repro.analysis.rules_det import _CLOCK_CALLS, SANCTIONED_CLOCK_MODULES

FF_DRIFT = "FF000"
FF_UNCOVERED_WRITE = "FF001"
FF_BREAKPOINT_OVERRIDE = "FF002"
FF_BREAKPOINT_READS = "FF003"
FF_CLOCK = "FF004"

#: The per-tick loop: everything the engine can execute between two
#: metric rows.  ``_advance_to_tick`` dominates ``step``, ``_try_leap``
#: and ``_leap``, so its call closure is exactly the code whose state
#: effects a leap must reproduce.
DEFAULT_FF_ENTRIES: Tuple[Tuple[str, str], ...] = (
    ("repro.simulator.engine", "FluidSimulation._advance_to_tick"),
)

#: Module prefixes whose functions are *checked* when reachable.  The
#: by-simple-name call closure deliberately over-approximates; modules
#: outside the simulated domain (CLI, experiments, analysis itself)
#: are not part of the tick loop and stay out of scope.
DEFAULT_FF_SCOPE: Tuple[str, ...] = (
    "repro.simulator",
    "repro.faults",
    "repro.workloads",
    "repro.dataflow",
    "repro.observability",
    "repro.diagnosis",
)

#: Rate-pattern protocol: base class and the two methods whose
#: agreement FF002/FF003 verify.
RATE_PATTERN_BASE = "RatePattern"
RATE_METHOD = "rate_at"
BREAKPOINT_METHOD = "next_change_after"


@dataclass(frozen=True)
class CoveredAttr:
    """One instance attribute the leap contract accounts for."""

    attr: str
    mechanism: str


def _cov(*pairs: Tuple[str, str]) -> Tuple[CoveredAttr, ...]:
    return tuple(CoveredAttr(attr, mechanism) for attr, mechanism in pairs)


#: The leap-coverage spec: for every class whose methods run inside the
#: per-tick loop, the instance attributes they may mutate and the
#: mechanism that makes skipping ticks safe for each.  Mechanisms:
#:
#: - ``cycle-key``      — part of the exact cycle test: the recorded
#:   state key, or state a recorded cycle requires to stay at zero; a
#:   leap is only taken when this state provably repeats.
#: - ``repeated-add``   — advanced analytically during a leap by
#:   repeating the cycle's per-tick addends in tick order
#:   (bit-identical because the addends repeat).
#: - ``replicated``     — skipped rows are appended verbatim by the
#:   metric replay path (``repeat_last``/``observe_cycle``); a leap
#:   ends on the cycle's last row, so latest-value gauges hold it.
#: - ``event-horizon``  — recomputed lazily from the tick index or after
#:   a capacity event; leaps never cross the segment boundary or the
#:   event, so the cached value stays valid.
#: - ``ff-bookkeeping`` — fast-forward's own statistics/cycle-detection
#:   state; exists only to drive and count leaps.
#: - ``sink``           — append-only observability sink outside the
#:   simulated domain; replayed identically because its inputs are.
#: - ``lazy-init``      — deterministic first-touch initialisation
#:   (metric registry); identical whether or not ticks were leapt.
DEFAULT_FF_COVERAGE: Mapping[Tuple[str, str], Tuple[CoveredAttr, ...]] = {
    ("repro.simulator.engine", "FluidSimulation"): _cov(
        ("queue", "cycle-key"),
        ("_last_proc", "cycle-key"),
        ("state_bytes", "repeated-add"),
        ("time_s", "repeated-add"),
        ("_tick_index", "repeated-add"),
        ("_ckpt_dirty", "repeated-add"),
        # A tick with an upload in flight clears the cycle record.
        ("_ckpt_upload", "cycle-key"),
        ("cpu_capacity", "event-horizon"),
        ("worker_alive", "event-horizon"),
        ("disk.capacity", "event-horizon"),
        ("nic.capacity", "event-horizon"),
        ("_next_checkpoint_s", "event-horizon"),
        ("last_checkpoint_s", "event-horizon"),
        ("checkpoints_taken", "event-horizon"),
        ("_target_arr", "event-horizon"),
        ("_target_until_tick", "event-horizon"),
        # Rebuilt only after a capacity change, which leaps never cross.
        ("_capacity_epoch", "event-horizon"),
        ("_ff_ticks", "ff-bookkeeping"),
        ("_ff_record", "ff-bookkeeping"),
        ("_ff_offset", "ff-bookkeeping"),
        ("_ff_period", "ff-bookkeeping"),
        ("_ff_cycle", "ff-bookkeeping"),
        ("leaps", "ff-bookkeeping"),
        ("ticks_leapt", "ff-bookkeeping"),
        ("diagnosis", "repeated-add"),
    ),
    ("repro.simulator.engine", "_CapacityEpoch"): _cov(
        # Per GC flag pattern, dropped with the epoch.
        ("_gc_inputs", "event-horizon"),
    ),
    ("repro.diagnosis.collector", "DiagnosisCollector"): _cov(
        ("attribution", "repeated-add"),
        ("provenance", "repeated-add"),
        ("_flushed", "sink"),
        ("_sig", "event-horizon"),
        ("_sig_dt", "event-horizon"),
    ),
    ("repro.diagnosis.attribution", "ContentionAttributor"): _cov(
        ("blame_s", "repeated-add"),
        ("deficit_s", "repeated-add"),
        ("ticks_observed", "repeated-add"),
        ("_sig", "event-horizon"),
        ("_inc_blame", "event-horizon"),
        ("_inc_rows", "event-horizon"),
        ("_inc_deficit", "event-horizon"),
    ),
    ("repro.diagnosis.provenance", "BottleneckTracker"): _cov(
        ("bp_s", "repeated-add"),
        ("ticks_observed", "repeated-add"),
        ("spans", "event-horizon"),
        ("_current", "event-horizon"),
        ("_since_s", "event-horizon"),
        ("_sig", "event-horizon"),
        ("_inc_items", "event-horizon"),
        ("_dominant", "event-horizon"),
    ),
    ("repro.simulator.metrics", "MetricsCollector"): _cov(
        ("_series", "replicated"),
        ("_worker_cpu", "replicated"),
        ("_worker_io", "replicated"),
        ("_worker_net", "replicated"),
        ("_task_window", "replicated"),
    ),
    ("repro.simulator.metrics", "_ColumnStore"): _cov(
        ("_buf", "replicated"),
        ("rows", "replicated"),
    ),
    ("repro.simulator.metrics", "_TaskWindow"): _cov(
        ("_buf", "replicated"),
        ("_end", "replicated"),
    ),
    ("repro.faults.injector", "EngineFaultDriver"): _cov(
        ("_pending", "event-horizon"),
        ("applied", "event-horizon"),
    ),
    ("repro.faults.health", "ClusterHealth"): _cov(
        ("_alive", "event-horizon"),
        ("_slots_lost", "event-horizon"),
        ("_factors", "event-horizon"),
    ),
    ("repro.observability.tracer", "Tracer"): _cov(
        ("records", "sink"),
        ("_seq", "sink"),
    ),
    ("repro.observability.tracer", "_Span"): _cov(
        ("_args", "sink"),
    ),
    ("repro.observability.metrics", "Counter"): _cov(
        ("_value", "repeated-add"),
    ),
    ("repro.observability.metrics", "Gauge"): _cov(
        ("_value", "replicated"),
    ),
    ("repro.observability.metrics", "Histogram"): _cov(
        ("_sum", "replicated"),
        ("_count", "replicated"),
        ("_counts", "replicated"),
    ),
    ("repro.observability.metrics", "MetricRegistry"): _cov(
        ("_metrics", "lazy-init"),
        ("_helps", "lazy-init"),
    ),
}

#: Mutating method names on an attribute receiver that count as writes.
_MUTATOR_METHODS: Set[str] = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "put",
    "put_nowait",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
    "fill",
}


def _in_scope(module: str, scope: Sequence[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in scope
    )


def _self_attr_path(node: ast.AST, self_name: str) -> Optional[str]:
    """``self.a.b[...]`` -> ``"a.b"``; None if not rooted at ``self``."""
    parts: List[str] = []
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if isinstance(current, ast.Attribute):
            parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name) and current.id == self_name and parts:
        return ".".join(reversed(parts))
    return None


def _method_self_name(info: FunctionInfo) -> Optional[str]:
    """First parameter name if this looks like an instance method."""
    if "." not in info.qualname:
        return None
    args = info.node.args
    positional = list(args.posonlyargs) + list(args.args)
    if positional and positional[0].arg == "self":
        return positional[0].arg
    return None


def _self_writes(info: FunctionInfo) -> List[Tuple[str, int]]:
    """(attr path, line) for every instance-state write in a method."""
    self_name = _method_self_name(info)
    if self_name is None:
        return []
    writes: List[Tuple[str, int]] = []
    for node in ast.walk(info.node):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if getattr(node, "value", None) is not None or isinstance(
                node, ast.AugAssign
            ):
                targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in _MUTATOR_METHODS:
                path = _self_attr_path(node.func.value, self_name)
                if path is not None:
                    writes.append((path, node.lineno))
            continue
        for target in targets:
            flat = [target]
            if isinstance(target, (ast.Tuple, ast.List)):
                flat = list(target.elts)
            for element in flat:
                path = _self_attr_path(element, self_name)
                if path is not None:
                    writes.append((path, node.lineno))
    return writes


def _covered(path: str, covered: Set[str]) -> bool:
    """Whether a write path is accounted for by the coverage set.

    ``queue`` covers ``queue`` and element stores through it; a
    dotted entry such as ``disk.capacity`` covers exactly that path —
    rebinding ``self.disk`` itself stays uncovered.
    """
    if path in covered:
        return True
    head = path.split(".")[0]
    if head == path:
        return False
    return head in covered


def check_ff(
    sources: Sequence[SourceFile],
    entries: Iterable[Tuple[str, str]] = DEFAULT_FF_ENTRIES,
    coverage: Optional[
        Mapping[Tuple[str, str], Tuple[CoveredAttr, ...]]
    ] = None,
    scope: Sequence[str] = DEFAULT_FF_SCOPE,
) -> List[Finding]:
    """Verify the leap-safety contract over ``sources``."""
    if coverage is None:
        coverage = DEFAULT_FF_COVERAGE
    graph = CallGraph(sources)
    findings: List[Finding] = []
    entry_list = list(entries)
    found, missing = graph.resolve_entries(entry_list)
    for module, qualname in missing:
        source = next(s for s in sources if s.module == module)
        findings.append(
            Finding(
                rule=FF_DRIFT,
                path=source.relpath,
                line=1,
                message=(
                    f"fast-forward entry point {module}.{qualname} not "
                    "found; update DEFAULT_FF_ENTRIES to the new tick "
                    "loop"
                ),
            )
        )
    findings.extend(_check_coverage_drift(sources, graph, coverage))
    if found:
        reachable = [
            info
            for info in graph.reachable_from(found)
            if _in_scope(info.module, scope)
        ]
        findings.extend(_check_writes(reachable, coverage))
        findings.extend(_check_clocks(reachable))
    findings.extend(_check_rate_patterns(sources))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def classify_functions(
    sources: Sequence[SourceFile],
    entries: Iterable[Tuple[str, str]] = DEFAULT_FF_ENTRIES,
    scope: Sequence[str] = DEFAULT_FF_SCOPE,
) -> Dict[Tuple[str, str], str]:
    """Classify tick-loop-reachable functions as pure or state-writing.

    The classification backing FF001, exposed for tests and docs: a
    function is ``"state-writing"`` if it mutates instance state (by
    assignment or mutator call), ``"pure"`` otherwise.  Purity here is
    *state* purity — reading is always allowed.
    """
    graph = CallGraph(sources)
    found, _ = graph.resolve_entries(entries)
    result: Dict[Tuple[str, str], str] = {}
    for info in graph.reachable_from(found):
        if not _in_scope(info.module, scope):
            continue
        result[info.key] = (
            "state-writing" if _self_writes(info) else "pure"
        )
    return result


def _check_coverage_drift(
    sources: Sequence[SourceFile],
    graph: CallGraph,
    coverage: Mapping[Tuple[str, str], Tuple[CoveredAttr, ...]],
) -> List[Finding]:
    findings: List[Finding] = []
    by_module = {s.module: s for s in sources}
    for (module, class_name), attrs in sorted(coverage.items()):
        source = by_module.get(module)
        if source is None:
            continue  # partial scans are legitimate (same as entries)
        class_node = next(
            (
                node
                for node in ast.walk(source.tree)
                if isinstance(node, ast.ClassDef)
                and node.name == class_name
            ),
            None,
        )
        if class_node is None:
            findings.append(
                Finding(
                    rule=FF_DRIFT,
                    path=source.relpath,
                    line=1,
                    message=(
                        f"leap-coverage spec names class {class_name} "
                        f"which no longer exists in {module}; update "
                        "DEFAULT_FF_COVERAGE"
                    ),
                )
            )
            continue
        written: Set[str] = set()
        for info in graph.functions:
            if info.module != module:
                continue
            if not info.qualname.startswith(class_name + "."):
                continue
            for path, _ in _self_writes(info):
                written.add(path)
                written.add(path.split(".")[0])
        for covered_attr in attrs:
            attr = covered_attr.attr
            if attr in written or attr.split(".")[0] in written:
                continue
            findings.append(
                Finding(
                    rule=FF_DRIFT,
                    path=source.relpath,
                    line=class_node.lineno,
                    message=(
                        f"leap-coverage spec lists {class_name}.{attr} "
                        f"({covered_attr.mechanism}) but no method of "
                        f"{class_name} writes it; remove the stale entry"
                    ),
                )
            )
    return findings


def _check_writes(
    reachable: Sequence[FunctionInfo],
    coverage: Mapping[Tuple[str, str], Tuple[CoveredAttr, ...]],
) -> List[Finding]:
    findings: List[Finding] = []
    for info in reachable:
        class_name = info.qualname.split(".")[0]
        if class_name == info.qualname:
            continue  # free function; no instance state
        covered = {
            c.attr
            for c in coverage.get((info.module, class_name), ())
        }
        seen: Set[Tuple[str, int]] = set()
        for path, line in _self_writes(info):
            if _covered(path, covered):
                continue
            key = (path, line)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                Finding(
                    rule=FF_UNCOVERED_WRITE,
                    path=info.source.relpath,
                    line=line,
                    message=(
                        f"{info.qualname} writes self.{path}, which is "
                        "not in the leap-coverage spec — a fast-forward "
                        "leap would skip this mutation; cover it with an "
                        "analytic-extension mechanism or restructure "
                        "(DESIGN.md section 9)"
                    ),
                )
            )
    return findings


def _check_clocks(reachable: Sequence[FunctionInfo]) -> List[Finding]:
    findings: List[Finding] = []
    for info in reachable:
        if info.module in SANCTIONED_CLOCK_MODULES:
            continue
        aliases = import_aliases(info.source.tree, info.module)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_name(node.func, aliases)
            if resolved in _CLOCK_CALLS:
                findings.append(
                    Finding(
                        rule=FF_CLOCK,
                        path=info.source.relpath,
                        line=node.lineno,
                        message=(
                            f"{info.qualname} reads the wall clock "
                            f"({resolved}) inside the tick-loop call "
                            "closure; leap reconstruction cannot replay "
                            "wall-clock state — use the sanctioned "
                            "accessors in repro.observability.clock"
                        ),
                    )
                )
    return findings


def _self_attr_reads(node: ast.AST, self_name: str = "self") -> Set[str]:
    reads: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(
            sub.value, ast.Name
        ):
            if sub.value.id == self_name:
                reads.add(sub.attr)
    return reads


def _check_rate_patterns(
    sources: Sequence[SourceFile],
) -> List[Finding]:
    # Collect every class and its base names (as written, deframed to
    # the simple name so ``rates.RatePattern`` still links up).
    classes: Dict[str, Tuple[SourceFile, ast.ClassDef, List[str]]] = {}
    for source in sources:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = []
            for base in node.bases:
                name = dotted_name(base)
                if name is not None:
                    bases.append(name.rsplit(".", 1)[-1])
            classes[node.name] = (source, node, bases)

    def is_rate_pattern(name: str, seen: Set[str]) -> bool:
        if name == RATE_PATTERN_BASE:
            return True
        if name in seen or name not in classes:
            return False
        seen.add(name)
        return any(
            is_rate_pattern(base, seen) for base in classes[name][2]
        )

    def defined_methods(node: ast.ClassDef) -> Dict[str, ast.AST]:
        return {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def inherited_breakpoint_owner(name: str) -> Optional[str]:
        """Nearest ancestor defining next_change_after, depth-first."""
        if name not in classes:
            return None
        for base in classes[name][2]:
            if base == RATE_PATTERN_BASE:
                return RATE_PATTERN_BASE
            if base in classes:
                methods = defined_methods(classes[base][1])
                if BREAKPOINT_METHOD in methods:
                    return base
                owner = inherited_breakpoint_owner(base)
                if owner is not None:
                    return owner
        return None

    findings: List[Finding] = []
    for name, (source, node, _bases) in sorted(classes.items()):
        if name == RATE_PATTERN_BASE:
            continue
        if not is_rate_pattern(name, set()):
            continue
        methods = defined_methods(node)
        has_rate = RATE_METHOD in methods
        has_breakpoints = BREAKPOINT_METHOD in methods
        if has_rate and not has_breakpoints:
            owner = inherited_breakpoint_owner(name)
            if owner is not None and owner != RATE_PATTERN_BASE:
                findings.append(
                    Finding(
                        rule=FF_BREAKPOINT_OVERRIDE,
                        path=source.relpath,
                        line=node.lineno,
                        message=(
                            f"{name} overrides {RATE_METHOD} but "
                            f"inherits {BREAKPOINT_METHOD} from {owner}; "
                            "the inherited breakpoint schedule describes "
                            "the parent's curve — override it (the "
                            f"{RATE_PATTERN_BASE} default None is the "
                            "safe fallback)"
                        ),
                    )
                )
        if has_rate and has_breakpoints:
            rate_reads = _self_attr_reads(methods[RATE_METHOD])
            horizon_reads = _self_attr_reads(methods[BREAKPOINT_METHOD])
            extra = sorted(horizon_reads - rate_reads)
            if extra:
                findings.append(
                    Finding(
                        rule=FF_BREAKPOINT_READS,
                        path=source.relpath,
                        line=methods[BREAKPOINT_METHOD].lineno,
                        message=(
                            f"{name}.{BREAKPOINT_METHOD} reads "
                            f"{', '.join('self.' + e for e in extra)} "
                            f"which {RATE_METHOD} never reads; the "
                            "breakpoint schedule must be a function of "
                            "the state that shapes the rate curve"
                        ),
                    )
                )
    return findings
