"""KEY: cache-key completeness analysis for the three content-keyed caches.

``repro.simulator.plan_cache`` memoises simulation summaries by a
content fingerprint, ``repro.placement.caps`` memoises CAPS placement
decisions by a second one (``placement_fingerprint``), and
``repro.controller.profiler`` memoises profiled unit costs by a third
(``profile_fingerprint``). Each
cache is sound only while its fingerprint covers *everything the
computation it skips can observe*; a field added to a
cluster/workload/config type but not folded into the fingerprint makes
two semantically different inputs collide — the worst possible cache
bug, because it silently returns wrong results. These rules make that
a build failure instead:

- **KEY001** — canonicalisation coverage: for each hand-written
  ``_canon_*`` helper, every *state field* of the class it encodes
  (public constructor-assigned attributes, or their property names for
  ``_underscore`` storage) must be read somewhere in the helper.
  Derived caches (underscore attributes without a matching property)
  are ignored. A ``covers`` map records indirect coverage, e.g.
  reading ``physical.spec_of`` covers ``logical_graphs``.
- **KEY002** — signature parity: every parameter of the simulator's
  constructor/run entry points must map (directly or via an alias) to a
  parameter of ``simulation_fingerprint``, every parameter of
  ``CapsStrategy.__init__``/``place`` to one of
  ``placement_fingerprint``, and every parameter of
  ``CostProfiler.__init__``/``profile`` to one of
  ``profile_fingerprint``, so a new engine, strategy or profiler knob
  cannot bypass its key.
- **KEY003** — every type folded into the fingerprint through the
  generic dataclass encoder must remain a ``@dataclass(frozen=True)``:
  frozen-ness is what makes field-wise encoding a faithful content
  hash (a mutable key type could change after fingerprinting).
- **KEY000** — configuration drift: a module named below exists but the
  configured class/function is gone — update the spec rather than
  silently skipping the check.

The specs are data (:data:`DEFAULT_KEY_SPEC` describes this
repository); tests point the same checkers at fixture modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.ast_utils import (
    SourceFile,
    arg_names,
    dotted_name,
    find_class,
    find_function,
)
from repro.analysis.report import Finding

KEY_CANON_COVERAGE = "KEY001"
KEY_SIGNATURE_PARITY = "KEY002"
KEY_FROZEN_DATACLASS = "KEY003"
KEY_CONFIG_DRIFT = "KEY000"


@dataclass(frozen=True)
class CanonCoverageSpec:
    """One hand-written canon helper and the class it must cover."""

    canon_module: str
    canon_func: str
    target_module: str
    target_class: str
    param: str
    #: field name -> alternative attribute reads that count as coverage
    covers: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    ignore: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SignatureParitySpec:
    """Fingerprint function vs. the engine entry points it must mirror."""

    fingerprint_module: str
    fingerprint_func: str
    target_module: str
    target_funcs: Tuple[str, ...]
    alias: Mapping[str, str] = field(default_factory=dict)
    ignore: Tuple[str, ...] = ("self",)


@dataclass(frozen=True)
class FrozenDataclassSpec:
    """Types folded into the fingerprint via the generic encoder."""

    module: str
    classes: Tuple[str, ...]


@dataclass(frozen=True)
class KeySpec:
    coverage: Tuple[CanonCoverageSpec, ...] = ()
    parity: Tuple[SignatureParitySpec, ...] = ()
    frozen: Tuple[FrozenDataclassSpec, ...] = ()


DEFAULT_KEY_SPEC = KeySpec(
    coverage=(
        CanonCoverageSpec(
            canon_module="repro.simulator.plan_cache",
            canon_func="_canon_placement",
            target_module="repro.dataflow.cluster",
            target_class="Cluster",
            param="cluster",
        ),
        CanonCoverageSpec(
            canon_module="repro.simulator.plan_cache",
            canon_func="_canon_placement",
            target_module="repro.core.plan",
            target_class="PlacementPlan",
            param="plan",
        ),
        CanonCoverageSpec(
            canon_module="repro.simulator.plan_cache",
            canon_func="_canon_physical",
            target_module="repro.dataflow.physical",
            target_class="PhysicalGraph",
            param="physical",
            # The logical graphs' observable content is the per-operator
            # resource profile, reached via spec_of(task).
            covers={"logical_graphs": ("spec_of",)},
        ),
        # _canon_physical encodes tasks and channels through these two
        # helpers, not through the generic dataclass encoder.
        CanonCoverageSpec(
            canon_module="repro.simulator.plan_cache",
            canon_func="_canon_task",
            target_module="repro.dataflow.physical",
            target_class="Task",
            param="task",
        ),
        CanonCoverageSpec(
            canon_module="repro.simulator.plan_cache",
            canon_func="_canon_channel",
            target_module="repro.dataflow.physical",
            target_class="Channel",
            param="channel",
        ),
        CanonCoverageSpec(
            canon_module="repro.simulator.plan_cache",
            canon_func="_canon_cluster",
            target_module="repro.dataflow.cluster",
            target_class="Cluster",
            param="cluster",
        ),
        CanonCoverageSpec(
            canon_module="repro.simulator.plan_cache",
            canon_func="_canon_costs",
            target_module="repro.core.cost_model",
            target_class="TaskCosts",
            param="costs",
            # The placement key encodes the graph the costs belong to
            # through _canon_physical, next to this helper's output.
            ignore=("physical",),
        ),
    ),
    parity=(
        SignatureParitySpec(
            fingerprint_module="repro.simulator.plan_cache",
            fingerprint_func="simulation_fingerprint",
            target_module="repro.simulator.engine",
            target_funcs=("FluidSimulation.__init__", "FluidSimulation.run"),
            alias={"source_rates": "rates"},
            # Observability sinks record the simulation; they never feed
            # back into it, so fingerprint collisions across tracer or
            # registry values are correct (same dynamics, same summary).
            ignore=("self", "tracer", "registry"),
        ),
        SignatureParitySpec(
            fingerprint_module="repro.simulator.plan_cache",
            fingerprint_func="placement_fingerprint",
            target_module="repro.placement.caps",
            target_funcs=("CapsStrategy.__init__", "CapsStrategy.place"),
            # The source rates and the unit-cost provider reach the
            # decision only through the TaskCosts they produce.
            alias={"source_rates": "costs", "unit_costs_provider": "costs"},
            # Observability sinks record a placement and never feed it.
            ignore=("self", "tracer", "registry"),
        ),
        SignatureParitySpec(
            fingerprint_module="repro.simulator.plan_cache",
            fingerprint_func="profile_fingerprint",
            target_module="repro.controller.profiler",
            target_funcs=("CostProfiler.__init__", "CostProfiler.profile"),
            # The key hashes the physical graph profile() expands from
            # the logical one at parallelism 1.
            alias={"graph": "physical"},
        ),
    ),
    frozen=(
        FrozenDataclassSpec(
            module="repro.simulator.engine", classes=("SimulationConfig",)
        ),
        FrozenDataclassSpec(
            module="repro.simulator.contention", classes=("ContentionConfig",)
        ),
        FrozenDataclassSpec(
            module="repro.dataflow.cluster", classes=("WorkerSpec", "Worker")
        ),
        # Encoded by _canon_task and _canon_channel, not the generic
        # encoder; frozen still keeps a graph from changing under its key.
        FrozenDataclassSpec(
            module="repro.dataflow.physical", classes=("Task", "Channel")
        ),
        FrozenDataclassSpec(
            module="repro.dataflow.graph",
            classes=("OperatorSpec", "GcSpikeProfile"),
        ),
        FrozenDataclassSpec(
            module="repro.core.cost_model", classes=("CostVector",)
        ),
        FrozenDataclassSpec(
            module="repro.workloads.rates",
            classes=(
                "ConstantRate",
                "StepSchedule",
                "SquareWaveRate",
                "SineRate",
                "TimeShiftedRate",
                "RampRate",
            ),
        ),
    ),
)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _by_module(sources: Sequence[SourceFile]) -> Dict[str, SourceFile]:
    return {s.module: s for s in sources}


def _drift(source: SourceFile, message: str) -> Finding:
    return Finding(
        rule=KEY_CONFIG_DRIFT, path=source.relpath, line=1, message=message
    )


def _is_dataclass_decorated(node: ast.ClassDef) -> Tuple[bool, bool]:
    """(is dataclass, is frozen) from the decorator list."""
    for deco in node.decorator_list:
        name = dotted_name(deco.func if isinstance(deco, ast.Call) else deco)
        if name is None or name.split(".")[-1] != "dataclass":
            continue
        frozen = False
        if isinstance(deco, ast.Call):
            for kw in deco.keywords:
                if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                    frozen = bool(kw.value.value)
        return True, frozen
    return False, False


def _dataclass_fields(node: ast.ClassDef) -> List[str]:
    return [
        stmt.target.id
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _property_names(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in stmt.decorator_list:
                if dotted_name(deco) == "property":
                    names.add(stmt.name)
    return names


def _returned_self_attr(func: ast.AST) -> Optional[str]:
    """The ``self`` attribute a property body directly exposes, if any.

    Unwraps copying calls, so ``return dict(self._assignment)`` and
    ``return tuple(self._tasks)`` both expose their storage attribute.
    """
    for sub in ast.walk(func):
        if not isinstance(sub, ast.Return) or sub.value is None:
            continue
        expr = sub.value
        while isinstance(expr, ast.Call) and expr.args:
            expr = expr.args[0]
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
    return None


def _property_exposures(node: ast.ClassDef) -> Dict[str, str]:
    """Map private storage attributes to the property names exposing them."""
    exposures: Dict[str, str] = {}
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(dotted_name(d) == "property" for d in stmt.decorator_list):
            continue
        storage = _returned_self_attr(stmt)
        if storage is not None:
            exposures.setdefault(storage, stmt.name)
    return exposures


def class_state_fields(node: ast.ClassDef) -> List[str]:
    """Observable state fields of a class, by its public surface.

    For dataclasses: the declared fields. Otherwise: attributes assigned
    to ``self`` in ``__init__`` — public ones directly, ``_underscore``
    ones through the public property exposing them (either a property
    whose body returns the attribute, like ``logical_graphs`` returning
    ``self._logical``, or one sharing the stripped name, like
    ``workers`` for ``self._workers``). Underscore attributes without
    any exposing property are treated as derived/private and skipped.
    """
    is_dc, _ = _is_dataclass_decorated(node)
    if is_dc:
        return _dataclass_fields(node)
    init = next(
        (
            stmt
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
        ),
        None,
    )
    if init is None:
        return []
    properties = _property_names(node)
    exposures = _property_exposures(node)
    fields: List[str] = []
    for sub in ast.walk(init):
        if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
            continue
        targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attr = target.attr
                if not attr.startswith("_"):
                    if attr not in fields:
                        fields.append(attr)
                    continue
                public = exposures.get(attr)
                if public is None and attr.lstrip("_") in properties:
                    public = attr.lstrip("_")
                if public is not None and public not in fields:
                    fields.append(public)
    return fields


def _attribute_reads(func: ast.AST, param: str) -> Set[str]:
    reads: Set[str] = set()
    for sub in ast.walk(func):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == param
        ):
            reads.add(sub.attr)
    return reads


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check_coverage(
    spec: CanonCoverageSpec,
    modules: Dict[str, SourceFile],
    findings: List[Finding],
) -> None:
    canon_src = modules.get(spec.canon_module)
    target_src = modules.get(spec.target_module)
    if canon_src is None or target_src is None:
        return  # partial scan
    func = find_function(canon_src.tree, spec.canon_func)
    if func is None:
        findings.append(
            _drift(
                canon_src,
                f"KEY spec names {spec.canon_func!r}, which no longer "
                f"exists in {spec.canon_module}",
            )
        )
        return
    cls = find_class(target_src.tree, spec.target_class)
    if cls is None:
        findings.append(
            _drift(
                target_src,
                f"KEY spec names class {spec.target_class!r}, which no "
                f"longer exists in {spec.target_module}",
            )
        )
        return
    reads = _attribute_reads(func, spec.param)
    for state_field in class_state_fields(cls):
        if state_field in spec.ignore:
            continue
        accepted = (state_field,) + tuple(spec.covers.get(state_field, ()))
        if not any(name in reads for name in accepted):
            findings.append(
                Finding(
                    rule=KEY_CANON_COVERAGE,
                    path=canon_src.relpath,
                    line=getattr(func, "lineno", 1),
                    message=(
                        f"{spec.canon_func} never reads "
                        f"{spec.param}.{state_field} "
                        f"({spec.target_class}.{state_field}); the "
                        "fingerprint would collide for inputs differing "
                        "only in that field"
                    ),
                )
            )


def _check_parity(
    spec: SignatureParitySpec,
    modules: Dict[str, SourceFile],
    findings: List[Finding],
) -> None:
    fp_src = modules.get(spec.fingerprint_module)
    target_src = modules.get(spec.target_module)
    if fp_src is None or target_src is None:
        return
    fp_func = find_function(fp_src.tree, spec.fingerprint_func)
    if fp_func is None:
        findings.append(
            _drift(
                fp_src,
                f"KEY spec names {spec.fingerprint_func!r}, which no "
                f"longer exists in {spec.fingerprint_module}",
            )
        )
        return
    fp_params = set(arg_names(fp_func))
    for qualname in spec.target_funcs:
        target = find_function(target_src.tree, qualname)
        if target is None:
            findings.append(
                _drift(
                    target_src,
                    f"KEY spec names {qualname!r}, which no longer exists "
                    f"in {spec.target_module}",
                )
            )
            continue
        for param in arg_names(target):
            if param in spec.ignore:
                continue
            mapped = spec.alias.get(param, param)
            if mapped not in fp_params:
                findings.append(
                    Finding(
                        rule=KEY_SIGNATURE_PARITY,
                        path=target_src.relpath,
                        line=getattr(target, "lineno", 1),
                        message=(
                            f"{qualname} parameter {param!r} has no "
                            f"counterpart in {spec.fingerprint_func}; a "
                            "knob the fingerprint ignores makes distinct "
                            "inputs collide in the cache"
                        ),
                    )
                )


def _check_frozen(
    spec: FrozenDataclassSpec,
    modules: Dict[str, SourceFile],
    findings: List[Finding],
) -> None:
    src = modules.get(spec.module)
    if src is None:
        return
    for class_name in spec.classes:
        cls = find_class(src.tree, class_name)
        if cls is None:
            findings.append(
                _drift(
                    src,
                    f"KEY spec names class {class_name!r}, which no longer "
                    f"exists in {spec.module}",
                )
            )
            continue
        is_dc, frozen = _is_dataclass_decorated(cls)
        if not is_dc or not frozen:
            what = "not a dataclass" if not is_dc else "not frozen"
            findings.append(
                Finding(
                    rule=KEY_FROZEN_DATACLASS,
                    path=src.relpath,
                    line=cls.lineno,
                    message=(
                        f"{class_name} is folded into a cache "
                        f"fingerprint but is {what}; it must be "
                        "@dataclass(frozen=True) for field-wise content "
                        "hashing to be faithful"
                    ),
                )
            )


def check_key(
    sources: Sequence[SourceFile], spec: Optional[KeySpec] = None
) -> List[Finding]:
    """Run the KEY rules under ``spec`` (default: this repository's)."""
    spec = spec if spec is not None else DEFAULT_KEY_SPEC
    modules = _by_module(sources)
    findings: List[Finding] = []
    for coverage in spec.coverage:
        _check_coverage(coverage, modules, findings)
    for parity in spec.parity:
        _check_parity(parity, modules, findings)
    for frozen in spec.frozen:
        _check_frozen(frozen, modules, findings)
    return findings
