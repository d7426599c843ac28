"""DET: determinism lint over simulation-reachable code.

The repository's correctness story rests on the simulator being a pure
function of its inputs: the plan-evaluation cache, the CAPS/sequential
equivalence suites, and repeated-run sweeps all assume bit-identical
re-runs. These rules flag the classic ways Python code silently loses
that property, in every module reachable (by import) from the
``repro.simulator`` and ``repro.core`` roots:

- **DET001** — global/unseeded RNG use: module-level ``random.*``
  functions and legacy ``numpy.random.*`` calls share hidden global
  state; only explicitly seeded generators (``random.Random(seed)``,
  ``numpy.random.default_rng(seed)``) keep runs reproducible.
- **DET002** — wall-clock reads (``time.time``, ``time.monotonic``,
  ``time.perf_counter``, ``datetime.now`` …). Telemetry and
  user-requested timeouts are legitimate, but they must go through the
  *sanctioned clock accessors* of :mod:`repro.observability.clock`: the
  modules named in :data:`SANCTIONED_CLOCK_MODULES` are the only
  simulation-reachable code allowed to touch the raw clock (the rule
  skips them), and calls resolving to their accessors are not clock
  calls, so call sites need no waivers. A raw, unannotated clock read
  anywhere else in simulation-reachable code is a determinism hazard;
  a reasoned ``# repro: allow[DET002]`` remains the escape hatch for
  sites that genuinely cannot use the accessor.
- **DET003** — iteration over ``set``/``frozenset`` expressions. With
  string hash randomisation, set order changes across *processes*, so
  any plan or cost decision fed by set iteration diverges between the
  sequential search and its process-pool partitions. Wrap in
  ``sorted()``.
  Order-insensitive reductions (``len``, ``sum``, ``min``, ``max``,
  ``any``, ``all``, set algebra) stay quiet.
- **DET004** — ``==``/``!=`` against a non-integral float literal in a
  comparison. Exact equality on computed floats (``x == 0.9``) makes
  decisions flip with benign reorderings; compare against exact
  sentinels (0.0, 1.0) or use a tolerance.
"""

from __future__ import annotations

import ast
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.ast_utils import SourceFile, import_aliases, resolve_name
from repro.analysis.callgraph import reachable_modules
from repro.analysis.report import Finding

DET_RANDOM = "DET001"
DET_CLOCK = "DET002"
DET_SET_ITER = "DET003"
DET_FLOAT_EQ = "DET004"

#: Module prefixes whose import closure is the determinism-critical code.
DEFAULT_DET_ROOTS = ("repro.simulator", "repro.core")

#: Modules allowed to read the raw wall clock: the audited telemetry
#: accessors every other module must go through. DET002 is skipped
#: inside these modules; everywhere else a clock read through them
#: resolves to ``repro.observability.clock.*`` (not a raw clock call)
#: and is clean by construction.
SANCTIONED_CLOCK_MODULES = ("repro.observability.clock",)

#: ``random`` attributes that do *not* touch the hidden global generator.
_SEEDED_RANDOM_OK = {
    "random.Random",
    "random.SystemRandom",
}

#: ``numpy.random`` attributes that construct explicit generators.
_SEEDED_NUMPY_OK = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.RandomState",
    "numpy.random.PCG64",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.BitGenerator",
}

_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: Builtins whose result does not depend on iteration order.
_ORDER_INSENSITIVE = {
    "len",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "sorted",
    "set",
    "frozenset",
}


def _is_set_expr(node: ast.AST, aliases: Dict[str, str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = resolve_name(node.func, aliases)
        if name in ("set", "frozenset"):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, aliases) or _is_set_expr(
            node.right, aliases
        )
    return False


def _nonintegral_float(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and math.isfinite(node.value)
        and node.value != int(node.value)
    )


class _DetVisitor(ast.NodeVisitor):
    def __init__(
        self,
        source: SourceFile,
        findings: List[Finding],
        allow_clock: bool = False,
    ) -> None:
        self.source = source
        self.findings = findings
        self.allow_clock = allow_clock
        self.aliases = import_aliases(source.tree, source.module)

    # -- DET001 / DET002 -----------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = resolve_name(node.func, self.aliases)
        if name is not None:
            if (
                name.startswith("random.")
                and name not in _SEEDED_RANDOM_OK
                and name.count(".") == 1
            ):
                self._report(
                    DET_RANDOM,
                    node,
                    f"call to {name}() uses the hidden module-global RNG; "
                    "use an explicitly seeded random.Random(seed)",
                )
            elif (
                name.startswith("numpy.random.")
                and name not in _SEEDED_NUMPY_OK
            ):
                self._report(
                    DET_RANDOM,
                    node,
                    f"call to {name}() uses numpy's legacy global RNG; "
                    "use numpy.random.default_rng(seed)",
                )
            elif name in _CLOCK_CALLS and not self.allow_clock:
                self._report(
                    DET_CLOCK,
                    node,
                    f"wall-clock read {name}() in simulation-reachable "
                    "code; results must not depend on real time "
                    "(telemetry and timeouts go through the sanctioned "
                    "repro.observability.clock accessors)",
                )
            elif (
                name in ("list", "tuple", "enumerate")
                and node.args
                and _is_set_expr(node.args[0], self.aliases)
            ):
                self._report(
                    DET_SET_ITER,
                    node,
                    f"{name}() materialises a set in hash order; wrap the "
                    "set in sorted() to fix the order",
                )
        self.generic_visit(node)

    # -- DET003 --------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_iter(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node, self.aliases):
            self._report(
                DET_SET_ITER,
                iter_node,
                "iteration over a set runs in hash order, which differs "
                "across processes; iterate over sorted(...) instead",
            )

    # -- DET004 --------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        comparands = [node.left] + list(node.comparators)
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                any(_nonintegral_float(c) for c in comparands)
            ):
                self._report(
                    DET_FLOAT_EQ,
                    node,
                    "exact ==/!= against a non-integral float literal; "
                    "benign reordering flips the decision — use a "
                    "tolerance (math.isclose) or an exact sentinel",
                )
                break
        self.generic_visit(node)

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.source.relpath,
                line=getattr(node, "lineno", 0),
                message=message,
            )
        )


def check_det(
    sources: Sequence[SourceFile],
    roots: Optional[Iterable[str]] = None,
    clock_modules: Iterable[str] = SANCTIONED_CLOCK_MODULES,
) -> List[Finding]:
    """Run the DET rules over modules import-reachable from ``roots``.

    With ``roots=None`` every given source is in scope (fixture mode).
    ``clock_modules`` names the sanctioned clock-accessor modules whose
    raw clock reads are exempt from DET002 (parameterised so fixture
    tests can exercise the carve-out).
    """
    if roots is None:
        scope: Set[str] = {s.module for s in sources}
    else:
        scope = reachable_modules(sources, roots)
    sanctioned = set(clock_modules)
    findings: List[Finding] = []
    for source in sources:
        if source.module not in scope:
            continue
        _DetVisitor(
            source, findings, allow_clock=source.module in sanctioned
        ).visit(source.tree)
    return findings
