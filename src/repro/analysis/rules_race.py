"""RACE: conservative shared-state checking for the partitioned search.

The process-pool search returns results *bit-identical* to the
sequential DFS. That only holds if worker-executed code shares no
unsynchronised mutable state. These rules build a call graph from the
worker entry points in ``repro.core.parallel`` and walk every function
conservatively reachable from them:

- **RACE001** — assignment to a ``global``-declared name outside a lock.
- **RACE002** — attribute or item writes through an *enclosing-scope*
  name: module-level objects, class objects, and closure captures may
  all be shared between workers. Names bound inside the function
  (locals, including aliases of ``self`` state) and parameters are
  treated as worker-local — the recursive DFS threads its private
  scratch arrays through parameters, and flagging every such write
  would bury the real sharing channels, which are globals and
  closures.
- **RACE003** — mutating-method calls (``append``, ``update``,
  ``add`` …) on such enclosing-scope receivers.
- **RACE004** — lock-discipline audit, applied to *every* class in the
  tree, reachable or not: once a class owns a lock attribute (anything
  lock-like assigned in ``__init__``), every write to its other
  attributes outside ``with <lock>:`` is flagged. Declaring the lock is
  the class's own statement that its state is shared.

``self`` attribute writes in reachable methods are deliberately exempt
from RACE002 (search states are constructed per partition, and flagging
them would bury real findings in hundreds of worker-local writes);
sharing an instance across workers requires handing it through a global
or a parameter, which the other rules see. ``__init__``/``__post_init__``
bodies are exempt everywhere: construction happens-before sharing.

The checker is conservative by design — a finding means "not provably
safe", and the fix is a lock, a worker-local copy, or a reasoned
``# repro: allow[RACE...]`` suppression documenting why the write is
safe (e.g. a pool initializer that runs before any task).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.ast_utils import (
    SourceFile,
    base_name,
    dotted_name,
    mentions_lock,
    write_targets,
)
from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.report import Finding

RACE_GLOBAL_WRITE = "RACE001"
RACE_SHARED_WRITE = "RACE002"
RACE_SHARED_MUTATOR = "RACE003"
RACE_LOCK_DISCIPLINE = "RACE004"
RACE_MISSING_ENTRY = "RACE000"

#: Worker-executed entry points of the partitioned search.
DEFAULT_RACE_ENTRIES: Tuple[Tuple[str, str], ...] = (
    ("repro.core.parallel", "run_seed_partition"),
    ("repro.core.parallel", "SeedBeacon.report"),
    ("repro.core.parallel", "SeedBeacon.best"),
    ("repro.core.parallel", "_SeedCancel.is_set"),
    ("repro.core.parallel", "_init_worker"),
    ("repro.core.parallel", "_run_partition"),
    ("repro.core.parallel", "_ProcessBeacon.report"),
    ("repro.core.parallel", "_ProcessBeacon.best"),
)

_MUTATOR_METHODS = {
    "append",
    "add",
    "update",
    "extend",
    "insert",
    "remove",
    "discard",
    "pop",
    "popitem",
    "clear",
    "setdefault",
    "sort",
    "reverse",
    "move_to_end",
    "appendleft",
    "popleft",
    "__setitem__",
}

_CONSTRUCTOR_NAMES = {"__init__", "__post_init__", "__new__"}


def _function_simple_name(info: FunctionInfo) -> str:
    return info.name


class _RaceVisitor(ast.NodeVisitor):
    """Walk one reachable function body, skipping nested defs."""

    def __init__(self, info: FunctionInfo, findings: List[Finding]) -> None:
        self.info = info
        self.findings = findings
        self.lock_depth = 0
        node = info.node
        self.params: Set[str] = {a.arg for a in node.args.args}
        self.params.update(a.arg for a in node.args.posonlyargs)
        self.params.update(a.arg for a in node.args.kwonlyargs)
        if node.args.vararg:
            self.params.add(node.args.vararg.arg)
        if node.args.kwarg:
            self.params.add(node.args.kwarg.arg)
        self.global_decls: Set[str] = set()
        self.nonlocal_decls: Set[str] = set()
        self.bound_names: Set[str] = set()
        self.in_constructor = _function_simple_name(info) in _CONSTRUCTOR_NAMES
        self._prescan(node)

    def _prescan(self, node: ast.AST) -> None:
        """Collect global/nonlocal declarations and locally bound names.

        Any name the function itself binds (assignment, for-target,
        with-as, comprehension variable) is a *local* and treated as
        worker-private; ``global``/``nonlocal`` declarations override
        that, re-exposing the binding as shared.
        """
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                self.global_decls.update(sub.names)
            elif isinstance(sub, ast.Nonlocal):
                self.nonlocal_decls.update(sub.names)
            elif isinstance(sub, ast.Name) and isinstance(
                sub.ctx, ast.Store
            ):
                self.bound_names.add(sub.id)
        self.bound_names -= self.global_decls
        self.bound_names -= self.nonlocal_decls

    # ------------------------------------------------------------------
    def run(self) -> None:
        for stmt in self.info.node.body:
            self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested defs are separate call-graph nodes

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def visit_With(self, node: ast.With) -> None:
        locked = any(mentions_lock(item.context_expr) for item in node.items)
        if locked:
            self.lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if locked:
            self.lock_depth -= 1

    visit_AsyncWith = visit_With

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_write(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_write(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            not self.in_constructor
            and self.lock_depth == 0
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
        ):
            root = base_name(node.func.value)
            if root is not None and not self._is_private(root):
                self._report(
                    RACE_SHARED_MUTATOR,
                    node,
                    f"mutating call {root}.…{node.func.attr}() on an "
                    "enclosing-scope object (module global or closure "
                    "capture) without a lock",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    def _is_private(self, root: str) -> bool:
        """Names whose attribute/item writes are considered worker-local.

        Everything the function binds or receives is private; only
        names resolved from an enclosing scope (module globals, class
        objects, closure captures) are shared.
        """
        if root in ("self", "cls"):
            return True
        if root in self.global_decls or root in self.nonlocal_decls:
            return False
        return root in self.bound_names or root in self.params

    def _check_write(self, stmt: ast.AST) -> None:
        if self.lock_depth > 0 or self.in_constructor:
            return
        for target in write_targets(stmt):
            self._check_target(target, stmt)

    def _check_target(self, target: ast.AST, stmt: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element, stmt)
            return
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self._report(
                    RACE_GLOBAL_WRITE,
                    stmt,
                    f"write to module global {target.id!r} from "
                    "worker-reachable code without a lock",
                )
            elif target.id in self.nonlocal_decls:
                self._report(
                    RACE_GLOBAL_WRITE,
                    stmt,
                    f"write to closure variable {target.id!r} from "
                    "worker-reachable code without a lock",
                )
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = base_name(target)
            if root is None or self._is_private(root):
                return
            kind = "attribute" if isinstance(target, ast.Attribute) else "item"
            self._report(
                RACE_SHARED_WRITE,
                stmt,
                f"{kind} write through enclosing-scope name {root!r} "
                "(module global, class object, or closure capture) "
                "without a lock",
            )

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.info.source.relpath,
                line=getattr(node, "lineno", 0),
                message=f"{self.info.qualname}: {message}",
            )
        )


# ----------------------------------------------------------------------
# RACE004: lock-discipline audit of lock-bearing classes
# ----------------------------------------------------------------------
_LOCK_CONSTRUCTORS = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
}


def _constructs_lock(value: ast.AST) -> bool:
    """True for ``threading.Lock()``-style constructor calls."""
    if not isinstance(value, ast.Call):
        return False
    name = dotted_name(value.func)
    return name is not None and name.split(".")[-1] in _LOCK_CONSTRUCTORS


def _lock_attrs(init: ast.AST) -> Set[str]:
    """Attributes of ``self`` assigned a lock construction in __init__."""
    attrs: Set[str] = set()
    for sub in ast.walk(init):
        if isinstance(sub, ast.Assign) and _constructs_lock(sub.value):
            for target in sub.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
    return attrs


class _LockDisciplineVisitor(ast.NodeVisitor):
    def __init__(
        self,
        source: SourceFile,
        class_name: str,
        method: ast.AST,
        lock_attrs: Set[str],
        findings: List[Finding],
    ) -> None:
        self.source = source
        self.class_name = class_name
        self.method = method
        self.lock_attrs = lock_attrs
        self.findings = findings
        self.lock_depth = 0

    def run(self) -> None:
        for stmt in self.method.body:
            self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def visit_With(self, node: ast.With) -> None:
        locked = any(mentions_lock(item.context_expr) for item in node.items)
        if locked:
            self.lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if locked:
            self.lock_depth -= 1

    visit_AsyncWith = visit_With

    def _self_state_target(self, node: ast.AST) -> Optional[str]:
        """Attribute name when ``node`` writes self state (not the lock)."""
        target = node
        if isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr not in self.lock_attrs
        ):
            return target.attr
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check(node.target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self.lock_depth == 0
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
        ):
            attr = self._self_state_target(node.func.value)
            if attr is not None:
                self._report(node, attr, f"mutating call on self.{attr}")
        self.generic_visit(node)

    def _check(self, target: ast.AST, stmt: ast.AST) -> None:
        if self.lock_depth > 0:
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check(element, stmt)
            return
        attr = self._self_state_target(target)
        if attr is not None:
            self._report(stmt, attr, f"write to self.{attr}")

    def _report(self, node: ast.AST, attr: str, what: str) -> None:
        method_name = getattr(self.method, "name", "?")
        self.findings.append(
            Finding(
                rule=RACE_LOCK_DISCIPLINE,
                path=self.source.relpath,
                line=getattr(node, "lineno", 0),
                message=(
                    f"{self.class_name}.{method_name}: {what} outside "
                    f"the class's own lock; {self.class_name} declares a "
                    "lock, so all its state belongs under it"
                ),
            )
        )


def _check_lock_discipline(
    sources: Sequence[SourceFile], findings: List[Finding]
) -> None:
    for source in sources:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            init = next(
                (
                    item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            lock_attrs = _lock_attrs(init)
            if not lock_attrs:
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name not in _CONSTRUCTOR_NAMES
                ):
                    _LockDisciplineVisitor(
                        source, node.name, item, lock_attrs, findings
                    ).run()


def check_race(
    sources: Sequence[SourceFile],
    entries: Optional[Iterable[Tuple[str, str]]] = None,
) -> List[Finding]:
    """Run the RACE rules.

    RACE001-003 apply to the call-graph closure of ``entries`` (default:
    the repository's parallel-search worker entry points); RACE004
    applies to every lock-bearing class in the given sources.
    """
    findings: List[Finding] = []
    graph = CallGraph(sources)
    entry_spec = tuple(entries) if entries is not None else DEFAULT_RACE_ENTRIES
    found, missing = graph.resolve_entries(entry_spec)
    for module, qualname in missing:
        info_source = next(s for s in sources if s.module == module)
        findings.append(
            Finding(
                rule=RACE_MISSING_ENTRY,
                path=info_source.relpath,
                line=1,
                message=(
                    f"configured worker entry point {qualname!r} no longer "
                    f"exists in {module}; update "
                    "repro.analysis.rules_race.DEFAULT_RACE_ENTRIES"
                ),
            )
        )
    for info in graph.reachable_from(found):
        _RaceVisitor(info, findings).run()
    _check_lock_discipline(sources, findings)
    return findings
