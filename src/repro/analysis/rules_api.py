"""API: cheap hygiene rules applied to the whole tree.

- **API001** — mutable default argument values (list/dict/set literals,
  comprehensions, or ``list()``/``dict()``/``set()`` calls). Defaults
  evaluate once at import; a mutable default is state shared across
  calls, and across threads.
- **API002** — swallowed exceptions: a bare ``except:`` anywhere, or a
  handler whose whole body is ``pass``/``...``. In the simulator and
  search hot paths a silently swallowed error turns a crash into a
  wrong number; at minimum the handler must narrow its type and do
  something (return a fallback, log, re-raise).
"""

from __future__ import annotations

import ast
from typing import List, Sequence

from repro.analysis.ast_utils import SourceFile, import_aliases, resolve_name
from repro.analysis.report import Finding

API_MUTABLE_DEFAULT = "API001"
API_SWALLOWED_EXC = "API002"

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "collections.deque", "deque"}


def _is_mutable_default(node: ast.AST, aliases) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = resolve_name(node.func, aliases)
        return name in _MUTABLE_CALLS
    return False


def _swallows(handler: ast.ExceptHandler) -> bool:
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in handler.body
    )


class _ApiVisitor(ast.NodeVisitor):
    def __init__(self, source: SourceFile, findings: List[Finding]) -> None:
        self.source = source
        self.findings = findings
        self.aliases = import_aliases(source.tree, source.module)

    def _check_defaults(self, node: ast.AST) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default, self.aliases):
                self.findings.append(
                    Finding(
                        rule=API_MUTABLE_DEFAULT,
                        path=self.source.relpath,
                        line=default.lineno,
                        message=(
                            f"{node.name}: mutable default argument is "
                            "shared across calls (and across threads); "
                            "default to None and construct inside"
                        ),
                    )
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.findings.append(
                Finding(
                    rule=API_SWALLOWED_EXC,
                    path=self.source.relpath,
                    line=node.lineno,
                    message=(
                        "bare except: catches SystemExit/KeyboardInterrupt "
                        "and hides real failures; name the exception type"
                    ),
                )
            )
        elif _swallows(node):
            self.findings.append(
                Finding(
                    rule=API_SWALLOWED_EXC,
                    path=self.source.relpath,
                    line=node.lineno,
                    message=(
                        "exception handler silently swallows the error "
                        "(body is pass/...); handle it or let it propagate"
                    ),
                )
            )
        self.generic_visit(node)


def check_api(sources: Sequence[SourceFile]) -> List[Finding]:
    findings: List[Finding] = []
    for source in sources:
        _ApiVisitor(source, findings).visit(source.tree)
    return findings
