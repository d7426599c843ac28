"""Shared AST plumbing for the static-analysis pass.

Responsibilities:

- loading source files into :class:`SourceFile` records (path, dotted
  module name, parsed tree, inline suppressions);
- extracting ``# repro: allow[RULE] reason`` suppression comments;
- resolving dotted call names through a module's import aliases, so
  ``import numpy as np; np.random.rand()`` is recognised as
  ``numpy.random.rand`` and ``from time import monotonic as mono;
  mono()`` as ``time.monotonic``.

Everything here is pure-stdlib ``ast``; the analyzer never imports the
code under inspection.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_\s,]+)\]\s*(.*?)\s*$"
)


@dataclass
class Suppression:
    """One inline ``# repro: allow[...]`` comment."""

    path: str
    line: int
    rules: Tuple[str, ...]
    reason: str
    used: bool = False


@dataclass
class SourceFile:
    """A parsed source file plus its analysis metadata."""

    path: Path
    relpath: str
    module: str
    text: str
    tree: ast.Module
    suppressions: List[Suppression] = field(default_factory=list)


def extract_suppressions(relpath: str, text: str) -> List[Suppression]:
    """Parse ``# repro: allow[...]`` comments via the tokenizer.

    Only genuine COMMENT tokens count — the same text inside a
    docstring (e.g. documentation *about* the convention) is not a
    suppression.
    """
    found: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return found
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        found.append(
            Suppression(
                path=relpath,
                line=token.start[0],
                rules=rules,
                reason=match.group(2).strip(),
            )
        )
    return found


def load_source(path: Path, module: str, relpath: Optional[str] = None) -> SourceFile:
    """Parse one file into a :class:`SourceFile`."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    rel = relpath if relpath is not None else str(path)
    return SourceFile(
        path=path,
        relpath=rel,
        module=module,
        text=text,
        tree=ast.parse(text, filename=str(path)),
        suppressions=extract_suppressions(rel, text),
    )


def load_package(package_root: Path) -> List[SourceFile]:
    """Load every ``.py`` file under a package directory.

    Module names are derived from the directory layout, rooted at the
    package's own name (``<root>/core/search.py`` of a root named
    ``repro`` becomes ``repro.core.search``; ``__init__.py`` files name
    the package itself). Relpaths are reported relative to the package
    root's parent so they match the editor-visible layout.
    """
    package_root = Path(package_root).resolve()
    base = package_root.parent
    sources: List[SourceFile] = []
    for path in sorted(package_root.rglob("*.py")):
        rel_parts = path.relative_to(package_root).with_suffix("").parts
        if rel_parts[-1] == "__init__":
            rel_parts = rel_parts[:-1]
        module = ".".join((package_root.name,) + rel_parts)
        sources.append(
            load_source(path, module, relpath=str(path.relative_to(base)))
        )
    return sources


# ----------------------------------------------------------------------
# Name resolution
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for pure Name/Attribute chains, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def _relative_base(module: str, level: int) -> str:
    """Package a level-``level`` relative import resolves against."""
    parts = module.split(".")
    # ``from . import x`` inside module pkg.mod resolves against pkg.
    keep = max(0, len(parts) - level)
    return ".".join(parts[:keep])


def import_aliases(tree: ast.Module, module: str = "") -> Dict[str, str]:
    """Map each locally bound import name to its full dotted origin.

    - ``import random``            -> {"random": "random"}
    - ``import numpy as np``       -> {"np": "numpy"}
    - ``import a.b``               -> {"a": "a"}  (binds the top package)
    - ``from time import time``    -> {"time": "time.time"}
    - ``from x import y as z``     -> {"z": "x.y"}
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix = _relative_base(module, node.level)
                base = f"{prefix}.{base}" if base and prefix else (prefix or base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{base}.{alias.name}" if base else alias.name
    return aliases


def resolve_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted name of an expression with its head import-resolved."""
    raw = dotted_name(node)
    if raw is None:
        return None
    head, sep, rest = raw.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return raw
    return f"{origin}.{rest}" if sep else origin


def base_name(node: ast.AST) -> Optional[str]:
    """Root Name of an Attribute/Subscript access chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def iter_function_defs(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.AST]]:
    """Yield (qualname, node) for every function/method, including nested.

    Qualnames join enclosing class and function names with dots:
    ``SeedBeacon.report``, ``outer.inner``.
    """

    def walk(node: ast.AST, stack: Tuple[str, ...]) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join(stack + (child.name,))
                yield qual, child
                yield from walk(child, stack + (child.name,))
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, stack + (child.name,))
            else:
                yield from walk(child, stack)

    yield from walk(tree, ())


def find_function(
    tree: ast.Module, qualname: str
) -> Optional[ast.AST]:
    for qual, node in iter_function_defs(tree):
        if qual == qualname:
            return node
    return None


def find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def arg_names(node: ast.AST) -> List[str]:
    """Positional, keyword-only, and pos-only parameter names, in order."""
    args = node.args
    names = [a.arg for a in args.posonlyargs]
    names += [a.arg for a in args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def mentions_lock(node: ast.AST) -> bool:
    """Heuristic: does an expression reference something lock-like?

    Matches any Name or attribute component containing "lock" or
    "condition" (case-insensitive): ``self._lock``, ``threading.Lock()``,
    ``value.get_lock()``, ``cv`` does not match.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _lockish(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _lockish(sub.attr):
            return True
    return False


def _lockish(identifier: str) -> bool:
    lowered = identifier.lower()
    return "lock" in lowered or "condition" in lowered


def write_targets(stmt: ast.AST) -> Sequence[ast.AST]:
    """Assignment targets of a statement, if it writes anything."""
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target] if getattr(stmt, "value", True) is not None else []
    return []
