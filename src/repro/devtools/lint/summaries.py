"""Per-module summaries: the imports one file executes, and where.

A :class:`ModuleSummary` is a flat digest of one module's import
statements — each binding with its scope and ``TYPE_CHECKING`` gating,
relative imports resolved against the module's package.  The import
graph (:mod:`repro.devtools.lint.graphs`) works only on summaries, never
on ASTs; the engine extracts each one from the tree it already parsed for
the per-file rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devtools.lint.engine import FileContext

__all__ = ["ImportRecord", "ModuleSummary", "attr_chain", "callee_name", "extract_summary"]


def attr_chain(node: ast.AST) -> tuple[str, ...]:
    """``a.b.c`` -> ``("a", "b", "c")``; empty if not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def callee_name(func: ast.expr) -> str:
    """The called name: ``f`` for ``f(...)``, ``m`` for ``x.y.m(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@dataclass(frozen=True)
class ImportRecord:
    """One import binding: what name it creates and what it points at.

    ``name`` is ``None`` for ``import m [as b]`` (binding a module) and the
    imported symbol for ``from m import name [as b]``.  ``scope`` is
    ``"module"`` for top-level imports and ``"local"`` for imports inside a
    function (the sanctioned lazy-import idiom); ``type_checking`` marks
    imports under ``if TYPE_CHECKING:`` which never execute.
    """

    module: str
    name: str | None
    binding: str
    lineno: int
    scope: str
    type_checking: bool


@dataclass
class ModuleSummary:
    """Everything the import graph needs to know about one module."""

    module: str
    path: str
    imports: list[ImportRecord] = field(default_factory=list)


class _Extractor(ast.NodeVisitor):
    """One pass over a module AST collecting its import records."""

    def __init__(self, summary: ModuleSummary, package: str) -> None:
        self.summary = summary
        self._package = package
        self._function_depth = 0
        self._type_checking_depth = 0

    def _record(self, node: ast.stmt, module: str, name: str | None, binding: str) -> None:
        self.summary.imports.append(
            ImportRecord(
                module=module,
                name=name,
                binding=binding,
                lineno=node.lineno,
                scope="local" if self._function_depth else "module",
                type_checking=self._type_checking_depth > 0,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            binding = alias.asname or alias.name.split(".")[0]
            self._record(node, alias.name, None, binding)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module
        if node.level:
            # ``from ..x import y`` in package ``a.b.c``: climb level - 1
            # packages, then descend into ``x``.
            parts = self._package.split(".") if self._package else []
            if node.level - 1 >= len(parts):
                return  # climbs above the top-level package: not importable
            base = ".".join(parts[: len(parts) - node.level + 1])
            module = f"{base}.{module}" if module else base
        if module is None:
            return
        for alias in node.names:
            self._record(node, module, alias.name, alias.asname or alias.name)

    def visit_If(self, node: ast.If) -> None:
        # `if TYPE_CHECKING:` / `if typing.TYPE_CHECKING:` bodies never run.
        chain = attr_chain(node.test)
        if chain and chain[-1] == "TYPE_CHECKING":
            self._type_checking_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self._type_checking_depth -= 1
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    def _visit_function(self, node: ast.AST) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function


def extract_summary(ctx: "FileContext") -> ModuleSummary:
    """Digest one parsed, named module into a :class:`ModuleSummary`."""
    assert ctx.module is not None
    summary = ModuleSummary(module=ctx.module, path=ctx.path)
    # relative imports resolve against the package: the module itself for
    # a package's ``__init__``, its parent for any other module
    is_package = ctx.path.endswith("__init__.py")
    package = ctx.module if is_package else ctx.module.rpartition(".")[0]
    _Extractor(summary, package).visit(ctx.tree)
    return summary
