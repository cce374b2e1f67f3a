"""Per-module summaries: everything the project analysis needs from one file.

A :class:`ModuleSummary` is a flat digest of one module's AST — imports
(with scope and ``TYPE_CHECKING`` gating), function definitions with their
outgoing call sites, class definitions with their method tables and
``self.<attr> = ClassName(...)`` attribute types, and the callables handed
to scheduler sinks.  The whole-program passes
(:mod:`repro.devtools.lint.graphs`) work only on summaries, never on ASTs;
the engine extracts each one from the tree it already parsed for the
per-file rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devtools.lint.engine import FileContext

__all__ = [
    "CallSite",
    "CallableRef",
    "ImportRecord",
    "FunctionInfo",
    "ClassInfo",
    "ModuleSummary",
    "extract_summary",
    "MODULE_SCOPE",
    "SCHEDULER_SINK_METHODS",
    "SCHEDULER_SINK_KWARGS",
]

#: Pseudo-qualname holding module-level call sites (import-time execution).
MODULE_SCOPE = "<module>"

#: Call sites whose callable arguments end up pickled or fingerprinted by
#: the ``repro.exec`` scheduler: ``<pool>.submit(fn, ...)`` / ``.map(fn,
#: ...)`` (first positional argument) and ``SweepPlan(assemble=...)``
#: (keyword).  EXC001 judges the expression at these sites, TNT003 the
#: references recorded from them.
SCHEDULER_SINK_METHODS = {"submit", "map"}
SCHEDULER_SINK_KWARGS = {"SweepPlan": "assemble"}


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


@dataclass(frozen=True)
class CallSite:
    """One call expression: who is (syntactically) being called, and where."""

    chain: tuple[str, ...]
    lineno: int
    col: int
    awaited: bool


@dataclass(frozen=True)
class CallableRef:
    """A callable reference handed to a scheduler sink (pickle boundary).

    ``kind`` is ``"lambda"`` (a literal lambda handed straight to the
    sink — EXC001's per-file ground), ``"captured_lambda"`` (a lambda
    bound *inside* a ``functools.partial`` argument, which EXC001 cannot
    see), ``"name"`` (a dotted reference to resolve through the project
    index), or ``"other"`` (an expression the analysis cannot judge —
    given the benefit of the doubt).
    """

    sink: str
    kind: str
    chain: tuple[str, ...]
    lineno: int
    col: int


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
class FunctionInfo:
    """One function/method body: identity plus outgoing call sites."""

    qualname: str
    name: str
    is_async: bool
    nested: bool
    class_name: str | None
    calls: list[CallSite] = field(default_factory=list)
    #: function-local ``x = ClassName(...)`` assignments, for best-effort
    #: method resolution of ``x.method()`` later in the body.
    local_constructs: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class: bases, method table, and constructor-typed attributes."""

    name: str
    bases: list[tuple[str, ...]] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    #: ``self.attr = ClassName(...)`` seen in any method — a best-effort
    #: attribute type table for resolving ``self.attr.method()``.
    attr_types: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the whole-program passes need to know about one module."""

    module: str
    path: str
    imports: list[ImportRecord] = field(default_factory=list)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level ``name = lambda ...`` bindings (unpicklable by name).
    lambda_bindings: set[str] = field(default_factory=set)
    #: module-level ``name = other.thing`` aliases (re-exports to follow).
    aliases: dict[str, tuple[str, ...]] = field(default_factory=dict)
    callable_refs: list[CallableRef] = field(default_factory=list)


class _Extractor(ast.NodeVisitor):
    """One pass over a module AST filling a :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary) -> None:
        self.summary = summary
        self._func_stack: list[FunctionInfo] = []
        self._class_stack: list[ClassInfo] = []
        self._type_checking_depth = 0
        self._awaited: set[int] = set()
        module_fn = FunctionInfo(
            qualname=MODULE_SCOPE,
            name=MODULE_SCOPE,
            is_async=False,
            nested=False,
            class_name=None,
        )
        summary.functions[MODULE_SCOPE] = module_fn
        self._module_fn = module_fn

    # -- helpers -----------------------------------------------------------

    def _current_fn(self) -> FunctionInfo:
        return self._func_stack[-1] if self._func_stack else self._module_fn

    def _qualname(self, name: str) -> str:
        parts: list[str] = []
        if self._class_stack:
            parts.append(self._class_stack[-1].name)
        if self._func_stack:
            # nested defs: qualify under the innermost enclosing function
            parts = [self._func_stack[-1].qualname, "<locals>"]
        parts.append(name)
        return ".".join(parts)

    # -- imports -----------------------------------------------------------

    def _import_scope(self) -> str:
        return "local" if self._func_stack else "module"

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.summary.imports.append(
                ImportRecord(
                    module=alias.name,
                    name=None,
                    binding=alias.asname or alias.name.split(".")[0],
                    lineno=node.lineno,
                    scope=self._import_scope(),
                    type_checking=self._type_checking_depth > 0,
                )
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            # relative imports stay unresolved: the tree uses absolute
            # imports throughout (enforced by ruff), so don't guess.
            return
        for alias in node.names:
            self.summary.imports.append(
                ImportRecord(
                    module=node.module,
                    name=alias.name,
                    binding=alias.asname or alias.name,
                    lineno=node.lineno,
                    scope=self._import_scope(),
                    type_checking=self._type_checking_depth > 0,
                )
            )

    def visit_If(self, node: ast.If) -> None:
        # `if TYPE_CHECKING:` / `if typing.TYPE_CHECKING:` bodies never run.
        test = node.test
        chain = attr_chain(test) if isinstance(test, (ast.Name, ast.Attribute)) else ()
        if chain and chain[-1] == "TYPE_CHECKING":
            self._type_checking_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self._type_checking_depth -= 1
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    # -- definitions -------------------------------------------------------

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        in_class = bool(self._class_stack) and not self._func_stack
        info = FunctionInfo(
            qualname=self._qualname(node.name),
            name=node.name,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            nested=bool(self._func_stack),
            class_name=self._class_stack[-1].name if in_class else None,
        )
        self.summary.functions[info.qualname] = info
        if in_class:
            self._class_stack[-1].methods.append(node.name)
        self._func_stack.append(info)
        for stmt in node.body:
            self.visit(stmt)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name)
        for base in node.bases:
            chain = attr_chain(base)
            if chain:
                info.bases.append(chain)
        self.summary.classes[node.name] = info
        self._class_stack.append(info)
        for stmt in node.body:
            self.visit(stmt)
        self._class_stack.pop()

    # -- statements & expressions -----------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
            if isinstance(target, ast.Name):
                if not self._func_stack and not self._class_stack:
                    # module level: lambda bindings + simple aliases
                    if isinstance(value, ast.Lambda):
                        self.summary.lambda_bindings.add(target.id)
                    else:
                        chain = attr_chain(value)
                        if chain:
                            self.summary.aliases[target.id] = chain
                elif self._func_stack and isinstance(value, ast.Call):
                    chain = attr_chain(value.func)
                    if chain:
                        self._current_fn().local_constructs.setdefault(
                            target.id, chain
                        )
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self._class_stack
                and isinstance(value, ast.Call)
            ):
                chain = attr_chain(value.func)
                if chain:
                    self._class_stack[-1].attr_types.setdefault(target.attr, chain)
        self.generic_visit(node)

    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self._awaited.add(id(node.value))
        self.generic_visit(node)

    def _record_callable_refs(self, node: ast.Call) -> None:
        """Collect callables flowing into scheduler sinks at this call."""
        func = node.func
        sink = None
        args: list[ast.expr] = []
        if isinstance(func, ast.Attribute) and func.attr in SCHEDULER_SINK_METHODS:
            if node.args:
                sink = f".{func.attr}()"
                args = [node.args[0]]
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if callee in SCHEDULER_SINK_KWARGS:
            wanted = SCHEDULER_SINK_KWARGS[callee]
            for kw in node.keywords:
                if kw.arg == wanted:
                    sink = f"{callee}({wanted}=...)"
                    args = [kw.value]
        if sink is None:
            return
        for arg in args:
            for ref in self._judge_callable(arg, sink):
                self.summary.callable_refs.append(ref)

    def _judge_callable(self, arg: ast.expr, sink: str) -> list[CallableRef]:
        def ref(kind: str, chain: tuple[str, ...], node: ast.expr) -> CallableRef:
            return CallableRef(
                sink=sink,
                kind=kind,
                chain=chain,
                lineno=node.lineno,
                col=node.col_offset + 1,
            )

        # functools.partial(fn, ...): judge fn AND every bound argument —
        # a lambda captured in a partial is just as unpicklable as the
        # partial's target.
        if isinstance(arg, ast.Call):
            chain = attr_chain(arg.func)
            if chain and chain[-1] == "partial" and arg.args:
                out: list[CallableRef] = []
                out.extend(self._judge_callable(arg.args[0], sink))
                for bound in list(arg.args[1:]) + [kw.value for kw in arg.keywords]:
                    if isinstance(bound, ast.Lambda):
                        out.append(ref("captured_lambda", (), bound))
                return out
            return [ref("other", (), arg)]
        if isinstance(arg, ast.Lambda):
            return [ref("lambda", (), arg)]
        chain = attr_chain(arg)
        if chain:
            return [ref("name", chain, arg)]
        return [ref("other", (), arg)]

    def visit_Call(self, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        if chain:
            self._current_fn().calls.append(
                CallSite(
                    chain=chain,
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                    awaited=id(node) in self._awaited,
                )
            )
        self._record_callable_refs(node)
        self.generic_visit(node)


def extract_summary(ctx: "FileContext") -> ModuleSummary:
    """Digest one parsed, named module into a :class:`ModuleSummary`."""
    assert ctx.module is not None
    summary = ModuleSummary(module=ctx.module, path=ctx.path)
    _Extractor(summary).visit(ctx.tree)
    return summary
