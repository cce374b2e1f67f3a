"""EXC001/TNT003: callables a worker process re-imports must be module-level.

The scheduler ships work to ``ProcessPoolExecutor`` workers and keys the
result cache on a fingerprint of the *module source* that will run.
Lambdas and nested functions break both: they don't pickle, and their code
lives outside any fingerprinted module.  Campaign factories handed to
``register_campaign`` are the same case: workers rebuild the catalogue by
importing it, and a factory that exists only in the registering frame is
missing there.  ``functools.partial`` over a module-level function is fine
— the partial pickles and the target's module is fingerprinted — so the
rules unwrap partials before judging.

EXC001 judges the expression written at the sink; TNT003 follows a *name*
handed to the sink through imports, re-exports and module-level aliases
back to its definition, which only the whole-program view can do.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import FileContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.graphs import Project
from repro.devtools.lint.registry import Rule, register
from repro.devtools.lint.summaries import (
    SCHEDULER_SINK_CALLS,
    SCHEDULER_SINK_KWARGS,
    SCHEDULER_SINK_METHODS,
)


def _local_function_names(tree: ast.AST) -> set[str]:
    """Names of functions defined *inside* another function (closures)."""
    local: set[str] = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.depth = 0

        def _visit_func(self, node: ast.AST, name: str | None) -> None:
            if self.depth > 0 and name:
                local.add(name)
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            self._visit_func(node, node.name)

        def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
            self._visit_func(node, node.name)

        def visit_Lambda(self, node: ast.Lambda) -> None:
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

    Visitor().visit(tree)
    return local


def _unwrap_partial(node: ast.expr) -> ast.expr:
    """``functools.partial(fn, ...)`` / ``partial(fn, ...)`` -> ``fn``."""
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "partial":
            return node.args[0]
    return node


@register
class ModuleLevelCallables(Rule):
    """EXC001: no lambdas/closures handed to the exec scheduler or the
    campaign catalogue."""

    code = "EXC001"
    name = "worker-imported callables must be module-level (picklable, fingerprintable)"
    packages = ("repro",)

    def _judge(
        self, ctx: FileContext, arg: ast.expr, locals_: set[str], sink: str
    ) -> Iterator[Finding]:
        arg = _unwrap_partial(arg)
        if isinstance(arg, ast.Lambda):
            yield ctx.finding(
                self,
                arg,
                f"lambda passed to {sink}: lambdas don't pickle across the "
                "process pool, escape the code-fingerprint cache key and "
                "are missing when a worker re-imports the module; define a "
                "module-level function",
            )
        elif isinstance(arg, ast.Name) and arg.id in locals_:
            yield ctx.finding(
                self,
                arg,
                f"nested function `{arg.id}` passed to {sink}: closures "
                "don't pickle across the process pool; lift it to module "
                "level (use functools.partial to bind arguments)",
            )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        locals_ = _local_function_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in SCHEDULER_SINK_METHODS:
                if node.args:
                    yield from self._judge(
                        ctx, node.args[0], locals_, f".{func.attr}()"
                    )
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if callee in SCHEDULER_SINK_CALLS and node.args:
                yield from self._judge(ctx, node.args[0], locals_, f"{callee}()")
            if callee in SCHEDULER_SINK_KWARGS:
                wanted = SCHEDULER_SINK_KWARGS[callee]
                for kw in node.keywords:
                    if kw.arg == wanted:
                        yield from self._judge(
                            ctx, kw.value, locals_, f"{callee}({wanted}=...)"
                        )


@register
class PickleSafety(Rule):
    """TNT003: scheduler callables must resolve to module-level functions.

    EXC001 judges the expression at the call site; this rule resolves
    *references* — through module aliases, re-exports and ``from``-imports
    across files — and flags callables that pickle by qualified name but
    cannot round-trip: module-level ``name = lambda ...`` bindings and
    lambdas captured inside ``functools.partial`` arguments.
    """

    code = "TNT003"
    name = "scheduler callables must resolve picklable through the reference chain"
    whole_program = True

    def _lambda_binding_of(
        self, project: Project, module: str, chain: tuple[str, ...], depth: int = 0
    ) -> tuple[str, str] | None:
        """Follow a reference chain to a module-level lambda binding."""
        if depth > 8 or not chain:
            return None
        summary = project.summaries.get(module)
        if summary is None:
            return None
        head = chain[0]
        if len(chain) == 1:
            if head in summary.lambda_bindings:
                return (module, head)
            alias = summary.aliases.get(head)
            if alias is not None and alias != chain:
                return self._lambda_binding_of(project, module, alias, depth + 1)
        binding = project.index.bindings.get(module, {}).get(head)
        if binding is None:
            return None
        if binding[0] == "symbol":
            _, target_mod, symbol = binding
            if target_mod in project.summaries:
                return self._lambda_binding_of(
                    project, target_mod, (symbol,) + chain[1:], depth + 1
                )
            return None
        dotted = ".".join((binding[1],) + chain[1:])
        prefix = project.index.longest_module_prefix(dotted)
        if prefix is None or len(dotted) == len(prefix):
            return None
        rest = tuple(dotted[len(prefix) + 1 :].split("."))
        return self._lambda_binding_of(project, prefix, rest, depth + 1)

    def check_project(self, project: Project) -> Iterator[Finding]:
        for module in sorted(project.summaries):
            summary = project.summaries[module]
            for ref in summary.callable_refs:
                if ref.kind == "captured_lambda":
                    yield project.finding(
                        self,
                        module,
                        ref.lineno,
                        ref.col,
                        f"lambda captured in a functools.partial argument "
                        f"handed to {ref.sink}: the partial pickles its "
                        "bound arguments too, and lambdas cannot — bind a "
                        "module-level function instead",
                    )
                elif ref.kind == "name":
                    located = self._lambda_binding_of(project, module, ref.chain)
                    if located is not None:
                        target_mod, name = located
                        yield project.finding(
                            self,
                            module,
                            ref.lineno,
                            ref.col,
                            f"`{'.'.join(ref.chain)}` handed to {ref.sink} "
                            f"resolves to the module-level lambda binding "
                            f"`{name}` in {target_mod}: it pickles by "
                            'qualname "<lambda>" and cannot round-trip to '
                            "a worker — def a module-level function",
                        )
