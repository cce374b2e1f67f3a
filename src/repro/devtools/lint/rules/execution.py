"""EXC001: callables a worker process re-imports must be module-level.

The scheduler ships work to ``ProcessPoolExecutor`` workers and keys the
result cache on a fingerprint of the *module source* that will run.
Lambdas and nested functions break both: they don't pickle, and their code
lives outside any fingerprinted module.  Campaign factories handed to
``register_campaign`` are the same case: workers rebuild the catalogue by
importing it, and a factory that exists only in the registering frame is
missing there.  ``functools.partial`` over a module-level function is fine
— the partial pickles and the target's module is fingerprinted — so the
rule unwraps partials before judging, and judges every argument the
partial binds as well: a lambda captured there pickles no better.

The rule judges the expression written at the sink.  A *name* that
resolves through imports or aliases to a module-level ``name = lambda``
is invisible here; ``tests/integration/test_pickle_safety.py`` pickles
every job, fold and campaign factory the runner can plan instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import FileContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, register
from repro.devtools.lint.summaries import callee_name

#: Call sites whose callable arguments a worker process must re-import:
#: ``<pool>.submit(fn, ...)`` / ``.map(fn, ...)`` and
#: ``register_campaign(factory)`` (first positional argument; workers
#: rebuild the campaign catalogue by importing it) and
#: ``SweepPlan(assemble=...)`` (keyword).
SCHEDULER_SINK_METHODS = {"submit", "map"}
SCHEDULER_SINK_CALLS = {"register_campaign"}
SCHEDULER_SINK_KWARGS = {"SweepPlan": "assemble"}


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


def _unwrap_partial(node: ast.expr) -> tuple[ast.expr, list[ast.expr]]:
    """``functools.partial(fn, *args, **kw)`` -> ``(fn, [*args, *kw values])``."""
    if isinstance(node, ast.Call) and node.args and callee_name(node.func) == "partial":
        return node.args[0], [*node.args[1:], *(kw.value for kw in node.keywords)]
    return node, []


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
        arg, bound = _unwrap_partial(arg)
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
        for value in bound:
            if isinstance(value, ast.Lambda):
                yield ctx.finding(
                    self,
                    value,
                    f"lambda captured in a functools.partial argument handed "
                    f"to {sink}: the partial pickles its bound arguments too, "
                    "and lambdas cannot; bind a module-level function instead",
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
            callee = callee_name(func)
            if callee in SCHEDULER_SINK_CALLS and node.args:
                yield from self._judge(ctx, node.args[0], locals_, f"{callee}()")
            if callee in SCHEDULER_SINK_KWARGS:
                wanted = SCHEDULER_SINK_KWARGS[callee]
                for kw in node.keywords:
                    if kw.arg == wanted:
                        yield from self._judge(
                            ctx, kw.value, locals_, f"{callee}({wanted}=...)"
                        )
