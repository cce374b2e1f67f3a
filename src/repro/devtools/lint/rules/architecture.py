"""ARC001: experiments and examples construct systems via the registry.

``repro.core.registry.build_system`` is the one front door for obtaining a
reputation system (see ``docs/architecture.md``): it keeps the system
*kind* a serializable sweep dimension for ``repro.exec`` job specs and
keeps every entry point exercising the same construction path.  A direct
``HiRepSystem(...)`` / ``PureVotingSystem(...)`` call in an experiment or
example bypasses that layer, so new backends registered by downstream code
never show up there.

Scope: ``repro.experiments`` modules and the ``examples/`` scripts (which
live outside any package, so they reach the linter with ``module=None``
and are recognised by path).  The implementation packages themselves —
``repro.core``, ``repro.baselines`` — and the test suite stay exempt:
somebody has to call the constructors, and that somebody is the registry's
builders plus the equivalence tests that pin registry-vs-direct parity.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.devtools.lint.engine import FileContext
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule, register
from repro.devtools.lint.summaries import callee_name

#: CapWord names ending in ``System`` — the constructor naming convention
#: shared by hiREP and every baseline (HiRepSystem, PureVotingSystem, ...).
_SYSTEM_CLASS_RE = re.compile(r"^[A-Z]\w*System$")


@register
class RegistryConstruction(Rule):
    """ARC001: no direct system constructor calls outside the kernel."""

    code = "ARC001"
    name = "experiments/examples must build systems via build_system()"

    def applies_to(self, module: str | None) -> bool:
        # examples/ scripts are packageless, so they reach the linter with
        # module=None or a bare stem ("quickstart"); path-scoped in
        # check().  Package modules are scoped by prefix here.
        if module is None or "." not in module:
            return True
        return module == "repro.experiments" or module.startswith(
            "repro.experiments."
        )

    def _in_scope(self, ctx: FileContext) -> bool:
        if ctx.module is not None and ctx.module.startswith("repro.experiments"):
            return True
        return ctx.path.startswith("examples/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = callee_name(node.func)
            if _SYSTEM_CLASS_RE.match(name):
                yield ctx.finding(
                    self,
                    node,
                    f"direct {name}(...) construction bypasses the system "
                    f'registry; use build_system("<name>", config, ...) so '
                    "the system kind stays a serializable sweep dimension",
                )
