"""LAY001: module-level imports follow the declared layer DAG.

Packages may only import downward; ``repro.devtools`` may import nothing
of the runtime it analyzes; the array kernel may use ``repro.core``'s
shared seams but not the object kernel's internals.  Module-granularity
import cycles over the executed (module-scope, non-``TYPE_CHECKING``)
edges are reported too — a cycle that happens to import today is one
reordering away from an ``ImportError``, and it makes the layer diagram a
lie either way.  Function-scoped lazy imports (the sanctioned
registry/factory idiom) and ``TYPE_CHECKING`` blocks are exempt.
"""

from __future__ import annotations

from typing import Iterator

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.graphs import Project
from repro.devtools.lint.registry import Rule, in_packages, register

__all__ = ["LAYERS"]

#: The declared layer DAG (package -> rank).  A module-level import must
#: target a strictly lower rank (or its own package); function-scoped lazy
#: imports — the sanctioned registry/factory idiom — are exempt, as are
#: ``TYPE_CHECKING`` blocks.  ``repro`` itself (the façade) re-exports
#: downward from the top and is exempt as a source.
LAYERS: dict[str, int] = {
    "repro._version": 0,
    "repro.errors": 0,
    "repro.crypto": 1,
    "repro.sim": 1,
    "repro.perf": 1,
    "repro.net": 2,
    "repro.obs": 2,
    "repro.structured": 2,
    "repro.onion": 3,
    "repro.core": 4,
    "repro.baselines": 5,
    "repro.vector": 5,
    "repro.workloads": 5,
    "repro.attacks": 6,
    "repro.serve": 6,
    "repro.exec": 7,
    "repro.experiments": 8,
    "repro.campaigns": 8,
}

#: devtools may import only these runtime packages (it analyzes the
#: runtime; it must never *be* the runtime).
_DEVTOOLS_ALLOWED = ("repro.devtools", "repro.errors", "repro._version")

#: Fine-grained bans inside an otherwise-allowed layer edge.  The array
#: kernel (repro.vector) may import repro.core's *shared seams* — config,
#: interface, runtime, semantics, discovery, ranking, messages, world,
#: trust_models — but never the object kernel's service internals: both
#: kernels must stay swappable behind ReputationSystem, and a dependency
#: on per-object wiring would quietly fuse them back together.
_FORBIDDEN_INTERNALS: dict[str, tuple[str, ...]] = {
    "repro.vector": (
        "repro.core.system",
        "repro.core.services",
        "repro.core.peer",
        "repro.core.agent",
        "repro.core.agent_list",
        "repro.core.dispatch",
        "repro.core.expertise",
    ),
}


def _package_of(module: str) -> str | None:
    """The declared layering package a module belongs to, if any."""
    if in_packages(module, ("repro.devtools",)):
        return "repro.devtools"
    return max(
        (pkg for pkg in LAYERS if in_packages(module, (pkg,))), key=len, default=None
    )


@register
class LayerDAG(Rule):
    """LAY001: module-level imports must respect the declared layer DAG.

    Also detects module-granularity import cycles over the executed
    (module-scope, non-``TYPE_CHECKING``) edges — a cycle that happens to
    import today is one reordering away from an ``ImportError``, and it
    makes the layer diagram a lie either way.
    """

    code = "LAY001"
    name = "imports follow the declared layer DAG (no upward module-level imports)"
    whole_program = True

    def _import_violation(self, src_module: str, dst_module: str) -> str | None:
        if src_module == "repro" or dst_module == "repro":
            return None  # the façade package re-exports from the top
        src_pkg = _package_of(src_module)
        dst_pkg = _package_of(dst_module)
        if src_pkg == "repro.devtools":
            if dst_pkg == "repro.devtools" or in_packages(
                dst_module, _DEVTOOLS_ALLOWED
            ):
                return None
            return (
                f"devtools must not import runtime code ({dst_module}); "
                "the analyzer cannot depend on what it analyzes"
            )
        if src_pkg is None:
            if not src_module.startswith("repro."):
                return None  # not our tree: nothing declared, nothing owed
            return (
                f"package of {src_module} is not in the declared layering; "
                "add it to repro.devtools.lint.rules.layering.LAYERS"
            )
        banned = _FORBIDDEN_INTERNALS.get(src_pkg)
        if banned and in_packages(dst_module, banned):
            return (
                f"{src_pkg} must not import object-kernel internals "
                f"({dst_module}); depend on the shared seams "
                "(repro.core.semantics/interface/runtime) instead"
            )
        if dst_pkg is None or src_pkg == dst_pkg:
            return None
        if dst_pkg == "repro.devtools":
            return f"runtime code must not import devtools ({dst_module})"
        if LAYERS[dst_pkg] >= LAYERS[src_pkg]:
            return (
                f"{src_pkg} (layer {LAYERS[src_pkg]}) imports {dst_pkg} "
                f"(layer {LAYERS[dst_pkg]}) at module level — an upward "
                "dependency; invert it or make the import function-scoped "
                "(the lazy registry/factory idiom)"
            )
        return None

    def check_project(self, project: Project) -> Iterator[Finding]:
        # executed import lines per module: (lineno, imported project module)
        executed: dict[str, list[tuple[int, str]]] = {}
        for module in sorted(project.summaries):
            lines = executed[module] = []
            for rec in project.summaries[module].imports:
                if rec.scope != "module" or rec.type_checking:
                    continue
                target = project.index.import_target(rec)
                if target is not None and target != module:
                    lines.append((rec.lineno, target))
        # upward module-level imports (one finding per line+target: a
        # `from m import a, b` line yields two records but one violation)
        for module, lines in executed.items():
            for lineno, target in dict.fromkeys(lines):
                message = self._import_violation(module, target)
                if message is not None:
                    yield project.finding(self, module, lineno, 1, message)
        # module-level import cycles, anchored at the import that enters them
        for cycle in project.imports.cycles():
            first, nxt = cycle[0], cycle[1]
            lineno = next(
                (line for line, target in executed[first] if target == nxt), 1
            )
            loop_ = " -> ".join(cycle + [first])
            yield project.finding(
                self,
                first,
                lineno,
                1,
                f"module-level import cycle: {loop_}; break it with a "
                "function-scoped import or by moving the shared piece down "
                "a layer",
            )
