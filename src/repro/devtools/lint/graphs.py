"""The import graph assembled from module summaries.

Two artifacts, both deterministic (sorted construction, no hash-order
leakage, byte-identical JSON dumps under any ``PYTHONHASHSEED``):

* :class:`ProjectIndex` — which modules exist, and which of them an
  import record lands in.
* :class:`ImportGraph` — module-granularity edges split by scope
  (``module`` vs ``local``/lazy, ``TYPE_CHECKING`` excluded), with cycle
  detection over the executed module-level edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule
from repro.devtools.lint.summaries import ImportRecord, ModuleSummary

__all__ = ["ProjectIndex", "ImportGraph", "Project", "build_graphs"]


class ProjectIndex:
    """The set of project modules, and import-record resolution into it."""

    def __init__(self, summaries: dict[str, ModuleSummary]) -> None:
        self.modules = set(summaries)

    def import_target(self, rec: ImportRecord) -> str | None:
        """The project module an import record lands in, if any."""
        return self.longest_module_prefix(
            f"{rec.module}.{rec.name}" if rec.name else rec.module
        )

    def longest_module_prefix(self, dotted: str) -> str | None:
        """The longest known module that is a dotted prefix of ``dotted``."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return None


@dataclass
class ImportGraph:
    """Module-granularity import edges, split by executed scope."""

    #: importer module -> sorted imported project modules (module scope)
    module_scope: dict[str, list[str]] = field(default_factory=dict)
    #: importer module -> sorted imported project modules (lazy/local scope)
    local_scope: dict[str, list[str]] = field(default_factory=dict)

    def cycles(self) -> list[list[str]]:
        """Strongly connected components of size > 1 (executed edges only).

        Tarjan's algorithm, iterative, over sorted adjacency — output
        order is deterministic and each cycle is rotated to start at its
        lexicographically smallest module.
        """
        graph = self.module_scope
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        sccs: list[list[str]] = []

        for root in sorted(graph):
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, pos = work.pop()
                if pos == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                children = graph.get(node, [])
                advanced = False
                for i in range(pos, len(children)):
                    child = children[i]
                    if child not in graph and child not in index:
                        continue
                    if child not in index:
                        work.append((node, i + 1))
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if advanced:
                    continue
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        smallest = min(component)
                        at = component.index(smallest)
                        sccs.append(component[at:] + component[:at])
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return sorted(sccs)

    def to_dict(self) -> dict:
        return {
            "module_scope": {k: list(v) for k, v in sorted(self.module_scope.items())},
            "local_scope": {k: list(v) for k, v in sorted(self.local_scope.items())},
        }


def build_graphs(
    summaries: dict[str, ModuleSummary],
) -> tuple[ProjectIndex, ImportGraph]:
    """Assemble the project index and the import graph."""
    index = ProjectIndex(summaries)
    imports = ImportGraph()
    for mod in sorted(summaries):
        module_targets: set[str] = set()
        local_targets: set[str] = set()
        for rec in summaries[mod].imports:
            if rec.type_checking:
                continue
            target = index.import_target(rec)
            if target is None or target == mod:
                continue
            (module_targets if rec.scope == "module" else local_targets).add(target)
        if module_targets:
            imports.module_scope[mod] = sorted(module_targets)
        if local_targets:
            imports.local_scope[mod] = sorted(local_targets)
    return index, imports


@dataclass
class Project:
    """The assembled whole-program view the whole-program rules run against."""

    summaries: dict[str, ModuleSummary]
    index: ProjectIndex
    imports: ImportGraph

    def finding(
        self, rule: Rule, module: str, lineno: int, col: int, message: str
    ) -> Finding:
        return Finding(
            rule=rule.code,
            message=message,
            path=self.summaries[module].path,
            line=lineno,
            col=col,
        )
