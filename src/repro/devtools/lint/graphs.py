"""Whole-program graphs assembled from module summaries.

Three artifacts, all deterministic (sorted construction, no hash-order
leakage, byte-identical JSON dumps under any ``PYTHONHASHSEED``):

* :class:`ProjectIndex` — the cross-module symbol table: which modules
  exist, what each defines, and what every import binding points at.
* :class:`ImportGraph` — module-granularity edges split by scope
  (``module`` vs ``local``/lazy, ``TYPE_CHECKING`` excluded), with cycle
  detection over the executed module-level edges.
* :class:`CallGraph` — best-effort interprocedural edges.  Call chains
  resolve through import aliases, module paths, ``self.``/base-class
  method tables, constructor-typed locals (``x = ClassName(...)``) and
  constructor-typed attributes (``self.x = ClassName(...)``).  A call
  that leaves the project is kept as an *external* call under its
  import-normalized dotted name, a method on an untypeable receiver under
  its name as written — which is exactly what the reachability rules
  match sink patterns against; unresolvable bare names are dropped.

Resolution is deliberately conservative: a missed edge can only cause a
missed finding, never a false one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import Rule
from repro.devtools.lint.summaries import (
    MODULE_SCOPE,
    CallSite,
    FunctionInfo,
    ImportRecord,
    ModuleSummary,
)

__all__ = [
    "FuncKey",
    "CallEdge",
    "ExternalCall",
    "ProjectIndex",
    "ImportGraph",
    "CallGraph",
    "Project",
    "build_graphs",
]

#: A project function is addressed as ``"<module>::<qualname>"``.
FuncKey = str


def func_key(module: str, qualname: str) -> FuncKey:
    return f"{module}::{qualname}"


@dataclass(frozen=True)
class CallEdge:
    """caller --(site)--> callee, both project functions."""

    caller: FuncKey
    callee: FuncKey
    site: CallSite


@dataclass(frozen=True)
class ExternalCall:
    """A call that leaves the project: normalized dotted name + site."""

    caller: FuncKey
    dotted: str
    site: CallSite


class ProjectIndex:
    """Cross-module symbol table over a set of summaries."""

    def __init__(self, summaries: dict[str, ModuleSummary]) -> None:
        self.summaries = summaries
        self.modules = set(summaries)
        #: module -> top-level function names
        self.defs: dict[str, set[str]] = {}
        #: module -> class name -> ClassInfo
        self.classes = {m: s.classes for m, s in summaries.items()}
        for mod, summary in summaries.items():
            self.defs[mod] = {
                f.name
                for f in summary.functions.values()
                if not f.nested and f.class_name is None and f.name != MODULE_SCOPE
            }
        #: module -> binding -> ("module", dotted) | ("symbol", module, name)
        self.bindings: dict[str, dict[str, tuple]] = {}
        for mod, summary in summaries.items():
            table: dict[str, tuple] = {}
            for rec in summary.imports:
                if rec.type_checking:
                    continue
                if rec.name is None:
                    # `import a.b.c` binds `a` (attribute access walks the
                    # full dotted path); `import a.b.c as x` binds `x` to
                    # the deep module directly.
                    root = rec.module.split(".")[0]
                    target = root if rec.binding == root else rec.module
                    table[rec.binding] = ("module", target)
                else:
                    dotted = f"{rec.module}.{rec.name}"
                    if dotted in self.modules:
                        table[rec.binding] = ("module", dotted)
                    else:
                        table[rec.binding] = ("symbol", rec.module, rec.name)
            self.bindings[mod] = table

    # -- lookup helpers ----------------------------------------------------

    def function(self, key: FuncKey) -> FunctionInfo | None:
        mod, _, qual = key.partition("::")
        summary = self.summaries.get(mod)
        if summary is None:
            return None
        return summary.functions.get(qual)

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

    def _resolve_in_module(self, mod: str, rest: tuple[str, ...]) -> FuncKey | None:
        """Resolve ``rest`` (a def / Class / Class.method path) inside ``mod``."""
        if not rest:
            return None
        summary = self.summaries.get(mod)
        if summary is None:
            return None
        head = rest[0]
        if len(rest) == 1:
            if head in self.defs[mod]:
                return func_key(mod, head)
            cls = summary.classes.get(head)
            if cls is not None:
                # constructing the class runs its __init__
                if "__init__" in cls.methods:
                    return func_key(mod, f"{head}.__init__")
                return self._resolve_method_in_bases(mod, cls.name, "__init__")
            alias = summary.aliases.get(head)
            if alias is not None and alias != rest:
                return self.resolve_chain(mod, None, alias)[1]
            return None
        if len(rest) == 2:
            cls = summary.classes.get(head)
            if cls is not None:
                return self.resolve_method(mod, head, rest[1])
        return None

    def resolve_method(self, mod: str, class_name: str, method: str) -> FuncKey | None:
        """``Class.method`` in ``mod``, walking project base classes."""
        summary = self.summaries.get(mod)
        if summary is None:
            return None
        cls = summary.classes.get(class_name)
        if cls is None:
            return None
        if method in cls.methods:
            return func_key(mod, f"{class_name}.{method}")
        return self._resolve_method_in_bases(mod, class_name, method)

    def _resolve_method_in_bases(
        self, mod: str, class_name: str, method: str, _depth: int = 0
    ) -> FuncKey | None:
        if _depth > 8:  # defensive: cyclic base chains in broken code
            return None
        cls = self.summaries[mod].classes.get(class_name)
        if cls is None:
            return None
        for base_chain in cls.bases:
            located = self._locate_class(mod, base_chain)
            if located is None:
                continue
            base_mod, base_name = located
            base_cls = self.summaries[base_mod].classes.get(base_name)
            if base_cls is None:
                continue
            if method in base_cls.methods:
                return func_key(base_mod, f"{base_name}.{method}")
            found = self._resolve_method_in_bases(
                base_mod, base_name, method, _depth + 1
            )
            if found is not None:
                return found
        return None

    def _locate_class(
        self, mod: str, chain: tuple[str, ...]
    ) -> tuple[str, str] | None:
        """Resolve a class-reference chain to (module, class name)."""
        if len(chain) == 1 and chain[0] in self.summaries[mod].classes:
            return (mod, chain[0])
        binding = self.bindings.get(mod, {}).get(chain[0])
        if binding is None:
            return None
        if binding[0] == "symbol":
            _, target_mod, symbol = binding
            if len(chain) == 1 and symbol in self.classes.get(target_mod, {}):
                return (target_mod, symbol)
            return None
        # module binding: rebuild the dotted path, split module / class
        dotted = ".".join((binding[1],) + chain[1:])
        prefix = self.longest_module_prefix(dotted)
        if prefix is None:
            return None
        rest = dotted[len(prefix) + 1 :].split(".") if len(dotted) > len(prefix) else []
        if len(rest) == 1 and rest[0] in self.classes.get(prefix, {}):
            return (prefix, rest[0])
        return None

    # -- the resolver ------------------------------------------------------

    def resolve_chain(
        self, mod: str, fn: FunctionInfo | None, chain: tuple[str, ...]
    ) -> tuple[str, FuncKey | str | None]:
        """Resolve one call chain from function ``fn`` in module ``mod``.

        Returns ``("project", FuncKey)``, ``("external", dotted_name)``,
        or ``("unknown", None)``.
        """
        if not chain:
            return ("unknown", None)
        summary = self.summaries[mod]
        head = chain[0]

        # self.method() / self.attr.method() inside a class body
        if head == "self" and fn is not None and fn.class_name is not None:
            if len(chain) == 2:
                resolved = self.resolve_method(mod, fn.class_name, chain[1])
                if resolved is not None:
                    return ("project", resolved)
                return ("unknown", None)
            if len(chain) == 3:
                cls = summary.classes.get(fn.class_name)
                attr_chain = cls.attr_types.get(chain[1]) if cls else None
                if attr_chain is not None:
                    located = self._locate_class(mod, attr_chain)
                    if located is not None:
                        found = self.resolve_method(located[0], located[1], chain[2])
                        if found is not None:
                            return ("project", found)
                return ("unknown", None)
            return ("unknown", None)

        # x.method() where x = ClassName(...) earlier in the same body
        if fn is not None and head in fn.local_constructs and len(chain) == 2:
            located = self._locate_class(mod, fn.local_constructs[head])
            if located is not None:
                found = self.resolve_method(located[0], located[1], chain[1])
                if found is not None:
                    return ("project", found)
            return ("unknown", None)

        # a name defined in this module
        if head in self.defs[mod] or head in summary.classes:
            found = self._resolve_in_module(mod, chain)
            if found is not None:
                return ("project", found)
            return ("unknown", None)

        # a module-level alias (re-export) in this module
        if head in summary.aliases and len(chain) == 1:
            target = summary.aliases[head]
            if target != chain:
                return self.resolve_chain(mod, None, target)

        binding = self.bindings.get(mod, {}).get(head)
        if binding is None:
            # builtins that matter to the rules stay recognizable
            if len(chain) == 1 and head in _KNOWN_BUILTINS:
                return ("external", head)
            return ("unknown", None)
        if binding[0] == "symbol":
            _, target_mod, symbol = binding
            if target_mod in self.modules:
                found = self._resolve_in_module(
                    target_mod, (symbol,) + chain[1:]
                )
                if found is not None:
                    return ("project", found)
                # fall through: symbol of a project module we couldn't pin
                return ("unknown", None)
            return ("external", ".".join((target_mod, symbol) + chain[1:]))
        # module binding
        dotted = ".".join((binding[1],) + chain[1:])
        prefix = self.longest_module_prefix(dotted)
        if prefix is not None:
            rest = tuple(dotted[len(prefix) + 1 :].split(".")) if len(
                dotted
            ) > len(prefix) else ()
            found = self._resolve_in_module(prefix, rest)
            if found is not None:
                return ("project", found)
            return ("unknown", None)
        return ("external", dotted)


#: single-name builtins the rules care about (blocking / dynamic exec).
_KNOWN_BUILTINS = {"open", "input", "eval", "exec", "compile", "print"}


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


@dataclass
class CallGraph:
    """Resolved interprocedural edges + external calls per function."""

    edges: list[CallEdge] = field(default_factory=list)
    external: list[ExternalCall] = field(default_factory=list)
    #: caller -> edges out of it, in source order
    edges_from: dict[FuncKey, list[CallEdge]] = field(default_factory=dict)
    #: caller -> external calls out of it, in source order
    external_from: dict[FuncKey, list[ExternalCall]] = field(default_factory=dict)

    def finalize(self) -> None:
        edges_from: dict[FuncKey, list[CallEdge]] = {}
        external_from: dict[FuncKey, list[ExternalCall]] = {}
        for edge in self.edges:
            edges_from.setdefault(edge.caller, []).append(edge)
        for call in self.external:
            external_from.setdefault(call.caller, []).append(call)
        self.edges_from = edges_from
        self.external_from = external_from

    def to_dict(self) -> dict:
        return {
            "edges": [
                {
                    "caller": e.caller,
                    "callee": e.callee,
                    "line": e.site.lineno,
                }
                for e in sorted(
                    self.edges, key=lambda e: (e.caller, e.site.lineno, e.callee)
                )
            ],
            "external": [
                {
                    "caller": c.caller,
                    "name": c.dotted,
                    "line": c.site.lineno,
                }
                for c in sorted(
                    self.external, key=lambda c: (c.caller, c.site.lineno, c.dotted)
                )
            ],
        }


def build_graphs(
    summaries: dict[str, ModuleSummary],
) -> tuple[ProjectIndex, ImportGraph, CallGraph]:
    """Assemble the project index, import graph and call graph."""
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

    calls = CallGraph()
    for mod in sorted(summaries):
        summary = summaries[mod]
        for qual in sorted(summary.functions):
            fn = summary.functions[qual]
            caller = func_key(mod, qual)
            for site in fn.calls:
                kind, target = index.resolve_chain(mod, fn, site.chain)
                if kind == "project" and target is not None:
                    calls.edges.append(
                        CallEdge(caller=caller, callee=str(target), site=site)
                    )
                elif kind == "external" and target is not None:
                    calls.external.append(
                        ExternalCall(caller=caller, dotted=str(target), site=site)
                    )
                elif len(site.chain) >= 2:
                    # a method on a receiver the resolver cannot type
                    # (``loop.run_until_complete``, ``sock.recv``): kept,
                    # dotted as written, so rules can suffix-match it.
                    calls.external.append(
                        ExternalCall(
                            caller=caller, dotted=".".join(site.chain), site=site
                        )
                    )
    calls.finalize()
    return index, imports, calls


@dataclass
class Project:
    """The assembled whole-program view the whole-program rules run against."""

    summaries: dict[str, ModuleSummary]
    index: ProjectIndex
    imports: ImportGraph
    calls: CallGraph

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
