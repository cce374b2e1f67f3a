"""Reachability over the call graph, reported as concrete call paths.

The walker answers one question: *from this set of entry functions, which
sink call sites are reachable, and through which calls?*  It runs one
multi-source BFS (entries sorted, adjacency in source order), so for
every reachable sink exactly one finding is produced with the
**shortest** entry→sink path — deterministic regardless of how many
entries reach the same sink.  A sink written directly inside an entry is
the depth-0 case: a path with the sink hop alone.

A path is a list of :class:`Hop` objects: each hop is a call site
(``file:line``) plus the function it calls into, ending at the sink call
itself.  Rules turn paths into findings anchored at the sink line, so an
inline ``# lint: allow[...]`` there sanctions every path into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.devtools.lint.graphs import CallGraph, ExternalCall, FuncKey, ProjectIndex
from repro.devtools.lint.summaries import MODULE_SCOPE, CallSite

__all__ = ["Hop", "CallPath", "entry_label", "reachable_paths"]


def entry_label(key: FuncKey) -> str:
    """``module::qualname`` as a dotted name (the module for import-time code)."""
    mod, _, qual = key.partition("::")
    return mod if qual == MODULE_SCOPE else f"{mod}.{qual}"


@dataclass(frozen=True)
class Hop:
    """One step of a call path: a call to ``target`` at ``path:lineno``."""

    target: str  # FuncKey for project hops, dotted name for the sink hop
    path: str  # repo-relative file of the call site
    lineno: int


@dataclass(frozen=True)
class CallPath:
    """An entry function, the hops taken, and the sink call reached."""

    entry: FuncKey
    hops: tuple[Hop, ...]
    sink: ExternalCall

    def render(self) -> str:
        """``entry -> hop -> ... -> sink`` with file:line per hop."""
        parts = [entry_label(self.entry)]
        parts.extend(f"{hop.target} ({hop.path}:{hop.lineno})" for hop in self.hops)
        return " -> ".join(parts)


def reachable_paths(
    index: ProjectIndex,
    calls: CallGraph,
    entries: Iterable[FuncKey],
    sink_match: Callable[[ExternalCall, int], bool],
) -> list[CallPath]:
    """All sink sites reachable from ``entries``, one shortest path each.

    ``sink_match(call, depth)`` classifies an external call made ``depth``
    project calls away from the nearest entry as a sink or not.
    """
    roots = sorted(set(entries))
    parents: dict[FuncKey, tuple[FuncKey, CallSite] | None] = {
        root: None for root in roots
    }
    order: list[FuncKey] = list(roots)
    frontier: list[FuncKey] = list(roots)
    while frontier:
        next_frontier: list[FuncKey] = []
        for node in frontier:
            for edge in calls.edges_from.get(node, ()):
                if edge.callee in parents or index.function(edge.callee) is None:
                    continue
                parents[edge.callee] = (node, edge.site)
                next_frontier.append(edge.callee)
                order.append(edge.callee)
        frontier = next_frontier

    def file_of(key: FuncKey) -> str:
        return index.summaries[key.partition("::")[0]].path

    paths: list[CallPath] = []
    for node in order:
        externals = calls.external_from.get(node)
        if not externals:
            continue
        # walk the BFS parents back to the entry that first reached ``node``
        hops: list[Hop] = []
        entry = node
        while (parent := parents[entry]) is not None:
            caller, site = parent
            hops.append(Hop(target=entry, path=file_of(caller), lineno=site.lineno))
            entry = caller
        hops.reverse()
        for call in externals:
            if sink_match(call, len(hops)):
                sink_hop = Hop(
                    target=call.dotted, path=file_of(node), lineno=call.site.lineno
                )
                paths.append(
                    CallPath(entry=entry, hops=(*hops, sink_hop), sink=call)
                )
    paths.sort(key=lambda p: (p.sink.caller, p.sink.site.lineno, p.sink.dotted))
    return paths
