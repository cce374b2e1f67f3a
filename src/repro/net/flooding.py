"""TTL-bounded flooding (the Gnutella query model and the pure-voting
baseline's transport).

The paper simulates "the flooding process … by deploying a Breadth First
Search based search operation" (§5.2).  :func:`flood_bfs` mirrors that: a
synchronous BFS that *accounts exactly* like per-edge flooding — every
forwarding of the query along an overlay edge is one message — and records
each visited node's hop depth, from which response latency is derived.

Message accounting (Gnutella semantics): a node that receives the query
with remaining TTL > 0 forwards it to **all neighbours except the one it
came from**; duplicate receptions are real messages and are counted, but
duplicates are not re-forwarded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigError
from repro.net.topology import Topology

__all__ = ["FloodResult", "flood_bfs"]


@dataclass
class FloodResult:
    """Outcome of one flood."""

    origin: int
    ttl: int
    visited: dict[int, int] = field(default_factory=dict)  # node -> hop depth
    parents: dict[int, int] = field(default_factory=dict)  # node -> BFS parent
    messages: int = 0

    @property
    def reach(self) -> int:
        """Number of distinct nodes that saw the query (excluding origin)."""
        return len(self.visited) - 1

    def depth_of(self, node: int) -> int:
        return self.visited[node]

    def path_to(self, node: int) -> list[int]:
        """The BFS-tree path origin → node (what a query hit routes back on)."""
        path = [node]
        while path[-1] != self.origin:
            path.append(self.parents[path[-1]])
        path.reverse()
        return path


def flood_bfs(
    topology: Topology,
    origin: int,
    ttl: int,
    *,
    online: Callable[[int], bool] | None = None,
) -> FloodResult:
    """Synchronous TTL flood with exact per-edge message accounting.

    Parameters
    ----------
    topology:
        The overlay graph.
    origin:
        Query source.
    ttl:
        Gnutella-style time-to-live; ``ttl`` hops maximum.  The paper uses
        TTL 7 for deployed Gnutella and 4 in simulation (§5.3).
    online:
        Optional liveness predicate; offline nodes receive (and are charged)
        the message but neither respond nor forward.
    """
    if ttl < 0:
        raise ConfigError(f"ttl must be >= 0, got {ttl}")
    result = FloodResult(origin=origin, ttl=ttl)
    result.visited[origin] = 0
    if ttl == 0:
        return result
    is_online = online if online is not None else (lambda _n: True)
    # queue of (node, depth, came_from)
    queue: deque[tuple[int, int, int]] = deque([(origin, 0, -1)])
    while queue:
        node, depth, came_from = queue.popleft()
        if depth >= ttl:
            continue
        for nbr in topology.neighbors(node):
            if nbr == came_from:
                continue
            result.messages += 1  # the query datagram on this edge
            if not is_online(nbr):
                continue
            if nbr in result.visited:
                continue  # duplicate: charged, not re-forwarded
            result.visited[nbr] = depth + 1
            result.parents[nbr] = node
            queue.append((nbr, depth + 1, node))
    return result

