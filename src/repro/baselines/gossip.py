"""Gossip-sampling baseline (Differential-Gossip-style aggregation).

The reputation-aggregation follow-ups to polling (e.g. *Differential
Gossip* by Gupta & Singh) replace the full broadcast with randomized
gossip: a trust check contacts a small random sample of the overlay and
weights nearer (fresher) opinions more than ones relayed from far away.
This baseline implements that middle ground between the repo's two
traffic extremes:

    local (0 msgs)  <  gossip (O(FANOUT^ROUNDS))  <  hiREP (O(c))
                                                  <  voting (O(n))

Mechanics per transaction: the requestor seeds a gossip tree — each
frontier node forwards the query to ``FANOUT`` random online overlay
neighbours, ``ROUNDS`` hops deep.  Every contacted node votes via the
shared §5.2 rating draw; votes return along the tree's reverse path and
are weighted ``1/depth`` (the *differential* part: opinion weight decays
with relay distance) in hiREP's own
:func:`~repro.core.semantics.aggregate_estimate`.  Arrivals FIFO-serialize
on the requestor's access link like every other flooding baseline.

It is also the kernel's reference "new backend" — a ~100-line plugin
registered with :mod:`repro.core.registry` (see ``docs/architecture.md``
for the recipe it follows).
"""

from __future__ import annotations

from repro.baselines.base import BaselineSystem
from repro.core.runtime import Estimate
from repro.core.semantics import aggregate_estimate
from repro.net.messages import Category

__all__ = ["GossipSystem"]


class GossipSystem(BaselineSystem):
    """Randomized-gossip polling with distance-discounted votes."""

    FANOUT = 3
    ROUNDS = 2

    def _gossip_tree(self, root: int) -> dict[int, int]:
        """Sample the gossip tree; returns node -> parent (root excluded)."""
        parent: dict[int, int] = {}
        frontier = [root]
        for _ in range(self.ROUNDS):
            next_frontier: list[int] = []
            for node in frontier:
                fresh = [
                    n
                    for n in self.topology.neighbors(node)
                    if n != root
                    and n not in parent
                    and self.network.is_online(n)
                ]
                if not fresh:
                    continue
                take = min(self.FANOUT, len(fresh))
                picked = self.rng.choice(len(fresh), size=take, replace=False)
                for i in sorted(int(p) for p in picked):
                    child = fresh[i]
                    if child in parent:
                        continue
                    parent[child] = node
                    next_frontier.append(child)
            frontier = next_frontier
        return parent

    def _path_to(self, node: int, parent: dict[int, int], root: int) -> list[int]:
        path = [node]
        while path[-1] != root:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def _execute(self, req: int, prov: int) -> Estimate:
        truth = float(self.truth[prov])

        parent = self._gossip_tree(req)
        query_messages = len(parent)  # one forward per tree edge
        self.counter.count(Category.FLOOD_QUERY, query_messages)

        votes: list[float] = []
        weights: list[float] = []
        vote_messages = 0
        arrivals: list[float] = []
        for node in parent:
            if node == prov:
                continue
            path = self._path_to(node, parent, req)
            depth = len(path) - 1
            votes.append(self._rate(node, truth))
            weights.append(1.0 / depth)
            vote_messages += depth  # the vote retraces the gossip path
            arrivals.append(2.0 * self.network.path_latency(path))
        self.counter.count(Category.FLOOD_RESPONSE, vote_messages)

        return Estimate(
            aggregate_estimate(votes, weights),
            self._serialize_at(req, arrivals),
            messages=query_messages + vote_messages,
            voters=len(votes),
        )
