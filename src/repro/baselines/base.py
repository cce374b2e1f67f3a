"""Common scaffolding for baseline reputation systems.

Each baseline runs over a :class:`~repro.core.world.World` derived from the
same :class:`~repro.core.config.HiRepConfig` (and seed) as the hiREP system
it is compared against, and records the same three metrics through the
shared :class:`~repro.core.runtime.TransactionRuntime`, so experiment code
treats hiREP and every baseline uniformly (they all satisfy
:class:`~repro.core.interface.ReputationSystem`).

The baselines also run on hiREP's own rules: every rating is the §5.2
draw (:func:`~repro.core.semantics.rate`, through :meth:`BaselineSystem._rate`),
and the flooding systems share one poll (:meth:`BaselineSystem._poll`).
"""

from __future__ import annotations

from repro.core.config import HiRepConfig
from repro.core.runtime import TransactionRuntime
from repro.core.semantics import rate
from repro.core.world import World
from repro.net.flooding import flood_bfs
from repro.net.messages import Category

__all__ = ["BaselineSystem"]


class BaselineSystem(TransactionRuntime):
    """Base class for baselines: world construction over the shared runtime.

    A baseline implements only its operator,
    :meth:`~repro.core.runtime.TransactionRuntime._execute`: poll for an
    estimate of ``provider``, learn from the transaction, and report the
    per-query traffic in :class:`~repro.core.runtime.Estimate`.
    """

    def __init__(self, config: HiRepConfig | None = None) -> None:
        config = config or HiRepConfig()
        super().__init__(config, World.from_config(config))
        self.malicious = self.world.malicious_peer

    def _rate(self, peer: int, truth: float) -> float:
        """``peer``'s rating of a subject with ground truth ``truth``:
        honest peers rate with the truth, malicious peers invert (§5.2)."""
        return rate(
            not self.malicious[peer],
            truth,
            self.rng,
            self.config.good_rating,
            self.config.bad_rating,
        )

    def _poll(
        self, req: int, prov: int, truth: float
    ) -> tuple[list[int], list[float], float, int]:
        """Flood a trust query ``ttl`` hops from ``req``; every peer reached
        but ``req`` and ``prov`` votes on ``prov``.

        Returns ``(voters, votes, response_ms, messages)``.  One message
        per flood edge traversed (``flood_query``) plus ``depth`` per vote,
        which routes back along the BFS reverse path (``flood_response``);
        each vote arrives after the two-way propagation along its path, and
        the arrivals serialize FIFO on ``req``'s access link — the query
        completes when the last vote lands.
        """
        flood = flood_bfs(
            self.topology, req, self.config.ttl, online=self.network.is_online
        )
        self.counter.count(Category.FLOOD_QUERY, flood.messages)
        voters: list[int] = []
        votes: list[float] = []
        vote_messages = 0
        arrivals: list[float] = []
        for node, depth in flood.visited.items():
            if node == req or node == prov:
                continue
            voters.append(node)
            votes.append(self._rate(node, truth))
            vote_messages += depth
            arrivals.append(2.0 * self.network.path_latency(flood.path_to(node)))
        self.counter.count(Category.FLOOD_RESPONSE, vote_messages)
        return (
            voters,
            votes,
            self._serialize_at(req, arrivals),
            flood.messages + vote_messages,
        )
