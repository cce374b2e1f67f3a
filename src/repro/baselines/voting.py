"""The pure-voting (polling) baseline — the paper's comparator (§5.2).

P2PREP-style: trust values live in every peer's local experience, so a
requestor must poll the whole system.  Simulated exactly as the paper does:
a TTL-bounded BFS flood carries the trust query; *every* reached node
computes a vote and returns it to the requestor; the estimate is the plain
mean of all votes ("the trust value provided by each node is treated
equally", §5.3 — which is why malicious voters hurt so much, Fig. 7).

Accounting:

* **messages** — one per flood edge traversed, plus ``depth`` messages per
  vote (query hits route back along the BFS reverse path);
* **response time** — each vote's arrival is the two-way propagation along
  its BFS path; arrivals then serialize FIFO on the requestor's access
  link.  The query completes when the last vote lands (the requestor cannot
  know it is done earlier — it polled everyone).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineSystem, draw_vote
from repro.core.runtime import Estimate
from repro.net.flooding import flood_bfs
from repro.net.messages import Category

__all__ = ["PureVotingSystem"]


class PureVotingSystem(BaselineSystem):
    """Flooding-based polling reputation system."""

    def _execute(self, req: int, prov: int) -> Estimate:
        truth = float(self.truth[prov])

        flood = flood_bfs(
            self.topology, req, self.config.ttl, online=self.network.is_online
        )
        self.counter.count(Category.FLOOD_QUERY, flood.messages)

        votes: list[float] = []
        vote_messages = 0
        arrivals: list[float] = []
        for node, depth in flood.visited.items():
            if node == req or node == prov:
                continue
            honest = not bool(self.malicious[node])
            votes.append(
                draw_vote(
                    honest,
                    truth,
                    self.rng,
                    self.config.good_rating,
                    self.config.bad_rating,
                )
            )
            vote_messages += depth
            path = flood.path_to(node)
            one_way = self.network.path_latency(path)
            arrivals.append(2.0 * one_way)
        self.counter.count(Category.FLOOD_RESPONSE, vote_messages)

        return Estimate(
            float(np.mean(votes)) if votes else 0.5,
            self._serialize_at(req, arrivals),
            messages=flood.messages + vote_messages,
            voters=len(votes),
        )
