"""Credibility-weighted polling (P2PREP's enhanced direction).

Pure voting treats every vote equally — that is exactly what Fig. 7
punishes.  The P2PREP line of work (Cornelli et al., the paper's ref [16])
proposed weighting votes by the *credibility* of the voter, learned from
past transactions.  This baseline implements that fix while keeping the
flooding transport, which cleanly separates hiREP's two ideas:

* **curation** (weighting/evicting unreliable opinion sources) — shared by
  this system, and responsible for the accuracy win;
* **hierarchy** (a small agent community instead of polling everyone) —
  unique to hiREP, and responsible for the O(C) traffic and anonymity.

With credibility, voting's MSE converges like hiREP's — but it still pays
O(network) messages per query and exposes every voter's identity, which is
precisely the gap the paper's design targets.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineSystem, draw_vote
from repro.core.runtime import Estimate
from repro.core.config import HiRepConfig
from repro.core.expertise import consistent
from repro.net.flooding import flood_bfs
from repro.net.latency import LatencyModel
from repro.net.messages import Category

__all__ = ["CredibilityVotingSystem"]


class CredibilityVotingSystem(BaselineSystem):
    """Flooding poll with per-voter credibility EWMA at each requestor."""

    def __init__(
        self,
        config: HiRepConfig | None = None,
        *,
        latency_model: LatencyModel | None = None,
        alpha: float | None = None,
    ) -> None:
        super().__init__(config, latency_model=latency_model)
        self.alpha = alpha if alpha is not None else self.config.expertise_alpha
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        # credibility[requestor][voter] — learned independently per peer,
        # like hiREP's expertise; prior 1.0 mirrors the paper's initial
        # expertise assignment.
        self._credibility: list[dict[int, float]] = [
            dict() for _ in range(self.config.network_size)
        ]
        # Track-record counts drive the same confidence discount hiREP's
        # estimator uses, so the comparison is apples to apples.
        self._updates: list[dict[int, int]] = [
            dict() for _ in range(self.config.network_size)
        ]

    def credibility_of(self, requestor: int, voter: int) -> float:
        return self._credibility[requestor].get(voter, 1.0)

    def _execute(self, req: int, prov: int) -> Estimate:
        truth = float(self.truth[prov])

        flood = flood_bfs(
            self.topology, req, self.config.ttl, online=self.network.is_online
        )
        self.counter.count(Category.FLOOD_QUERY, flood.messages)

        votes: list[tuple[int, float]] = []
        vote_messages = 0
        arrivals: list[float] = []
        for node, depth in flood.visited.items():
            if node == req or node == prov:
                continue
            honest = not bool(self.malicious[node])
            votes.append(
                (
                    node,
                    draw_vote(
                        honest,
                        truth,
                        self.rng,
                        self.config.good_rating,
                        self.config.bad_rating,
                    ),
                )
            )
            vote_messages += depth
            arrivals.append(2.0 * self.network.path_latency(flood.path_to(node)))
        self.counter.count(Category.FLOOD_RESPONSE, vote_messages)

        cred = self._credibility[req]
        counts = self._updates[req]
        num = den = 0.0
        for voter, value in votes:
            n = counts.get(voter, 0)
            weight = cred.get(voter, 1.0) * (n / (n + 1.0))
            num += weight * value
            den += weight
        if den > 0:
            estimate = num / den
        elif votes:
            estimate = float(np.mean([v for _n, v in votes]))
        else:
            estimate = 0.5

        # Observe the download, update each voter's credibility.
        for voter, value in votes:
            a_c = 1.0 if consistent(value, truth) else 0.0
            prev = cred.get(voter, 1.0)
            cred[voter] = self.alpha * a_c + (1.0 - self.alpha) * prev
            counts[voter] = counts.get(voter, 0) + 1

        return Estimate(
            estimate,
            self._serialize_at(req, arrivals),
            messages=flood.messages + vote_messages,
            voters=len(votes),
        )
