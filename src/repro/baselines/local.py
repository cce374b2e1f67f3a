"""Limited reputation sharing baseline (Marti & Garcia-Molina, EC'04 — the
paper's ref [6]).

The opposite extreme from flooding: a peer trusts only its *own* past
experience with a provider (optionally widened to a small fixed friend
set), so a trust check costs zero network messages — but coverage is
terrible, because in a large network the requestor has usually never met a
given provider.  Including it brackets hiREP from below on traffic just as
pure voting brackets it from above, which is the interesting comparison
for the extension experiments:

    local (0 msgs, no coverage)  <  hiREP (O(c), high coverage)
                                 <  voting (O(n), full coverage)
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineSystem, draw_vote
from repro.core.runtime import Estimate
from repro.core.config import HiRepConfig
from repro.net.latency import LatencyModel

__all__ = ["LocalReputationSystem"]


class LocalReputationSystem(BaselineSystem):
    """Trust from first-hand (plus optional friend-set) history only."""

    def __init__(
        self,
        config: HiRepConfig | None = None,
        *,
        latency_model: LatencyModel | None = None,
        friends_per_peer: int = 0,
    ) -> None:
        super().__init__(config, latency_model=latency_model)
        if friends_per_peer < 0:
            raise ValueError(f"friends_per_peer must be >= 0, got {friends_per_peer}")
        n = self.config.network_size
        # history[peer][provider] -> list of observed outcomes
        self._history: list[dict[int, list[float]]] = [dict() for _ in range(n)]
        self.friends: list[list[int]] = []
        for ip in range(n):
            if friends_per_peer == 0:
                self.friends.append([])
                continue
            pool = [c for c in range(n) if c != ip]
            idx = self.world.rng_agents.choice(
                len(pool), size=min(friends_per_peer, len(pool)), replace=False
            )
            self.friends.append([pool[int(i)] for i in idx])
        self.coverage_hits = 0
        self.coverage_misses = 0

    def _estimate(self, requestor: int, provider: int) -> tuple[float, int]:
        """(estimate, friend messages): own history, then friends' history."""
        own = self._history[requestor].get(provider)
        if own:
            self.coverage_hits += 1
            return float(np.mean(own)), 0
        shared: list[float] = []
        messages = 0
        for friend in self.friends[requestor]:
            messages += 2  # ask + answer, direct unicast
            theirs = self._history[friend].get(provider)
            if theirs:
                shared.extend(theirs)
        if shared:
            self.coverage_hits += 1
            return float(np.mean(shared)), messages
        self.coverage_misses += 1
        return 0.5, messages  # never met: uninformative prior

    def _execute(self, req: int, prov: int) -> Estimate:
        truth = float(self.truth[prov])
        estimate, messages = self._estimate(req, prov)
        self.counter.count("control", messages)

        # The transaction happens; the requestor records what it observed
        # (malicious peers poison their own books deliberately so their
        # *shared* history misleads friends).
        honest = not bool(self.malicious[req])
        observed = draw_vote(
            honest, truth, self.rng, self.config.good_rating, self.config.bad_rating
        )
        self._history[req].setdefault(prov, []).append(observed)

        return Estimate(
            estimate,
            float("nan") if messages == 0 else float(messages),
            messages=messages,
        )

    def coverage(self) -> float:
        """Fraction of trust checks answered by any first/second-hand data."""
        total = self.coverage_hits + self.coverage_misses
        if total == 0:
            return float("nan")
        return self.coverage_hits / total
