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

A voter's credibility is hiREP's expertise, learned the same way: the
poll is voting's (:meth:`~repro.baselines.base.BaselineSystem._poll`), the
estimate is hiREP's confidence-weighted :func:`~repro.core.semantics.aggregate_estimate`
(§3.5), and each vote's consistency with the download moves its voter's
credibility by one :func:`~repro.core.semantics.ewma_step` at
``config.expertise_alpha`` (§3.4.3).
"""

from __future__ import annotations

from repro.baselines.base import BaselineSystem
from repro.core.config import HiRepConfig
from repro.core.runtime import Estimate
from repro.core.semantics import (
    aggregate_estimate,
    confidence,
    consistency_bit,
    ewma_step,
)

__all__ = ["CredibilityVotingSystem"]


class CredibilityVotingSystem(BaselineSystem):
    """Flooding poll with per-voter credibility EWMA at each requestor."""

    def __init__(self, config: HiRepConfig | None = None) -> None:
        super().__init__(config)
        n = self.config.network_size
        # credibility[requestor][voter] — learned independently per peer,
        # like hiREP's expertise; prior 1.0 is the paper's initial
        # expertise.  updates[requestor][voter] counts the track record
        # behind it.
        self._credibility: list[dict[int, float]] = [dict() for _ in range(n)]
        self._updates: list[dict[int, int]] = [dict() for _ in range(n)]

    def _execute(self, req: int, prov: int) -> Estimate:
        truth = float(self.truth[prov])
        voters, votes, response_ms, messages = self._poll(req, prov, truth)
        cred = self._credibility[req]
        counts = self._updates[req]
        estimate = aggregate_estimate(
            votes,
            [cred.get(v, 1.0) * confidence(counts.get(v, 0)) for v in voters],
        )
        # Observe the download, update each voter's credibility.
        alpha = self.config.expertise_alpha
        for voter, value in zip(voters, votes):
            cred[voter] = ewma_step(
                alpha, cred.get(voter, 1.0), consistency_bit(value, truth)
            )
            counts[voter] = counts.get(voter, 0) + 1
        return Estimate(estimate, response_ms, messages=messages, voters=len(votes))
