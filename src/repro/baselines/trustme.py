"""TrustMe baseline (Singh & Liu, P2P'03) — §2's closest relative of hiREP.

TrustMe also stores trust values away from their subject, at *trust-holding
agents* (THAs), but differs from hiREP in every dimension the paper calls
out:

* THAs are **assigned randomly at bootstrap** (by the bootstrap server),
  not chosen and curated by each peer;
* the trust query is a **broadcast** to the whole system (the requestor
  does not know who the THAs are — that is TrustMe's anonymity trick);
* after each transaction the report is **broadcast** again so the partner's
  THAs can store it — two floods per transaction.

Trust values at a THA are the running mean of the (honest or malicious)
reports it has stored.  This baseline exists to show where hiREP's wins
come from: remote storage alone (TrustMe) fixes accuracy poisoning less
than agent *curation* does, and broadcasting twice costs even more than
polling once.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineSystem
from repro.core.runtime import Estimate
from repro.core.config import HiRepConfig
from repro.net.flooding import flood_bfs
from repro.net.messages import Category

__all__ = ["TrustMeSystem"]


class TrustMeSystem(BaselineSystem):
    """Broadcast-based THA reputation system."""

    THAS_PER_PEER = 3

    def __init__(self, config: HiRepConfig | None = None) -> None:
        super().__init__(config)
        n = self.config.network_size
        # Bootstrap-server assignment: uniform random THAs per peer (never
        # the peer itself).
        self.thas: list[list[int]] = []
        for ip in range(n):
            candidates = [c for c in range(n) if c != ip]
            idx = self.world.rng_agents.choice(
                len(candidates),
                size=min(self.THAS_PER_PEER, len(candidates)),
                replace=False,
            )
            self.thas.append([candidates[int(i)] for i in idx])
        # THA report stores: tha -> subject -> [outcomes]
        self._stores: list[dict[int, list[float]]] = [dict() for _ in range(n)]

    # -- protocol ----------------------------------------------------------

    def _execute(self, req: int, prov: int) -> Estimate:
        truth = float(self.truth[prov])

        # 1. Broadcast trust query; THAs of the provider respond.
        flood = flood_bfs(
            self.topology, req, self.config.ttl, online=self.network.is_online
        )
        self.counter.count(Category.FLOOD_QUERY, flood.messages)
        responses: list[float] = []
        arrivals: list[float] = []
        response_messages = 0
        for tha in self.thas[prov]:
            if tha not in flood.visited or tha == req:
                continue
            value = self._tha_value(tha, prov)
            if value is None:
                continue
            responses.append(value)
            depth = flood.depth_of(tha)
            response_messages += depth
            arrivals.append(2.0 * self.network.path_latency(flood.path_to(tha)))
        self.counter.count(Category.FLOOD_RESPONSE, response_messages)
        estimate = float(np.mean(responses)) if responses else 0.5

        # 2. Transaction, then broadcast the report so THAs can store it.
        report_flood = flood_bfs(
            self.topology, req, self.config.ttl, online=self.network.is_online
        )
        self.counter.count(Category.TRANSACTION_REPORT, report_flood.messages)
        reported = self._rate(req, truth)
        for tha in self.thas[prov]:
            if tha in report_flood.visited:
                self._stores[tha].setdefault(prov, []).append(reported)

        return Estimate(
            estimate,
            self._serialize_at(req, arrivals),
            messages=flood.messages + response_messages + report_flood.messages,
            voters=len(responses),
        )

    def _tha_value(self, tha: int, subject: int) -> float | None:
        reports = self._stores[tha].get(subject)
        if not reports:
            return None
        return float(np.mean(reports))
