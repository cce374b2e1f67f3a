"""The pure-voting (polling) baseline — the paper's comparator (§5.2).

P2PREP-style: trust values live in every peer's local experience, so a
requestor must poll the whole system.  Simulated exactly as the paper does:
a TTL-bounded BFS flood carries the trust query; *every* reached node
computes a vote and returns it to the requestor; the estimate is the plain
mean of all votes ("the trust value provided by each node is treated
equally", §5.3 — which is why malicious voters hurt so much, Fig. 7).

The flood, its message accounting and the FIFO-serialized response time
are :meth:`~repro.baselines.base.BaselineSystem._poll`; the requestor
cannot know the query is done before the last vote lands — it polled
everyone.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineSystem
from repro.core.runtime import Estimate

__all__ = ["PureVotingSystem"]


class PureVotingSystem(BaselineSystem):
    """Flooding-based polling reputation system."""

    def _execute(self, req: int, prov: int) -> Estimate:
        _voters, votes, response_ms, messages = self._poll(
            req, prov, float(self.truth[prov])
        )
        return Estimate(
            float(np.mean(votes)) if votes else 0.5,
            response_ms,
            messages=messages,
            voters=len(votes),
        )
