"""Limited reputation sharing baseline (Marti & Garcia-Molina, EC'04 — the
paper's ref [6]).

The opposite extreme from flooding: a peer trusts only its *own* past
experience with a provider, so a trust check costs zero network messages —
but coverage is terrible, because in a large network the requestor has
usually never met a given provider.  Including it brackets hiREP from
below on traffic just as pure voting brackets it from above, which is the
interesting comparison for the extension experiments:

    local (0 msgs, no coverage)  <  hiREP (O(c), high coverage)
                                 <  voting (O(n), full coverage)

Each outcome asks one book, the requestor's own, and ``answered`` is 1
when it held history, so the scorecard's ``success_rate`` is the
baseline's coverage.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineSystem
from repro.core.config import HiRepConfig
from repro.core.runtime import Estimate

__all__ = ["LocalReputationSystem"]


class LocalReputationSystem(BaselineSystem):
    """Trust from first-hand history only."""

    def __init__(self, config: HiRepConfig | None = None) -> None:
        super().__init__(config)
        # history[peer][provider] -> list of observed outcomes
        self._history: list[dict[int, list[float]]] = [
            dict() for _ in range(self.config.network_size)
        ]

    def _execute(self, req: int, prov: int) -> Estimate:
        # Never met: the uninformative prior.
        history = self._history[req].setdefault(prov, [])
        answered = int(bool(history))
        estimate = float(np.mean(history)) if answered else 0.5
        # The transaction happens; the requestor records what it observed
        # (a malicious peer poisons its own book).
        history.append(self._rate(req, float(self.truth[prov])))
        return Estimate(estimate, float("nan"), answered=answered, asked=1)
