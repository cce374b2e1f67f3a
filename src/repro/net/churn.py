"""Node churn (join/leave) model.

hiREP's backup-agent cache and list-maintenance logic (§3.4.3) exist to
tolerate churn — trusted agents that go offline with positive accuracy are
parked in the backup cache and probed again later.  :class:`ChurnModel`
drives that behaviour in experiments: between transactions it flips each
online node offline with probability ``leave_prob`` and each offline node
back online with probability ``rejoin_prob`` (an on/off Markov process whose
stationary online fraction is ``rejoin / (leave + rejoin)``).  The model
owns the probabilities, the protected set and the statistics; the flip
itself is the network's one vectorised
:meth:`~repro.net.substrate.Substrate.apply_churn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import ConfigError
from repro.net.substrate import Substrate

__all__ = ["ChurnModel", "ChurnStats"]


@dataclass
class ChurnStats:
    """Cumulative churn bookkeeping."""

    departures: int = 0
    rejoins: int = 0


class ChurnModel:
    """Two-state Markov churn applied across a network.

    Parameters
    ----------
    leave_prob:
        Per-step probability an online node goes offline.
    rejoin_prob:
        Per-step probability an offline node comes back.
    protected:
        Node indices that never churn (e.g. the node under test).
    """

    def __init__(
        self,
        leave_prob: float,
        rejoin_prob: float = 0.5,
        protected: set[int] | None = None,
    ) -> None:
        if not 0 <= leave_prob <= 1:
            raise ConfigError(f"leave_prob must be in [0,1], got {leave_prob}")
        if not 0 <= rejoin_prob <= 1:
            raise ConfigError(f"rejoin_prob must be in [0,1], got {rejoin_prob}")
        self.leave_prob = leave_prob
        self.rejoin_prob = rejoin_prob
        self.protected = protected or set()
        self.stats = ChurnStats()

    def __repr__(self) -> str:
        # Perf records and manifests key a run by str() of its options.
        shielded = f", protected={sorted(self.protected)}" if self.protected else ""
        return f"ChurnModel({self.leave_prob}, {self.rejoin_prob}{shielded})"

    def step(
        self,
        network: Substrate,
        rng: np.random.Generator,
        extra_protected: Iterable[int] = (),
    ) -> None:
        """Apply one churn round to every unprotected node.

        ``extra_protected`` shields additional nodes for *this step only*
        (e.g. the requestor of the transaction about to run) without
        growing the permanent :attr:`protected` set.
        """
        if self.leave_prob == 0 and self.rejoin_prob == 0:
            return
        departures, rejoins = network.apply_churn(
            rng.random(network.n),
            self.leave_prob,
            self.rejoin_prob,
            self.protected.union(extra_protected),
        )
        self.stats.departures += departures
        self.stats.rejoins += rejoins
