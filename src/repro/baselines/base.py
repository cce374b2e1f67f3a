"""Common scaffolding for baseline reputation systems.

Each baseline runs over a :class:`~repro.core.world.World` derived from the
same :class:`~repro.core.config.HiRepConfig` (and seed) as the hiREP system
it is compared against, and records the same three metrics through the
shared :class:`~repro.core.runtime.TransactionRuntime`, so experiment code
treats hiREP and every baseline uniformly (they all satisfy
:class:`~repro.core.interface.ReputationSystem`).
"""

from __future__ import annotations

from repro.core.config import HiRepConfig
from repro.core.runtime import TransactionRuntime, draw_vote
from repro.core.world import World
from repro.net.latency import LatencyModel

__all__ = ["BaselineSystem", "draw_vote"]


class BaselineSystem(TransactionRuntime):
    """Base class for baselines: world construction over the shared runtime.

    A baseline implements only its operator,
    :meth:`~repro.core.runtime.TransactionRuntime._execute`: poll for an
    estimate of ``provider``, learn from the transaction, and report the
    per-query traffic in :class:`~repro.core.runtime.Estimate`.
    """

    def __init__(
        self,
        config: HiRepConfig | None = None,
        *,
        latency_model: LatencyModel | None = None,
    ) -> None:
        config = config or HiRepConfig()
        super().__init__(config, World.from_config(config, latency_model))
        self.malicious = self.world.malicious_peer
