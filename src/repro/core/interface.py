"""Interface layer of the reputation-system kernel.

Every reputation system in the repo — hiREP itself and each baseline —
implements the same small surface so experiment code can treat them
uniformly: build one (via :mod:`repro.core.registry`), run transactions,
read the same metric collectors, and get back the same per-transaction
:class:`Outcome` record.

:class:`Outcome` is the superset of what hiREP and the baselines report;
fields a given system does not produce stay at their neutral defaults.
It is constructed in exactly one place,
:meth:`repro.core.runtime.TransactionRuntime.finish`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.core.config import HiRepConfig
    from repro.net.network import P2PNetwork
    from repro.sim.metrics import MessageCounter, MSETracker, ResponseTimeTracker

__all__ = ["Outcome", "ReputationSystem"]


@dataclass
class Outcome:
    """Everything an experiment wants to know about one transaction.

    Field provenance:

    * common — ``index`` … ``response_time_ms``;
    * hiREP  — ``trust_messages``/``total_messages`` (trust-process vs.
      all-category traffic deltas) and ``answered``/``asked`` (agent
      response coverage);
    * baselines — ``messages`` (per-query traffic) and ``voters``
      (opinion sources reached).
    """

    index: int
    requestor: int
    provider: int
    estimate: float
    truth: float
    squared_error: float
    response_time_ms: float
    trust_messages: int = 0
    total_messages: int = 0
    answered: int = 0
    asked: int = 0
    messages: int = 0
    voters: int = 0


@runtime_checkable
class ReputationSystem(Protocol):
    """What every reputation system — hiREP or baseline — must expose."""

    config: "HiRepConfig"
    network: "P2PNetwork"
    transactions_run: int
    outcomes: list[Outcome]
    mse: "MSETracker"
    response_times: "ResponseTimeTracker"

    @property
    def counter(self) -> "MessageCounter": ...

    def pick_pair(self, requestor: int | None = None) -> tuple[int, int]: ...

    def run_transaction(
        self, requestor: int | None = None, provider: int | None = None
    ) -> Outcome: ...

    def run(
        self, transactions: int, requestor: int | None = None
    ) -> list[Outcome]: ...

    def reset_metrics(self) -> None: ...
