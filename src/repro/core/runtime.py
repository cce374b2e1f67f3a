"""Shared transaction runtime — the kernel's common run loop and metrics.

Before the kernel refactor, hiREP (``repro.core.system``) and the baseline
tree (``repro.baselines.base``) each carried their own copy of the
pick-pair logic, the ``run`` loop, the metric collectors, the §5.2 rating
model and the FIFO arrival-serialization helper.  This module is the
single home for all of it:

* :class:`MetricsPipeline` — the three paper metrics (traffic, MSE,
  response time) plus the per-transaction :class:`~repro.core.interface.Outcome`
  log, recorded identically for every system;
* :class:`TransactionRuntime` — base class every reputation system
  extends, and the **only** definition of the paper's transaction cycle
  (§3.6/§5.2): :meth:`~TransactionRuntime.begin` (validate a named pair →
  ensure-ready → churn → pick pair → provider still online → maintain →
  snapshot counters) and
  :meth:`~TransactionRuntime.finish` (build the one
  :class:`~repro.core.interface.Outcome` → record) around the operator a
  system owns, :meth:`~TransactionRuntime._execute` — and therefore the
  **one telemetry seam**: ``begin`` tells the listening
  :class:`~repro.obs.plane.TelemetryPlane` a transaction was admitted,
  ``finish`` tells it how it ended; no executor emits spans of its own;
* :class:`HiRepRuntime` — what the three hiREP executors (object kernel,
  array kernel, live service plane) share around that cycle: the
  once-only bootstrap guard, trust-traffic accounting and the agent
  population helpers;
* :func:`draw_vote` — the §5.2 rating model (honest peers rate with the
  truth, malicious peers invert);
* :func:`serialize_arrivals` — FIFO serialization of response arrivals on
  the requestor's access link (shared by every flooding/gossip system).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro.core.config import HiRepConfig
from repro.core.interface import Outcome
from repro.core.semantics import TRUST_TRAFFIC_CATEGORIES
from repro.core.world import World
from repro.errors import SimulationError
from repro.net.churn import ChurnModel
from repro.net.messages import DEFAULT_MESSAGE_BYTES
from repro.net.network import P2PNetwork
from repro.sim.metrics import MessageCounter, MSETracker, ResponseTimeTracker

__all__ = [
    "Estimate",
    "HiRepRuntime",
    "MetricsPipeline",
    "Ticket",
    "TransactionRuntime",
    "draw_vote",
    "serialize_arrivals",
]


def draw_vote(
    honest: bool,
    truth: float,
    rng: np.random.Generator,
    good_range: tuple[float, float],
    bad_range: tuple[float, float],
) -> float:
    """One peer's vote about a subject (§5.2 rating model).

    Honest peers rate consistently with the truth; malicious peers invert.
    """
    trustable = truth >= 0.5
    use_good = trustable if honest else not trustable
    lo, hi = good_range if use_good else bad_range
    return float(rng.uniform(lo, hi))


def serialize_arrivals(
    network: P2PNetwork,
    req: int,
    arrivals: list[float],
    *,
    model_transmission: bool = True,
) -> float:
    """FIFO-serialize response arrivals on the requestor's access link.

    Returns the completion time of the last response (NaN when nothing
    arrived — the query never completes).
    """
    if not arrivals:
        return float("nan")
    if not model_transmission:
        return float(max(arrivals))
    bandwidth = network.node(req).bandwidth_kbps
    transmit = network.transmission_ms(bandwidth, DEFAULT_MESSAGE_BYTES)
    done = 0.0
    for arrival in sorted(arrivals):
        done = max(done, arrival) + transmit
    return done


@dataclass
class Estimate:
    """What a system's operator hands back to the cycle template.

    hiREP executors fill ``answered``/``asked`` (agent response coverage),
    baselines ``messages``/``voters`` (per-query traffic, opinion sources
    reached); every other :class:`~repro.core.interface.Outcome` field is
    the template's to fill.  The operator also states where the query
    phase ends: after ``response_time_ms`` (both kernels), or after
    ``query_ms`` on the live plane, whose ``response_time_ms`` is the
    client-visible round trip — settlement and drain included.
    """

    estimate: float
    response_time_ms: float
    answered: int = 0
    asked: int = 0
    messages: int = 0
    voters: int = 0
    query_ms: float | None = None


class Ticket(NamedTuple):
    """One admitted transaction: who, the traffic counters before it ran,
    and its open ``transaction`` span when a telemetry plane listens."""

    index: int
    requestor: int
    provider: int
    trust_before: int
    total_before: int
    span: Any = None


class MetricsPipeline:
    """The paper's three metrics plus the per-transaction outcome log.

    One instance per system; every system records through
    :meth:`record`, so accuracy/latency bookkeeping can never drift
    between hiREP and a baseline.
    """

    def __init__(self, counter: MessageCounter) -> None:
        self.counter = counter
        self.mse = MSETracker()
        self.response_times = ResponseTimeTracker()
        self.outcomes: list[Outcome] = []
        self.transactions_run = 0
        self._admitted = 0

    def next_index(self) -> int:
        """Allocate an ``Outcome.index``: unique and monotone even while
        earlier transactions are still in flight (the live service plane)."""
        index = self._admitted
        self._admitted += 1
        return index

    def record(self, outcome: Outcome) -> Outcome:
        """Fold one finished transaction into every collector."""
        self.mse.record(outcome.estimate, outcome.truth)
        if not np.isnan(outcome.response_time_ms):
            self.response_times.record(outcome.response_time_ms)
        self.counter.snapshot()
        self.outcomes.append(outcome)
        self.transactions_run += 1
        return outcome

    def reset(self) -> None:
        """Zero every collector (typically right after bootstrap)."""
        self.counter.reset()
        self.mse.reset()
        self.response_times.reset()
        self.outcomes.clear()
        self.transactions_run = 0
        self._admitted = 0


class TransactionRuntime:
    """Base class for every reputation system: the cycle, workload, metrics.

    :meth:`run_transaction` is the one statement of the transaction cycle;
    a subclass supplies the operator it owns (:meth:`_execute`) and, where
    it has them, the :meth:`_ensure_ready` / :meth:`_maintain` /
    :meth:`_traffic` steps.
    """

    #: Optional liveness churn, stepped once at the top of every cycle.
    churn: ChurnModel | None = None
    #: The one :class:`~repro.obs.plane.TelemetryPlane` listening to this
    #: system (set by its ``attach``).  Unattached, telemetry costs one
    #: ``is None`` test in :meth:`begin` and one in :meth:`finish`.
    telemetry: Any = None

    def __init__(
        self, config: HiRepConfig, world: World
    ) -> None:
        self.config = config
        self.world = world
        self.network = world.network
        self.topology = world.topology
        self.truth = world.truth
        #: Workload stream: pair selection (and, for baselines, votes).
        self.rng = world.rng_workload
        self.metrics = MetricsPipeline(self.network.counter)

    # -- metric attribute surface (kept flat for experiment code) ----------

    @property
    def counter(self) -> MessageCounter:
        return self.network.counter

    @property
    def mse(self) -> MSETracker:
        return self.metrics.mse

    @property
    def response_times(self) -> ResponseTimeTracker:
        return self.metrics.response_times

    @property
    def outcomes(self) -> list[Outcome]:
        return self.metrics.outcomes

    @property
    def transactions_run(self) -> int:
        return self.metrics.transactions_run

    # -- workload ----------------------------------------------------------

    def pick_pair(self, requestor: int | None = None) -> tuple[int, int]:
        """Pick a (requestor, provider) pair of distinct online nodes."""
        online = self.network.online_indices()
        count = len(online)
        if count < 2:
            raise SimulationError(f"need at least two online nodes, have {count}")
        if requestor is None:
            requestor = int(online[int(self.rng.integers(0, count))])
        provider = requestor
        while provider == requestor:
            provider = int(online[int(self.rng.integers(0, count))])
        return requestor, provider

    # -- the transaction cycle (§3.6, §5.2) --------------------------------

    def run_transaction(
        self, requestor: int | None = None, provider: int | None = None
    ) -> Outcome:
        """Execute one full transaction cycle and record metrics.

        An explicitly requested ``requestor`` or ``provider`` must exist
        and be online — a transaction from a node that cannot send, or
        about one that cannot serve the download, is a caller bug, so it
        raises :class:`~repro.errors.SimulationError` instead of silently
        producing a meaningless estimate.
        """
        tx = self.begin(requestor, provider)
        return self.finish(tx, self._execute(tx.requestor, tx.provider))

    def begin(
        self, requestor: int | None = None, provider: int | None = None
    ) -> Ticket:
        """Everything before the operator; synchronous, so an awaitable
        executor calls the same function in front of its ``await``.

        A named node that does not exist, or an offline requestor, is
        refused before anything is drawn or stepped; the provider's
        liveness is checked after the churn step, which may take it
        offline (the requestor is shielded from that step).
        """
        for role, node in (("requestor", requestor), ("provider", provider)):
            if node is not None and not 0 <= node < self.config.network_size:
                raise SimulationError(f"{role} {node} does not exist")
        if requestor is not None and not self.network.is_online(requestor):
            raise SimulationError(f"requestor {requestor} is offline")
        self._ensure_ready()
        if self.churn is not None:
            # Shield the requestor for this step only — a permanent
            # protected-set entry would exempt every past requestor from
            # churn for the rest of the run.
            protect = {requestor} if requestor is not None else set()
            self.churn.step(self.network, self.rng, extra_protected=protect)
        req, prov = self.pick_pair(requestor)
        if provider is not None:
            if not self.network.is_online(provider):
                raise SimulationError(f"provider {provider} is offline")
            prov = provider
        self._maintain(req)
        trust, total = self._traffic()
        index = self.metrics.next_index()
        span = None
        if self.telemetry is not None:
            span = self.telemetry.transaction_begun(self, index)
        return Ticket(index, req, prov, trust, total, span)

    def finish(self, tx: Ticket, result: Estimate) -> Outcome:
        """Everything after the operator: the one Outcome, recorded."""
        truth = float(self.truth[tx.provider])
        err = float(result.estimate) - truth
        trust, total = self._traffic()
        outcome = self.metrics.record(
            Outcome(
                index=tx.index,
                requestor=tx.requestor,
                provider=tx.provider,
                estimate=result.estimate,
                truth=truth,
                squared_error=err * err,
                response_time_ms=result.response_time_ms,
                trust_messages=trust - tx.trust_before,
                total_messages=total - tx.total_before,
                answered=result.answered,
                asked=result.asked,
                messages=result.messages,
                voters=result.voters,
            )
        )
        if tx.span is not None:
            query_ms = result.query_ms
            self.telemetry.transaction_finished(
                self,
                tx.span,
                outcome,
                result.response_time_ms if query_ms is None else query_ms,
            )
        return outcome

    def _ensure_ready(self) -> None:
        """Lazy set-up that must precede the first pair draw (none here)."""

    def _maintain(self, requestor: int) -> None:
        """Pre-query upkeep of the requestor's state (none here)."""

    def _traffic(self) -> tuple[int, int]:
        """(trust-process, all-category) message totals billed per
        transaction; baselines bill ``Estimate.messages`` instead."""
        return 0, 0

    def _execute(self, requestor: int, provider: int) -> Estimate:
        """The operator: estimate ``provider``'s trust for ``requestor``
        and apply whatever the system learns from the transaction."""
        raise NotImplementedError

    def _telemetry_metrics(self) -> dict[str, float]:
        """Executor-specific gauges for the telemetry snapshot, beside the
        counters every system has (none here)."""
        return {}

    def run(
        self, transactions: int, requestor: int | None = None
    ) -> list[Outcome]:
        """Run a batch of transactions (fixed requestor when given)."""
        return [self.run_transaction(requestor) for _ in range(transactions)]

    def reset_metrics(self) -> None:
        """Zero every collector (typically right after bootstrap)."""
        self.metrics.reset()

    def _serialize_at(self, req: int, arrivals: list[float]) -> float:
        """FIFO response serialization at ``req`` under this config."""
        return serialize_arrivals(
            self.network,
            req,
            arrivals,
            model_transmission=self.config.model_transmission,
        )


class HiRepRuntime(TransactionRuntime):
    """What the three hiREP executors share around the cycle.

    A subclass provides ``agent_quality`` (from
    :meth:`~repro.core.world.World.draw_agents`), :meth:`_bootstrap`,
    :meth:`_maintain` and its operator.
    """

    #: Agent ip → good (True) or poor (False), §5.2.
    agent_quality: dict[int, bool]
    #: Per-peer protocol objects; the array kernel keeps none, so its
    #: retry accounting is structurally zero.
    peers: Sequence = ()
    _bootstrapped = False

    def bootstrap(self, rounds: int = 2) -> None:
        """Give every peer an initial trusted-agent list (§3.4.1), once."""
        if not self._bootstrapped:
            self._bootstrap(rounds)
            self._bootstrapped = True

    def _bootstrap(self, rounds: int) -> None:
        raise NotImplementedError

    def _ensure_ready(self) -> None:
        self.bootstrap()

    def _traffic(self) -> tuple[int, int]:
        return self._trust_traffic(), self.counter.total

    def _trust_traffic(self) -> int:
        by_category = self.counter.by_category
        return sum(by_category.get(cat, 0) for cat in TRUST_TRAFFIC_CATEGORIES)

    def _telemetry_metrics(self) -> dict[str, float]:
        return {f"retry.{name}": n for name, n in self.retry_stats().items()}

    def retry_stats(self) -> dict[str, int]:
        """Aggregate timeout/retry accounting across every peer."""
        return {
            name: sum(getattr(peer, name) for peer in self.peers)
            for name in (
                "retries_sent",
                "queries_timed_out",
                "unresponsive_parked",
                "circuits_rebuilt",
            )
        }

    def good_agent_ips(self) -> list[int]:
        return [ip for ip, good in self.agent_quality.items() if good]

    def poor_agent_ips(self) -> list[int]:
        return [ip for ip, good in self.agent_quality.items() if not good]
