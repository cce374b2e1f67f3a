"""The hiREP peer (§3.2–3.6).

A :class:`HiRepPeer` owns one node's protocol state: key material, its
trusted-agent list, its current onion, and any in-flight trust query.  It is
deliberately transport-thin — messages go out through the
:class:`~repro.onion.routing.OnionRouter` and arrive back via
:meth:`on_onion_message`, which the system wires as the node's onion
endpoint — so the full protocol stack is exercised on every query exactly
as the paper describes:

1. the peer seals ``R = {subject, nonce}`` to each chosen agent's SP and
   sends it through **the agent's onion**, attaching its own SP and onion;
2. the agent replies through **the peer's onion**, sealing ``T = {value,
   nonce}`` to SP_p and piggy-backing a fresh Onion_e;
3. after the download the peer updates each agent's expertise, applies the
   hirep-θ eviction rule, reports the signed outcome through the (fresh)
   agent onions, and tops its list back up when it falls below the refill
   threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.agent_list import TrustedAgent, TrustedAgentList
from repro.core.config import HiRepConfig
from repro.core.discovery import probe_backups
from repro.core.semantics import aggregate_estimate
from repro.core.messages import (
    AgentListEntry,
    TransactionReport,
    TrustRequestBody,
    TrustValueRequest,
    TrustValueResponse,
)
from repro.crypto.backend import CipherBackend
from repro.crypto.hashing import NodeID
from repro.crypto.keys import PeerKeys
from repro.crypto.nonce import NonceRegistry
from repro.errors import CryptoError, NoTrustedAgentsError, ProtocolError
from repro.net.messages import Category
from repro.net.network import P2PNetwork
from repro.onion.onion import Onion, build_onion, circuit_usable, draw_relays
from repro.onion.relay import AnonymityKeyStore, RelayRegistry
from repro.onion.routing import OnionRouter

__all__ = ["HiRepPeer", "QueryResult", "PendingQuery"]


@dataclass
class QueryResult:
    """Outcome of one completed trust-value query."""

    subject: NodeID
    estimate: float
    responses: list[tuple[NodeID, float]]
    response_time_ms: float
    answered: int
    asked: int
    retries: int = 0
    timed_out: bool = False


@dataclass
class PendingQuery:
    """In-flight query bookkeeping.

    ``nonce_to_agent`` may hold several nonces per agent once retries are
    in play (the original request might be merely slow, not lost); the
    first response from an agent wins and invalidates its other nonces.
    """

    subject: NodeID
    started_at: float
    nonce_to_agent: dict[int, NodeID] = field(default_factory=dict)
    responses: list[tuple[NodeID, float]] = field(default_factory=list)
    last_arrival: float = float("nan")
    asked_agents: set[NodeID] = field(default_factory=set)
    attempt: int = 0
    retries_sent: int = 0
    timed_out: bool = False


class HiRepPeer:
    """One node's hiREP protocol state machine."""

    def __init__(
        self,
        ip: int,
        keys: PeerKeys,
        backend: CipherBackend,
        config: HiRepConfig,
        network: P2PNetwork,
        router: OnionRouter,
        relay_registry: RelayRegistry,
        rng: np.random.Generator,
    ) -> None:
        self.ip = ip
        self.keys = keys
        self.backend = backend
        self.config = config
        self.network = network
        self.router = router
        self.relay_registry = relay_registry
        self.rng = rng
        self.nonces = NonceRegistry(rng)
        self.key_store = AnonymityKeyStore(
            ip,
            backend,
            lambda: _make_initiator(backend, keys, ip),
        )
        self.agent_list = TrustedAgentList(
            capacity=config.trusted_agents,
            alpha=config.expertise_alpha,
            eviction_threshold=config.eviction_threshold,
            backup_capacity=config.backup_cache_size,
            initial_expertise=config.initial_expertise,
        )
        self._onion_seq = 0
        self._relay_ips: list[int] = []
        self._current_onion: Onion | None = None
        self._pending: PendingQuery | None = None
        self.queries_completed = 0
        self.probe_messages = 0
        # Timeout/retry plane accounting (active when query_timeout_ms set).
        self.retries_sent = 0
        self.queries_timed_out = 0
        self.unresponsive_parked = 0
        self.circuits_rebuilt = 0

    @property
    def node_id(self) -> NodeID:
        return self.keys.node_id

    # ------------------------------------------------------------------
    # Onion management (§3.3)
    # ------------------------------------------------------------------

    def ensure_onion(self) -> Onion:
        """Return a usable onion, rebuilding if relays churned away.

        Building a new path triggers the Fig. 3 handshake with each relay
        whose anonymity key is not yet cached — those messages are charged
        to the network counter by the handshake driver.
        """
        if self._current_onion is not None and circuit_usable(
            self.network, self._relay_ips
        ):
            return self._current_onion
        return self.rebuild_onion()

    def rebuild_onion(self) -> Onion:
        """Pick fresh relays among the nodes online now; build a new onion."""
        relays = draw_relays(self.network, self.ip, self.config.onion_relays, self.rng)
        relay_keys = [
            (r, self.key_store.learn(self.network, self.relay_registry, r))
            for r in relays
        ]
        self._relay_ips = relays
        return self._seal_onion(relay_keys)

    def fresh_onion(self) -> Onion:
        """A new-sequence onion over the current relays (§3.5.2's Onion_e).

        Falls back to a full rebuild when any relay went offline.
        """
        if self._current_onion is None or not circuit_usable(
            self.network, self._relay_ips
        ):
            return self.rebuild_onion()
        return self._seal_onion([(r, self.key_store.get(r)) for r in self._relay_ips])

    def _seal_onion(self, relay_keys: list) -> Onion:
        """The next-sequence onion over ``relay_keys`` becomes current."""
        self._onion_seq += 1
        self._current_onion = build_onion(
            self.backend,
            self.keys.ap,
            self.keys.sr,
            self.ip,
            relay_keys,
            seq=self._onion_seq,
        )
        return self._current_onion

    # ------------------------------------------------------------------
    # Trust value query (§3.5.1)
    # ------------------------------------------------------------------

    def start_query(self, subject: NodeID) -> list[TrustedAgent]:
        """Send trust-value requests for ``subject`` to the chosen agents.

        Returns the consulted agents.  Raises
        :class:`~repro.errors.NoTrustedAgentsError` when the list is empty.

        When ``config.query_timeout_ms`` is set, a DES deadline is armed:
        agents that have not answered by then are retried with exponential
        backoff (up to ``max_query_retries`` rounds), and agents that
        exhaust every retry accrue a consecutive-miss strike (see
        :meth:`_on_query_deadline`).
        """
        if self._pending is not None:
            raise ProtocolError(f"peer {self.ip} already has a query in flight")
        agents = self.agent_list.select_for_query(
            self.config.agents_queried, self.rng
        )
        if not agents:
            raise NoTrustedAgentsError(f"peer {self.ip} has no trusted agents")
        own_onion = self.ensure_onion()
        pending = PendingQuery(subject=subject, started_at=self.network.engine.now)
        for agent in agents:
            if agent.entry.agent_onion is None:
                continue
            self._send_request(pending, agent, own_onion)
        self._pending = pending
        if self.config.query_timeout_ms is not None and pending.nonce_to_agent:
            self._arm_deadline(pending)
        return agents

    def awaiting_responses(self) -> bool:
        """True while an in-flight query still has unanswered requests.

        The DES drives queries to quiescence with ``network.run()``; the
        live service plane (``repro.serve``) has no event queue, so it
        polls this between actor wake-ups to decide when to finish.
        """
        return self._pending is not None and bool(self._pending.nonce_to_agent)

    def _send_request(
        self, pending: PendingQuery, agent: TrustedAgent, own_onion: Onion
    ) -> None:
        """Seal and send one trust-value request to ``agent``."""
        nonce = self.nonces.issue()
        pending.nonce_to_agent[nonce] = agent.node_id
        pending.asked_agents.add(agent.node_id)
        body = TrustRequestBody(subject=pending.subject, nonce=nonce)
        request = TrustValueRequest(
            sealed_body=self.backend.encrypt(agent.entry.agent_sp, body),
            requestor_sp=self.keys.sp,
            requestor_onion=own_onion,
        )
        self.router.send(
            self.ip, agent.entry.agent_onion, request, category=Category.TRUST_QUERY
        )

    # -- timeout / retry / backoff (robustness extension) -----------------

    def _arm_deadline(self, pending: PendingQuery) -> None:
        """Schedule the deadline for ``pending``'s current attempt.

        Attempt *k* waits ``query_timeout_ms * backoff_factor**k`` — the
        timeout and the exponential backoff are one knob, so a retried
        agent always gets strictly longer to answer than the round before.
        """
        delay = self.config.query_timeout_ms * (
            self.config.retry_backoff_factor ** pending.attempt
        )
        self.network.engine.schedule_in(
            delay, lambda: self._on_query_deadline(pending)
        )

    def _on_query_deadline(self, pending: PendingQuery) -> None:
        """Deadline fired: retry the silent agents or strike them out."""
        if self._pending is not pending:
            return  # query already finished (stale deadline)
        # Dedupe in nonce-issue order, NOT via a set: node ids are bytes,
        # and set iteration order follows the per-process hash salt, which
        # would leak PYTHONHASHSEED into retry order and break cross-run
        # determinism.
        unanswered = list(dict.fromkeys(pending.nonce_to_agent.values()))
        if not unanswered:
            return  # everyone made it in time
        if pending.attempt >= self.config.max_query_retries:
            # Out of retries: strike every silent agent; park the ones
            # that have now missed agent_miss_limit queries in a row so
            # they stop soaking up query slots (they keep their expertise
            # in the backup cache and may be probed back later).
            pending.timed_out = True
            self.queries_timed_out += 1
            limit = self.config.agent_miss_limit
            for agent_id in unanswered:
                misses = self.agent_list.record_miss(agent_id)
                if misses is not None and limit > 0 and misses >= limit:
                    if self.agent_list.park_offline(agent_id):
                        self.unresponsive_parked += 1
            return
        if not self.network.is_online(self.ip):
            return  # we crashed mid-query; nothing to retry from
        # A dead relay in our own circuit silently eats every reply, so
        # rebuild the circuit before spending retry traffic — over the
        # nodes online now, which may include ones that were down when the
        # query started.
        if self._relay_ips and not circuit_usable(self.network, self._relay_ips):
            self.circuits_rebuilt += 1
        own_onion = self.ensure_onion()
        for agent_id in unanswered:
            agent = self.agent_list.get(agent_id)
            if agent is None or agent.entry.agent_onion is None:
                continue  # evicted/parked since we asked; let it strike out
            self._send_request(pending, agent, own_onion)
            pending.retries_sent += 1
            self.retries_sent += 1
        pending.attempt += 1
        self._arm_deadline(pending)

    def on_onion_message(self, message: object, sent_at: float) -> None:
        """Endpoint for everything that arrives through this peer's onion."""
        if isinstance(message, TrustValueResponse):
            self._on_trust_response(message)
        # TrustValueRequest / TransactionReport are handled by the agent
        # role; the system's dispatcher routes them there.

    def _on_trust_response(self, response: TrustValueResponse) -> None:
        pending = self._pending
        if pending is None:
            return
        try:
            body = self.backend.decrypt(self.keys.sr, response.sealed_body)
        except CryptoError:
            return  # not sealed to us — ignore, like a peer would
        if body.subject != pending.subject:
            return
        agent_id = pending.nonce_to_agent.pop(body.nonce, None)
        if agent_id is None:
            return  # unknown or already-answered nonce (replay/forgery)
        # Retries may have issued several nonces to this agent; the first
        # answer wins, the rest become dead nonces.
        stale = [n for n, a in pending.nonce_to_agent.items() if a == agent_id]
        for nonce in stale:
            del pending.nonce_to_agent[nonce]
        agent = self.agent_list.get(agent_id)
        if agent is not None and response.agent_onion is not None:
            agent.refresh_onion(response.agent_onion)
        self.agent_list.record_answer(agent_id)
        pending.responses.append((agent_id, float(body.trust_value)))
        pending.last_arrival = self.network.engine.now

    def finish_query(self) -> QueryResult:
        """Close the in-flight query and compute the trust estimate.

        The estimate weights each response by ``expertise × confidence``
        ("only the trust values provided by the agents of high expertise
        are accepted", §5.3): an agent with no track record contributes
        nothing once *any* proven agent answered, and agents evicted
        mid-query contribute weight 0.  When no agent has a track record
        yet (a fresh list), the estimate degrades to the plain mean — the
        same aggregation pure voting uses, which is why untrained hiREP
        starts at voting-level accuracy in Fig. 6.  Falls back to the
        uninformative prior 0.5 when nothing answered.
        """
        pending = self._pending
        if pending is None:
            raise ProtocolError(f"peer {self.ip} has no query in flight")
        self._pending = None
        if pending.asked_agents:
            asked = len(pending.asked_agents)
        else:
            asked = len(pending.nonce_to_agent) + len(pending.responses)
        values: list[float] = []
        weights: list[float] = []
        for agent_id, value in pending.responses:
            agent = self.agent_list.get(agent_id)
            values.append(value)
            if agent is None:
                weights.append(0.0)  # vanished mid-query: contributes nothing
            else:
                weights.append(agent.expertise.value * agent.expertise.confidence)
        estimate = aggregate_estimate(values, weights)
        if pending.responses and not np.isnan(pending.last_arrival):
            elapsed = pending.last_arrival - pending.started_at
        else:
            elapsed = float("nan")
        self.queries_completed += 1
        return QueryResult(
            subject=pending.subject,
            estimate=estimate,
            responses=pending.responses,
            response_time_ms=elapsed,
            answered=len(pending.responses),
            asked=asked,
            retries=pending.retries_sent,
            timed_out=pending.timed_out,
        )

    # ------------------------------------------------------------------
    # Post-transaction bookkeeping (§3.4.3, §3.5.3, §3.6)
    # ------------------------------------------------------------------

    def settle_transaction(
        self,
        result: QueryResult,
        outcome: float,
        *,
        report: bool = True,
    ) -> list[TransactionReport]:
        """Update expertise, evict, park offline agents, send reports.

        Returns the reports sent (useful to tests).
        """
        from repro.core.agent import ReputationAgent  # local: avoid cycle

        # 1. expertise updates for every agent that answered
        for agent_id, value in result.responses:
            self.agent_list.update_expertise(agent_id, value, outcome)
        # 2. hirep-θ eviction
        self.agent_list.evict_below_threshold()
        # 3. park agents that went offline (positive expertise → backup)
        for agent in list(self.agent_list.agents()):
            ip = agent.entry.agent_ip
            if ip >= 0 and not self.network.is_online(ip):
                self.agent_list.park_offline(agent.node_id)
        # 4. signed transaction reports through each surviving agent's onion
        reports: list[TransactionReport] = []
        if report:
            answered = {aid for aid, _v in result.responses}
            report_all = self.config.report_scope == "all"
            for agent in self.agent_list.agents():
                if not report_all and agent.node_id not in answered:
                    continue
                onion = agent.entry.agent_onion
                if onion is None:
                    continue
                tx_report = ReputationAgent.make_signed_result(
                    self.backend,
                    self.keys,
                    result.subject,
                    outcome,
                    self.nonces.issue(),
                )
                self.router.send(
                    self.ip,
                    onion,
                    tx_report,
                    category=Category.TRANSACTION_REPORT,
                )
                reports.append(tx_report)
        return reports

    # ------------------------------------------------------------------
    # Periodic key update (§3.5, last paragraph)
    # ------------------------------------------------------------------

    def announce_key_update(self, new_keys: PeerKeys) -> int:
        """Send ``(new SP) signed by current SR`` to every trusted agent.

        Uses "the most recently received onions" of the agents.  Returns
        how many announcements went out; the caller (the system, which owns
        the transport wiring) must follow up with :meth:`adopt_keys`.
        """
        from repro.core.messages import KeyUpdateAnnouncement

        payload = ("key-update", new_keys.sp.to_bytes())
        announcement = KeyUpdateAnnouncement(
            old_node_id=self.node_id,
            new_sp=new_keys.sp,
            signature=self.backend.sign(self.keys.sr, payload),
        )
        sent = 0
        for agent in self.agent_list.agents():
            onion = agent.entry.agent_onion
            if onion is None:
                continue
            self.router.send(
                self.ip, onion, announcement, category=Category.KEY_EXCHANGE
            )
            sent += 1
        return sent

    def adopt_keys(self, new_keys: PeerKeys) -> None:
        """Switch to the rotated key material and invalidate the old onion.

        The onion must be rebuilt because it is signed with SR and its core
        is sealed to AP — both rotated.
        """
        self.keys = new_keys
        self._current_onion = None
        self._relay_ips = []
        self.key_store = AnonymityKeyStore(
            self.ip,
            self.backend,
            lambda: _make_initiator(self.backend, new_keys, self.ip),
        )

    # ------------------------------------------------------------------
    # List maintenance (§3.4.3)
    # ------------------------------------------------------------------

    def probe_backups(self) -> int:
        """Probe parked agents; restore the ones that answered.

        Each probe costs one request message plus one reply when alive
        (category ``control``).  Returns how many were restored.
        """
        agents = self.agent_list
        restored, messages = probe_backups(
            agents.backup_agents(),
            online=lambda a: a.entry.agent_ip >= 0
            and self.network.is_online(a.entry.agent_ip),
            restore=lambda a: agents.restore_from_backup(a.node_id),
            drop=lambda a: agents.drop_backup(a.node_id),
        )
        if messages:
            self.network.counter.count(Category.CONTROL, messages)
        self.probe_messages += messages
        return restored

    def adopt_entries(self, entries: list[AgentListEntry]) -> int:
        """Add newly selected agents (initial expertise 1); returns adds."""
        added = 0
        for entry in entries:
            if entry.agent_node_id == self.node_id:
                continue
            if self.agent_list.add(entry):
                added += 1
        return added


def _make_initiator(backend: CipherBackend, keys: PeerKeys, ip: int):
    from repro.onion.handshake import HandshakeInitiator

    return HandshakeInitiator(backend, keys.ap, keys.ar, ip)
