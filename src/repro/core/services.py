"""Service layer: the composable pieces of a hiREP deployment.

``HiRepSystem`` used to be a 500-line god object; the kernel splits it
into services with one responsibility each, wired over shared state:

* :func:`build_wiring` — the world/wiring builder: key material, peers,
  relay registry, onion router, reputation agents, and the
  :class:`~repro.core.dispatch.ProtocolDispatcher` routing table;
* :class:`MaintenanceService` — §3.4.1 bootstrap and §3.4.3 list
  maintenance (backup probes, token/TTL rediscovery), plus the
  discovery hook the recommendation-manipulation attacks use;
* :class:`QueryService` — §3.6 trust query + transaction settlement;
* :class:`KeyRotationService` — §3.5 periodic key update.

``HiRepSystem`` (:mod:`repro.core.system`) survives as a thin façade
delegating to these, so existing callers keep working.

RNG discipline: construction order here is frozen — every generator draw
happens in exactly the order the pre-kernel constructor made it, so fixed
seeds reproduce the pre-refactor runs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.agent import ReputationAgent
from repro.core.agent_list import TrustedAgentList
from repro.core.config import HiRepConfig
from repro.core.discovery import (
    bootstrap_lists,
    discover_agent_lists,
    maintain_list,
)
from repro.core.dispatch import ProtocolDispatcher
from repro.core.messages import (
    AgentListEntry,
    KeyUpdateAnnouncement,
    TransactionReport,
    TrustValueRequest,
    TrustValueResponse,
)
from repro.core.peer import HiRepPeer, QueryResult
from repro.core.ranking import rank_within_list, reply_block, select_agents
from repro.core.world import ModelFactory, World
from repro.crypto.hashing import NodeID
from repro.crypto.keys import PeerKeys
from repro.crypto.nonce import NonceRegistry
from repro.errors import NoTrustedAgentsError, ProtocolError
from repro.net.messages import Category
from repro.onion.handshake import HandshakeResponder
from repro.onion.relay import RelayRegistry
from repro.onion.routing import OnionRouter
from repro.sim.rng import spawn

__all__ = [
    "DiscoveryHook",
    "KeyRotationService",
    "MaintenanceService",
    "QueryService",
    "Wiring",
    "build_wiring",
]

#: Attack hook: node index -> forged trusted-agent list (None = honest).
DiscoveryHook = Callable[[int], "list[AgentListEntry] | None"]


@dataclass
class Wiring:
    """Everything :func:`build_wiring` constructs, by name."""

    backend: object
    router: OnionRouter
    relay_registry: RelayRegistry
    dispatcher: ProtocolDispatcher
    peers: list[HiRepPeer]
    agents: dict[int, ReputationAgent]
    agent_quality: dict[int, bool]
    truth_by_id: dict[NodeID, float] = field(default_factory=dict)


def build_wiring(
    config: HiRepConfig,
    world: World,
    backend: object,
    *,
    model_factory: ModelFactory | None = None,
) -> Wiring:
    """Build key material, peers, agents, and the protocol routing table."""
    network = world.network
    router = OnionRouter(network, backend)
    relay_registry = RelayRegistry()
    dispatcher = ProtocolDispatcher()

    # Key material and peers.  Per-peer generators are spawned up front so
    # peer construction order cannot perturb other streams.
    peers: list[HiRepPeer] = []
    truth_by_id: dict[NodeID, float] = {}
    peer_rngs = spawn(world.rng_peers, config.network_size)
    for ip in range(config.network_size):
        keys = PeerKeys.generate(backend, world.rng_keys)
        peer = HiRepPeer(
            ip=ip,
            keys=keys,
            backend=backend,
            config=config,
            network=network,
            router=router,
            relay_registry=relay_registry,
            rng=peer_rngs[ip],
        )
        peers.append(peer)
        truth_by_id[keys.node_id] = float(world.truth[ip])
        relay_registry.register(
            ip,
            HandshakeResponder(
                backend, keys.ap, keys.ar, ip, NonceRegistry(peer_rngs[ip])
            ),
        )
        router.register_node(ip, keys.ar, dispatcher.endpoint(ip))
        network.register_handler(ip, router.handle)

    # Reputation agents: agent-capable nodes, split good/poor (§5.2).
    agents: dict[int, ReputationAgent] = {}
    agent_quality: dict[int, bool] = {}
    for ip, good, agent_rng, model in world.draw_agents(model_factory):
        agents[ip] = ReputationAgent(
            ip=ip,
            keys=peers[ip].keys,
            backend=backend,
            model=model,
            rng=agent_rng,
            truth_oracle=lambda node_id: truth_by_id.get(node_id, 0.5),
        )
        agent_quality[ip] = good

    wiring = Wiring(
        backend=backend,
        router=router,
        relay_registry=relay_registry,
        dispatcher=dispatcher,
        peers=peers,
        agents=agents,
        agent_quality=agent_quality,
        truth_by_id=truth_by_id,
    )
    _register_routes(dispatcher, wiring)
    return wiring


def _register_routes(dispatcher: ProtocolDispatcher, wiring: Wiring) -> None:
    """The hiREP protocol routing table (§3.6 message flow).

    The "agent" role is consulted first so agent-only traffic at non-agent
    nodes drops (a deployed non-agent ignores it); trust responses are
    peer traffic and route at every node.
    """
    dispatcher.define_role("agent", lambda ip: ip in wiring.agents)
    dispatcher.define_role("peer", lambda ip: True)

    def on_trust_request(ip: int, message: TrustValueRequest, sent_at: float) -> None:
        agent = wiring.agents[ip]
        fresh = wiring.peers[ip].fresh_onion()
        try:
            response = agent.handle_trust_request(message, fresh)
        except ProtocolError:
            # Sealed to a key this agent no longer holds (e.g. the
            # requestor has a stale SP after a key rotation) or
            # malformed: drop, as a deployed agent would.
            return
        wiring.router.send(
            ip,
            message.requestor_onion,
            response,
            category=Category.TRUST_RESPONSE,
        )

    def on_trust_response(ip: int, message: TrustValueResponse, sent_at: float) -> None:
        wiring.peers[ip].on_onion_message(message, sent_at)

    def on_report(ip: int, message: TransactionReport, sent_at: float) -> None:
        wiring.agents[ip].handle_report(message)

    def on_key_update(ip: int, message: KeyUpdateAnnouncement, sent_at: float) -> None:
        wiring.agents[ip].handle_key_update(message)

    dispatcher.register("agent", TrustValueRequest, on_trust_request)
    dispatcher.register("agent", TransactionReport, on_report)
    dispatcher.register("agent", KeyUpdateAnnouncement, on_key_update)
    dispatcher.register("peer", TrustValueResponse, on_trust_response)


class MaintenanceService:
    """§3.4.1 bootstrap + §3.4.3 trusted-agent-list maintenance."""

    def __init__(
        self,
        config: HiRepConfig,
        world: World,
        wiring: Wiring,
    ) -> None:
        self.config = config
        self.world = world
        self.wiring = wiring
        self.network = world.network
        #: Attack hook (repro.attacks): when set, discovery consults it
        #: first so compromised nodes can return forged trusted-agent
        #: lists (§4.2.1's recommendation-manipulation attack).
        self.discovery_list_hook: DiscoveryHook | None = None

    def self_entry_for(self, ip: int) -> AgentListEntry | None:
        """A reputation agent's self-advertisement during discovery."""
        if ip not in self.wiring.agents:
            return None
        peer = self.wiring.peers[ip]
        onion = peer.ensure_onion()
        return AgentListEntry(
            weight=self.config.initial_expertise,
            agent_node_id=peer.node_id,
            agent_onion=onion,
            agent_sp=peer.keys.sp,
            agent_ip=ip,
        )

    def discover_for(self, peer: HiRepPeer, wanted: int) -> int:
        """One discovery round for ``peer``; rank, select, adopt. Returns adds."""
        cfg = self.config
        peers = self.wiring.peers
        hook = self.discovery_list_hook
        # What each visited node shares: its own list, or the forgery a
        # compromised node (``discovery_list_hook``) returns instead; and
        # each answering listless agent's self-advertisement, built where
        # the flood reaches it (it freshens the agent's onion).
        shared: dict[int, TrustedAgentList | Sequence[AgentListEntry]] = {}
        offers: dict[int, AgentListEntry] = {}

        def has_list(node: int) -> bool:
            forged = hook(node) if hook is not None else None
            shared[node] = peers[node].agent_list if forged is None else forged
            return len(shared[node]) > 0

        def self_offer(node: int) -> bool:
            entry = self.self_entry_for(node)
            if entry is not None:
                offers[node] = entry
            return entry is not None

        outcome = discover_agent_lists(
            self.world.topology,
            peer.ip,
            cfg.tokens,
            cfg.ttl,
            rng=peer.rng,
            has_list=has_list,
            self_offer=self_offer,
            online=self.network.is_online,
        )
        counter = self.network.counter
        counter.count(Category.AGENT_DISCOVERY, outcome.request_messages)
        counter.count(Category.AGENT_DISCOVERY_REPLY, outcome.reply_messages)
        if not outcome.responders:
            return 0
        # The replies as columns.  NodeIDs are coded to per-round integers
        # in first-appearance order, so a forged id stays its own candidate
        # whatever ip it claims.
        sources = [
            shared[node] if listed else (offers[node],)
            for node, listed in zip(outcome.responders, outcome.shared_list)
        ]
        codes: dict[NodeID, int] = {}
        node_ids, code_rows, weight_rows = [], [], []
        for source in sources:
            if isinstance(source, TrustedAgentList):
                row_ids, row_weights = source.columns()
            else:
                row_ids = [entry.agent_node_id for entry in source]
                row_weights = [entry.weight for entry in source]
            node_ids.append(row_ids)
            code_rows.append([codes.setdefault(nid, len(codes)) for nid in row_ids])
            weight_rows.append(row_weights)
        ids, weights, lens = reply_block(code_rows, weight_rows)
        ranks = rank_within_list(weights, lens, wanted)
        replies, rows = select_agents(ids, ranks, wanted, peer.rng)
        # Entry objects for the winners only.
        selected = [
            sources[r].shared_entry(node_ids[r][row])
            if isinstance(sources[r], TrustedAgentList)
            else sources[r][row]
            for r, row in zip(replies.tolist(), rows.tolist())
        ]
        return peer.adopt_entries(selected)

    def bootstrap(self, rounds: int = 2) -> None:
        """Run the §3.4.1 bootstrap rounds over every peer's list.

        Not idempotent: the once-only guard is the owning system's
        (:meth:`repro.core.runtime.HiRepRuntime.bootstrap`).
        """
        peers = self.wiring.peers
        bootstrap_lists(
            rounds,
            len(peers),
            self.world.rng_workload,
            online=self.network.is_online,
            shortfall=lambda p: peers[p].agent_list.capacity
            - len(peers[p].agent_list),
            discover=lambda p, wanted: self.discover_for(peers[p], wanted),
        )

    def maintain(self, peer: HiRepPeer) -> None:
        """§3.4.3 list maintenance: probe backups, rediscover if short."""
        agent_list = peer.agent_list
        maintain_list(
            agent_list.__len__,
            agent_list.capacity,
            self.config.refill_threshold,
            probe=peer.probe_backups,
            discover=lambda wanted: self.discover_for(peer, wanted),
        )


class QueryService:
    """§3.6 trust query + settlement over the DES network."""

    def __init__(self, world: World, wiring: Wiring) -> None:
        self.world = world
        self.wiring = wiring
        self.network = world.network

    def truth_key(self, ip: int) -> NodeID:
        """The nodeID of peer ``ip`` (what trust queries are keyed by)."""
        return self.wiring.peers[ip].node_id

    def start(self, req: int, prov: int) -> QueryResult | None:
        """Send ``req``'s trust requests about ``prov``.

        Returns ``None`` while answers are awaited.  When the requestor
        has no trusted agents the query is impossible and the blind prior
        (0.5) comes back at once.
        """
        subject = self.truth_key(prov)
        try:
            self.wiring.peers[req].start_query(subject)
        except NoTrustedAgentsError:
            return QueryResult(
                subject=subject,
                estimate=0.5,
                responses=[],
                response_time_ms=float("nan"),
                answered=0,
                asked=0,
            )
        return None

    def settle(
        self, req: int, prov: int, blind: QueryResult | None = None
    ) -> QueryResult:
        """Close the query (unless it was ``blind``) and settle the
        transaction: expertise updates, eviction, parking, reports."""
        peer = self.wiring.peers[req]
        result = peer.finish_query() if blind is None else blind
        peer.settle_transaction(result, float(self.world.truth[prov]))
        return result

    def execute(self, req: int, prov: int) -> QueryResult:
        """One trust query + settlement, each drained to DES quiescence.

        A blind query has nothing to settle and nothing in flight.
        """
        blind = self.start(req, prov)
        if blind is not None:
            return blind
        self.network.run()
        result = self.settle(req, prov)
        self.network.run()
        return result


class KeyRotationService:
    """§3.5 periodic key update: rotate a peer's keypairs and rewire."""

    def __init__(self, world: World, wiring: Wiring) -> None:
        self.world = world
        self.wiring = wiring
        self.network = world.network

    def rotate(self, ip: int) -> PeerKeys:
        """Rotate peer ``ip``'s keypairs and propagate the update.

        Protocol order matters: the announcement is signed with the *old*
        SR and travels first; only then does the peer adopt the new
        material and the simulation wiring (onion router key, handshake
        responder, truth oracle) follow the identity.
        """
        wiring = self.wiring
        peer = wiring.peers[ip]
        old_node_id = peer.node_id
        new_keys = peer.keys.rotated(wiring.backend, self.world.rng_keys)
        peer.announce_key_update(new_keys)
        self.network.run()  # deliver announcements under the old identity
        peer.adopt_keys(new_keys)
        wiring.router.register_node(ip, new_keys.ar)
        wiring.relay_registry.register(
            ip,
            HandshakeResponder(
                wiring.backend, new_keys.ap, new_keys.ar, ip, NonceRegistry(peer.rng)
            ),
        )
        truth = wiring.truth_by_id.pop(old_node_id)
        wiring.truth_by_id[new_keys.node_id] = truth
        return new_keys
