"""System façade: builds a complete hiREP deployment and runs the
paper's transaction workload over it (§3.6, §5.2).

:class:`HiRepSystem` is the thin façade over the kernel's layers (see
``docs/architecture.md``): construction builds a
:class:`~repro.core.world.World` and the protocol wiring
(:func:`~repro.core.services.build_wiring`, which owns the
:class:`~repro.core.dispatch.ProtocolDispatcher` routing table), and the
transaction cycle — written once, in
:class:`~repro.core.runtime.TransactionRuntime` — runs over the services:

* bootstrap and requestor list maintenance
  (:class:`~repro.core.services.MaintenanceService`);
* the operator: trust query + settlement, each drained to DES quiescence
  (:class:`~repro.core.services.QueryService`).

Every message travels hop-by-hop through the DES engine, so traffic
counts (Fig. 5), accuracy (Figs. 6–7) and response times (Fig. 8) all
fall out of the same run.
"""

from __future__ import annotations

from repro.core.config import HiRepConfig
from repro.core.messages import AgentListEntry
from repro.core.peer import HiRepPeer
from repro.core.runtime import Estimate, HiRepRuntime
from repro.core.services import (
    DiscoveryHook,
    KeyRotationService,
    MaintenanceService,
    QueryService,
    build_wiring,
)
from repro.core.world import ModelFactory, World
from repro.crypto.backend import get_backend
from repro.crypto.hashing import NodeID
from repro.crypto.keys import PeerKeys
from repro.net.churn import ChurnModel
from repro.net.latency import LatencyModel

__all__ = ["HiRepSystem"]


class HiRepSystem(HiRepRuntime):
    """A full hiREP deployment over a simulated unstructured P2P network."""

    def __init__(
        self,
        config: HiRepConfig | None = None,
        *,
        latency_model: LatencyModel | None = None,
        churn: ChurnModel | None = None,
        model_factory: ModelFactory | None = None,
        topology=None,
    ) -> None:
        """Build the network, keys, peers, agents, and wiring.

        Parameters
        ----------
        model_factory:
            ``(good: bool, rng) -> TrustModel`` — override the per-agent
            trust model (defaults to the paper's quality-driven model).
        topology:
            Optional explicit :class:`~repro.net.topology.Topology` instead
            of a generated one; node count must match the config.

        Fault injection attaches from outside:
        ``FaultPlane([...], seed=...).install(system.network)`` before
        traffic flows.
        """
        config = config or HiRepConfig()
        world = World.from_config(config, latency_model, topology=topology)
        super().__init__(config, world)
        self.churn = churn

        self.backend = get_backend(config.crypto_backend)
        self.wiring = build_wiring(
            config, world, self.backend, model_factory=model_factory
        )
        self.router = self.wiring.router
        self.relay_registry = self.wiring.relay_registry
        self.dispatcher = self.wiring.dispatcher
        self.peers = self.wiring.peers
        self.agents = self.wiring.agents
        self.agent_quality = self.wiring.agent_quality
        self.truth_by_id = self.wiring.truth_by_id

        self.maintenance = MaintenanceService(config, world, self.wiring)
        self.queries = QueryService(world, self.wiring)
        self.key_rotation = KeyRotationService(world, self.wiring)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _make_endpoint(self, ip: int):
        """The dispatch entry point for node ``ip`` (see repro.core.dispatch).

        Kept for callers that rewrap a node's endpoint (e.g. the sybil
        attack interposes on its host before delegating back).
        """
        return self.dispatcher.endpoint(ip)

    # ------------------------------------------------------------------
    # Bootstrap (§3.4.1) and maintenance (§3.4.3)
    # ------------------------------------------------------------------

    @property
    def discovery_list_hook(self) -> DiscoveryHook | None:
        """Attack hook: forged discovery lists (see MaintenanceService)."""
        return self.maintenance.discovery_list_hook

    @discovery_list_hook.setter
    def discovery_list_hook(self, hook: DiscoveryHook | None) -> None:
        self.maintenance.discovery_list_hook = hook

    def self_entry_for(self, ip: int) -> AgentListEntry | None:
        """A reputation agent's self-advertisement during discovery."""
        return self.maintenance.self_entry_for(ip)

    def _bootstrap(self, rounds: int) -> None:
        self.maintenance.bootstrap(rounds)

    def maintain(self, peer: HiRepPeer) -> None:
        """§3.4.3 list maintenance: probe backups, rediscover if short."""
        self.maintenance.maintain(peer)

    # ------------------------------------------------------------------
    # Transactions (§3.6, §5.2)
    # ------------------------------------------------------------------

    def _maintain(self, requestor: int) -> None:
        self.maintain(self.peers[requestor])

    def _execute(self, requestor: int, provider: int) -> Estimate:
        """The operator: one query + settlement over the DES network."""
        result = self.queries.execute(requestor, provider)
        return Estimate(
            result.estimate, result.response_time_ms, result.answered, result.asked
        )

    # ------------------------------------------------------------------
    # Periodic key update (§3.5, last paragraph)
    # ------------------------------------------------------------------

    def rotate_peer_keys(self, ip: int) -> PeerKeys:
        """Rotate peer ``ip``'s keypairs and propagate the update (§3.5)."""
        return self.key_rotation.rotate(ip)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def truth_key(self, ip: int) -> NodeID:
        """The nodeID of peer ``ip`` (what trust queries are keyed by)."""
        return self.queries.truth_key(ip)
