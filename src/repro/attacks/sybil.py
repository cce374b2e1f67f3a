"""Sybil attacks (§4.2.2, citing Douceur).

hiREP cannot *prevent* sybils — "this is not avoidable unless the system
has some centralized control server" — but it damps the damage: each sybil
identity is just another reputation agent, and agents whose evaluations are
inconsistent get filtered out by expertise maintenance regardless of how
many identities their operator spawned.

A sybil identity here is a forged self-advertising agent whose evaluations
are adversarial (always inverted).  The attack injects ``count`` sybils into
discovery via the recommendation hook and the experiment measures how much
MSE the trained system gives back.
"""

from __future__ import annotations

import numpy as np

from repro.core.messages import AgentListEntry
from repro.core.system import HiRepSystem
from repro.core.trust_models import QualityDrivenModel
from repro.core.agent import ReputationAgent
from repro.crypto.keys import PeerKeys

__all__ = ["SybilOperator"]


class SybilOperator:
    """Creates sybil agent identities hosted on one physical node.

    All sybils share the attacker's IP (they are processes on one box) but
    carry distinct, *valid* key material — sybil nodeIDs verify correctly,
    which is exactly why cryptography alone cannot stop the attack.
    """

    def __init__(
        self,
        system: HiRepSystem,
        host_ip: int,
        count: int,
        rng: np.random.Generator,
    ) -> None:
        self.system = system
        self.host_ip = host_ip
        self.rng = rng
        self.identities: list[PeerKeys] = []
        self.agents: list[ReputationAgent] = []
        cfg = system.config
        for _ in range(count):
            keys = PeerKeys.generate(system.backend, rng)
            self.identities.append(keys)
            # Inverted evaluations: a 'poor' quality-driven model.
            model = QualityDrivenModel(False, cfg.good_rating, cfg.bad_rating)
            self.agents.append(
                ReputationAgent(
                    ip=host_ip,
                    keys=keys,
                    backend=system.backend,
                    model=model,
                    rng=rng,
                    truth_oracle=lambda nid: system.truth_by_id.get(nid, 0.5),
                )
            )

    def entries(self) -> tuple[AgentListEntry, ...]:
        """Self-advertisements for every sybil, all claiming top weight."""
        host_peer = self.system.peers[self.host_ip]
        onion = host_peer.ensure_onion()
        return tuple(
            AgentListEntry(
                weight=1.0,
                agent_node_id=keys.node_id,
                agent_onion=onion,
                agent_sp=keys.sp,
                agent_ip=self.host_ip,
            )
            for keys in self.identities
        )

    def install(self, compromised: set[int]) -> None:
        """Serve sybil lists from ``compromised`` nodes during discovery.

        Also registers the sybil agents so trust requests addressed to them
        are answered (adversarially) instead of silently dropped: the host
        node dispatches by which SP the request was sealed to.
        """
        entries = self.entries()

        def hook(node: int):
            return entries if node in compromised else None

        self.system.discovery_list_hook = hook

        # Multiplex sybil agents behind the host's endpoint.
        original = self.system._make_endpoint(self.host_ip)
        from repro.core.messages import TrustValueRequest
        from repro.net.messages import Category
        from repro.errors import ProtocolError

        def endpoint(message, sent_at: float) -> None:
            if isinstance(message, TrustValueRequest):
                for agent in self.agents:
                    try:
                        fresh = self.system.peers[self.host_ip].fresh_onion()
                        response = agent.handle_trust_request(message, fresh)
                    except ProtocolError:
                        continue  # sealed to a different sybil (or the host)
                    self.system.router.send(
                        self.host_ip,
                        message.requestor_onion,
                        response,
                        category=Category.TRUST_RESPONSE,
                    )
                    return
            original(message, sent_at)

        self.system.router.set_endpoint(self.host_ip, endpoint)
