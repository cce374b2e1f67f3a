"""Whitewashing: shedding a bad reputation by re-entering with a fresh
identity.

Free nodeIDs make this unavoidable in principle (§4.2.2's sybil
discussion: "not avoidable unless the system has some centralized control
server"); what a reputation system controls is how much a whitewasher
*gains*.  Against hiREP with report-driven agent models, a whitewashed
provider falls back to the uninformative prior — it does not inherit a
*good* reputation, it merely erases a bad one, and it starts accumulating
bad reports again immediately.

:func:`whitewash_provider` performs the identity reset against a live
system (new keys, agents' report history left keyed to the dead identity)
so experiments can measure the before/after trust values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import HiRepSystem
from repro.crypto.hashing import NodeID
from repro.crypto.keys import PeerKeys

__all__ = ["WhitewashOutcome", "whitewash_provider"]


@dataclass
class WhitewashOutcome:
    """Identity change bookkeeping."""

    provider: int
    old_node_id: NodeID
    new_node_id: NodeID


def whitewash_provider(system: HiRepSystem, provider: int) -> WhitewashOutcome:
    """Re-enter ``provider`` under a brand-new identity.

    Unlike the legitimate key *rotation* of §3.5 (which signs the new key
    with the old one precisely so reputation carries over), a whitewasher
    announces nothing: the old nodeID simply goes dark and a new one
    appears.  Agents keep their reports about the dead identity; the new
    identity starts from scratch.
    """
    new_keys = PeerKeys.generate(system.backend, system.world.rng_keys)
    old_id = system.wiring.rekey(provider, new_keys)
    return WhitewashOutcome(
        provider=provider, old_node_id=old_id, new_node_id=new_keys.node_id
    )
