"""Unit tests for periodic key update (§3.5, last paragraph)."""

import numpy as np
import pytest

from repro.core.config import HiRepConfig
from repro.core.messages import KeyUpdateAnnouncement
from repro.core.system import HiRepSystem
from repro.crypto.keys import PeerKeys


@pytest.fixture
def system():
    cfg = HiRepConfig(
        network_size=60,
        trusted_agents=10,
        refill_threshold=6,
        agents_queried=4,
        tokens=6,
        onion_relays=2,
        seed=88,
    )
    s = HiRepSystem(cfg)
    s.bootstrap()
    s.run(10, requestor=0)  # agents learn peer 0's identity
    return s


def informed_agents(system, node_id):
    return [
        a for a in system.agents.values() if node_id in a.public_key_list
    ]


def test_rotation_moves_identity_at_agents(system):
    peer = system.peers[0]
    old_id = peer.node_id
    before = informed_agents(system, old_id)
    assert before  # agents knew the old identity
    new_keys = system.rotate_peer_keys(0)
    assert peer.node_id == new_keys.node_id != old_id
    for agent in before:
        assert old_id not in agent.public_key_list
        assert agent.public_key_list[new_keys.node_id] == new_keys.sp


def test_rotation_updates_truth_oracle(system):
    truth = system.truth[0]
    old_id = system.peers[0].node_id
    new_keys = system.rotate_peer_keys(0)
    assert old_id not in system.truth_by_id
    assert system.truth_by_id[new_keys.node_id] == truth


def test_rotated_peer_can_still_transact(system):
    system.rotate_peer_keys(0)
    out = system.run_transaction(requestor=0)
    assert out.answered > 0
    assert 0.0 <= out.estimate <= 1.0


def test_reports_under_new_identity_accepted(system):
    system.rotate_peer_keys(0)
    before = sum(a.stats.reports_accepted for a in system.agents.values())
    system.run(3, requestor=0)
    after = sum(a.stats.reports_accepted for a in system.agents.values())
    assert after > before


def test_forged_update_rejected(system):
    """An attacker cannot rotate someone else's identity: the signature
    must verify under the victim's old SP."""
    peer = system.peers[0]
    agent = informed_agents(system, peer.node_id)[0]
    attacker = PeerKeys.generate(system.backend, np.random.default_rng(1))
    forged = KeyUpdateAnnouncement(
        old_node_id=peer.node_id,
        new_sp=attacker.sp,
        signature=system.backend.sign(
            attacker.sr, ("key-update", attacker.sp.to_bytes())
        ),
    )
    assert not agent.handle_key_update(forged)
    assert peer.node_id in agent.public_key_list  # unchanged


def test_update_for_unknown_identity_rejected(system):
    agent = next(iter(system.agents.values()))
    ghost = PeerKeys.generate(system.backend, np.random.default_rng(2))
    successor = PeerKeys.generate(system.backend, np.random.default_rng(3))
    announcement = KeyUpdateAnnouncement(
        old_node_id=ghost.node_id,
        new_sp=successor.sp,
        signature=system.backend.sign(
            ghost.sr, ("key-update", successor.sp.to_bytes())
        ),
    )
    assert not agent.handle_key_update(announcement)


def test_update_to_claimed_identity_rejected(system):
    """The new SP must hash to a *fresh* nodeID — you cannot take over an
    identity the agent already tracks."""
    peer0, peer1 = system.peers[0], system.peers[1]
    system.run(5, requestor=1)  # agents learn peer 1 too
    agent = next(
        a
        for a in system.agents.values()
        if peer0.node_id in a.public_key_list and peer1.node_id in a.public_key_list
    )
    hijack = KeyUpdateAnnouncement(
        old_node_id=peer0.node_id,
        new_sp=peer1.keys.sp,  # already registered
        signature=system.backend.sign(
            peer0.keys.sr, ("key-update", peer1.keys.sp.to_bytes())
        ),
    )
    assert not agent.handle_key_update(hijack)


def test_rotation_invalidates_old_onion(system):
    peer = system.peers[0]
    onion_before = peer.ensure_onion()
    system.rotate_peer_keys(0)
    onion_after = peer.ensure_onion()
    assert onion_after is not onion_before
    assert onion_after.verify(system.backend, peer.keys.sp)
    assert not onion_after.verify(system.backend, onion_before and system.backend and peer.keys.ap)
