"""A new-sequence onion over an unchanged path re-signs the sealed blob.

``HiRepPeer.fresh_onion`` keeps the current blob while the owner's AP and
IP and the ``(relay ip, cached AP)`` list are those it was sealed under,
and signs only ``("onion", seq, first_hop)`` again.  Sealing is
deterministic on both backends, so the kept blob is the one
``build_onion`` would seal: by value under the simulated backend, byte for
byte under RSA.  Every other path change still goes through
``build_onion``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.peer as peer_module
from repro.core.config import HiRepConfig
from repro.core.peer import HiRepPeer
from repro.core.system import HiRepSystem
from repro.crypto.keys import PeerKeys
from repro.onion.onion import build_onion

BACKENDS = ["simulated", "rsa"]


def make_system(backend: str) -> HiRepSystem:
    cfg = HiRepConfig(
        network_size=12,
        trusted_agents=5,
        refill_threshold=3,
        agents_queried=3,
        tokens=4,
        onion_relays=2,
        seed=7,
        crypto_backend=backend,
    )
    return HiRepSystem(cfg)


@pytest.fixture(params=BACKENDS)
def system(request) -> HiRepSystem:
    s = make_system(request.param)
    s.bootstrap()
    return s


@pytest.fixture
def builds(monkeypatch) -> list[int]:
    """Owner IPs of every ``build_onion`` call the peers make, in order."""
    calls: list[int] = []

    def counting(backend, owner_ap, owner_sr, owner_ip, relay_keys, seq):
        calls.append(owner_ip)
        return build_onion(backend, owner_ap, owner_sr, owner_ip, relay_keys, seq)

    monkeypatch.setattr(peer_module, "build_onion", counting)
    return calls


def rebuilt(peer: HiRepPeer, seq: int):
    """What ``build_onion`` seals over the peer's current path at ``seq``."""
    relay_keys = [(r, peer.key_store.get(r)) for r in peer._relay_ips]
    keys = peer.keys
    return build_onion(peer.backend, keys.ap, keys.sr, peer.ip, relay_keys, seq=seq)


def test_fresh_onion_is_the_onion_a_build_seals(system, builds):
    peer = system.peers[0]
    first = peer.ensure_onion()
    builds.clear()
    for step in range(1, 4):
        fresh = peer.fresh_onion()
        assert fresh.seq == first.seq + step
        assert fresh == rebuilt(peer, fresh.seq)  # blob, seq, hop, signature
        assert fresh.blob is first.blob
        assert fresh.layers == first.layers
        assert fresh.verify(system.backend, peer.keys.sp)
    assert builds == []


def test_a_changed_path_is_sealed_again(system, builds):
    peer = system.peers[0]
    peer.ensure_onion()
    network = system.network
    # A relay goes offline: new relays, a new blob.
    builds.clear()
    dead = peer._relay_ips[0]
    network.set_online(dead, False)
    onion = peer.fresh_onion()
    assert builds == [peer.ip] and dead not in peer._relay_ips
    assert onion == rebuilt(peer, onion.seq)
    network.set_online(dead, True)
    # A relay's cached AP is replaced: same relays, new keys.
    builds.clear()
    relay = peer._relay_ips[-1]
    other = PeerKeys.generate(system.backend, np.random.default_rng(99))
    peer.key_store._keys[relay] = other.ap
    onion = peer.fresh_onion()
    assert builds == [peer.ip]
    assert onion == rebuilt(peer, onion.seq)
    assert peer.fresh_onion().blob is onion.blob  # and is kept from then on
    assert builds == [peer.ip]
    # The owner adopts new keys: a new path, a new core, a new signature.
    builds.clear()
    peer.adopt_keys(PeerKeys.generate(system.backend, np.random.default_rng(100)))
    onion = peer.fresh_onion()
    assert builds == [peer.ip]
    assert onion == rebuilt(peer, onion.seq)
    assert onion.verify(system.backend, peer.keys.sp)
    # Keys swapped under a kept path (no adopt_keys): the core is sealed
    # to the owner's AP, so it is sealed again.
    builds.clear()
    peer.keys = PeerKeys.generate(system.backend, np.random.default_rng(101))
    onion = peer.fresh_onion()
    assert builds == [peer.ip]
    assert onion == rebuilt(peer, onion.seq)


def always_build(self: HiRepPeer, relay_keys: list):
    """``HiRepPeer._seal_onion`` as it stood: every onion built whole."""
    self._onion_seq += 1
    keys = self.keys
    self._current_onion = build_onion(
        self.backend, keys.ap, keys.sr, self.ip, relay_keys, seq=self._onion_seq
    )
    return self._current_onion


def play(backend: str, transactions: int) -> dict:
    system = make_system(backend)
    system.bootstrap()
    outcomes = [system.run_transaction() for _ in range(transactions)]
    return {
        "outcomes": outcomes,
        "onions": [p._current_onion for p in system.peers],
        "rngs": [p.rng.bit_generator.state for p in system.peers],
        "system_rng": system.rng.bit_generator.state,
        "counter": dict(system.network.counter.by_category),
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_matches_a_twin_that_always_rebuilds(backend, monkeypatch):
    transactions = 12 if backend == "simulated" else 4
    kept = play(backend, transactions)
    monkeypatch.setattr(HiRepPeer, "_seal_onion", always_build)
    assert kept == play(backend, transactions)


def test_churn_free_run_builds_first_onions_only(builds):
    system = make_system("simulated")
    system.bootstrap()
    for _ in range(40):
        system.run_transaction()
    assert not system.network.any_offline
    built = [p for p in system.peers if p._current_onion is not None]
    assert sorted(builds) == [p.ip for p in built]  # one build each
    assert sum(p._onion_seq for p in built) > 2 * len(built)  # the rest resealed
