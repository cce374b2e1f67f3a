"""Unit tests for onion construction and peeling."""

import numpy as np
import pytest

from repro.crypto.keys import PeerKeys
from repro.errors import OnionPeelError
from repro.net.network import P2PNetwork
from repro.net.topology import ring_lattice
from repro.onion.onion import build_onion, circuit_usable, draw_relays, peel
from repro.vector.network import ArrayNetwork


@pytest.fixture
def chain(backend, rng):
    """Owner + 3 relays with key material."""
    owner = PeerKeys.generate(backend, rng)
    relays = [PeerKeys.generate(backend, rng) for _ in range(3)]
    return owner, relays


def build(backend, owner, relays, seq=1):
    relay_keys = [(i + 1, r.ap) for i, r in enumerate(relays)]
    return build_onion(backend, owner.ap, owner.sr, 0, relay_keys, seq=seq)


def test_first_hop_is_outermost_relay(backend, chain):
    owner, relays = chain
    onion = build(backend, owner, relays)
    assert onion.first_hop == 3  # last entry in relay_keys


def test_full_peel_chain_reaches_owner(backend, chain):
    owner, relays = chain
    onion = build(backend, owner, relays)
    # Peel at relay 3 (outermost) -> next 2 -> next 1 -> owner.
    out3 = peel(backend, relays[2].ar, onion.blob)
    assert not out3.delivered and out3.next_ip == 2
    out2 = peel(backend, relays[1].ar, out3.inner)
    assert not out2.delivered and out2.next_ip == 1
    out1 = peel(backend, relays[0].ar, out2.inner)
    assert not out1.delivered and out1.next_ip == 0
    final = peel(backend, owner.ar, out1.inner)
    assert final.delivered
    assert final.next_ip is None


def test_wrong_relay_cannot_peel(backend, chain):
    owner, relays = chain
    onion = build(backend, owner, relays)
    with pytest.raises(OnionPeelError):
        peel(backend, relays[0].ar, onion.blob)  # inner relay, not outermost
    with pytest.raises(OnionPeelError):
        peel(backend, owner.ar, onion.blob)


def test_relayless_onion_delivers_to_owner(backend, rng):
    owner = PeerKeys.generate(backend, rng)
    onion = build_onion(backend, owner.ap, owner.sr, 5, [], seq=1)
    assert onion.first_hop == 5
    assert peel(backend, owner.ar, onion.blob).delivered


def test_signature_verifies_with_owner_sp(backend, chain):
    owner, relays = chain
    onion = build(backend, owner, relays)
    assert onion.verify(backend, owner.sp)


def test_signature_fails_with_other_key(backend, rng, chain):
    owner, relays = chain
    onion = build(backend, owner, relays)
    other = PeerKeys.generate(backend, rng)
    assert not onion.verify(backend, other.sp)


def test_seq_recorded(backend, chain):
    owner, relays = chain
    onion = build(backend, owner, relays, seq=42)
    assert onion.seq == 42


def test_tampered_blob_fails_peel(sim_backend, rng):
    owner = PeerKeys.generate(sim_backend, rng)
    relay = PeerKeys.generate(sim_backend, rng)
    build_onion(
        sim_backend, owner.ap, owner.sr, 0, [(1, relay.ap)], seq=1
    )
    with pytest.raises(OnionPeelError):
        peel(sim_backend, relay.ar, b"tampered")


def relay_network(kind=P2PNetwork, n=10, offline=()):
    net = kind(ring_lattice(n, k=1), np.random.default_rng(1))
    for node in offline:
        net.set_online(node, False)
    return net


class TestRandomRelayPath:
    """The relay draw (``draw_relays``, which replaced the caller-less
    ``random_relay_path``): distinct, never the owner, clamped to the pool."""

    def test_excludes_owner(self, rng):
        net = relay_network()
        for _ in range(50):
            assert 3 not in draw_relays(net, 3, 5, rng)

    def test_distinct_relays(self, rng):
        path = draw_relays(relay_network(n=20), 0, 10, rng)
        assert len(path) == len(set(path)) == 10

    def test_zero_relays(self, rng):
        net = relay_network(n=5)
        before = rng.bit_generator.state
        assert draw_relays(net, 0, 0, rng) == []
        assert draw_relays(net, 0, -2, rng) == []
        assert rng.bit_generator.state == before  # nothing drawn

    def test_oversubscription_returns_whole_pool(self, rng):
        path = draw_relays(relay_network(n=3), 0, 10, rng)
        assert sorted(path) == [1, 2]


def _object_kernel_draw(network, owner, count, rng):
    """``HiRepPeer.rebuild_onion``'s inline draw, as deleted."""
    pool = [r for r in network.online_nodes() if r != owner]
    n_relays = min(count, len(pool))
    if n_relays > 0:
        idx = rng.choice(len(pool), size=n_relays, replace=False)
        return [pool[int(i)] for i in idx]
    return []


def _array_kernel_draw(network, owner, count, rng):
    """``ArrayHiRepSystem._rebuild_onion``'s inline draw, as deleted."""
    online = network.online_indices()
    pool = online[online != owner]
    n_relays = min(count, int(pool.size))
    if n_relays > 0:
        idx = rng.choice(int(pool.size), size=n_relays, replace=False)
        return [int(r) for r in pool[idx]]
    return []


@pytest.mark.parametrize("kind", [P2PNetwork, ArrayNetwork])
@pytest.mark.parametrize(
    "offline",
    [(), (4,), (2, 6, 7), tuple(i for i in range(10) if i != 4)],
    ids=["all-online", "owner-offline", "some-offline", "only-owner-online"],
)
@pytest.mark.parametrize("count", [0, 3, 9, 6, 12])
def test_draw_relays_is_both_kernels_old_draw(kind, offline, count):
    """Same relays and same generator state as the two inline draws it
    replaced, for ``count`` below, at and above the pool size, and every
    relay a plain ``int`` (nothing numpy reaches an onion or the codec)."""
    net = relay_network(kind, offline=offline)
    owner = 4
    results, states = [], []
    for draw in (draw_relays, _object_kernel_draw, _array_kernel_draw):
        rng = np.random.default_rng(2006)
        results.append(draw(net, owner, count, rng))
        states.append(rng.bit_generator.state)
    assert results[0] == results[1] == results[2]
    assert states[0] == states[1] == states[2]
    pool = set(net.online_nodes()) - {owner}
    assert len(results[0]) == min(count, len(pool)) and set(results[0]) <= pool
    assert all(type(r) is int for r in results[0])


def test_circuit_usable_needs_relays_and_all_of_them_online():
    net = relay_network()
    assert circuit_usable(net, [1, 2, 3])
    assert circuit_usable(net, np.array([1, 2, 3], dtype=np.int32))
    assert not circuit_usable(net, [])  # a circuit with no relays is rebuilt
    net.set_online(2, False)
    assert not circuit_usable(net, [1, 2, 3])
    assert circuit_usable(net, [1, 3])
