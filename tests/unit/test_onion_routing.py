"""Unit tests for onion-routed delivery and the key store."""

import pytest

from repro.crypto.keys import PeerKeys
from repro.crypto.nonce import NonceRegistry
from repro.errors import OnionError, UnknownNodeError
from repro.net.latency import ConstantLatency
from repro.net.network import P2PNetwork
from repro.net.topology import ring_lattice
from repro.onion.handshake import HandshakeInitiator, HandshakeResponder
from repro.onion.onion import Onion, OnionLayer, build_onion
from repro.onion.relay import AnonymityKeyStore, RelayRegistry
from repro.onion.routing import OnionRouter, expected_onion_messages


N = 8


@pytest.fixture
def world(sim_backend, rng):
    net = P2PNetwork(
        ring_lattice(N, k=1),
        rng,
        latency_model=ConstantLatency(10.0),
        model_transmission=False,
    )
    keys = [PeerKeys.generate(sim_backend, rng) for _ in range(N)]
    router = OnionRouter(net, sim_backend)
    for ip, k in enumerate(keys):
        router.register_node(ip, k.ar)
        net.register_handler(ip, router.handle)
    return net, keys, router


def make_onion(sim_backend, keys, owner_ip, relay_ips, seq=1):
    relay_keys = [(ip, keys[ip].ap) for ip in relay_ips]
    return build_onion(
        sim_backend, keys[owner_ip].ap, keys[owner_ip].sr, owner_ip, relay_keys, seq
    )


def test_delivery_through_relays(sim_backend, world):
    net, keys, router = world
    got = []
    router.set_endpoint(0, lambda m, t: got.append(m))
    onion = make_onion(sim_backend, keys, 0, [2, 4, 6])
    router.send(5, onion, "hello", category="trust_query")
    net.run()
    assert got == ["hello"]
    assert router.delivered == 1


def test_message_count_is_relays_plus_one(sim_backend, world):
    net, keys, router = world
    router.set_endpoint(0, lambda m, t: None)
    onion = make_onion(sim_backend, keys, 0, [2, 4, 6])
    router.send(5, onion, "x", category="cat")
    net.run()
    assert net.counter.by_category["cat"] == 4 == expected_onion_messages(3)


def test_relayless_onion_single_message(sim_backend, world):
    net, keys, router = world
    got = []
    router.set_endpoint(3, lambda m, t: got.append(m))
    onion = make_onion(sim_backend, keys, 3, [])
    router.send(1, onion, "direct", category="cat")
    net.run()
    assert got == ["direct"]
    assert net.counter.by_category["cat"] == 1


def test_latency_accumulates_per_hop(sim_backend, world):
    net, keys, router = world
    elapsed = []
    router.set_endpoint(0, lambda m, t: elapsed.append(net.engine.now - t))
    onion = make_onion(sim_backend, keys, 0, [2, 4])
    router.send(5, onion, "x", category="cat")
    net.run()
    assert elapsed == [pytest.approx(30.0)]  # 3 hops x 10ms


def test_offline_relay_drops_message(sim_backend, world):
    net, keys, router = world
    got = []
    router.set_endpoint(0, lambda m, t: got.append(m))
    net.set_online(4, False)
    onion = make_onion(sim_backend, keys, 0, [2, 4, 6])
    router.send(5, onion, "x", category="cat")
    net.run()
    assert got == []


def test_unregistered_node_drops(sim_backend, world):
    net, keys, router = world
    router._keys.pop(4)  # node 4 lost its key material
    onion = make_onion(sim_backend, keys, 0, [2, 4, 6])
    router.send(5, onion, "x", category="cat")
    net.run()
    assert router.dropped == 1


@pytest.mark.parametrize("next_ip", [N, 10_000])
def test_a_layer_naming_no_node_drops(sim_backend, world, next_ip):
    """A forged layer, sealed to a real relay, that names no node: the
    relay drops it and counts it; nothing raises out of delivery."""
    net, keys, router = world
    inner = make_onion(sim_backend, keys, 0, [2]).blob
    forged = sim_backend.encrypt(keys[6].ap, OnionLayer(next_ip, inner))
    onion = Onion(first_hop=6, blob=forged, seq=1, signature=None)
    router.send(5, onion, "x", category="cat")
    net.run()
    assert (router.delivered, router.dropped) == (0, 1)
    assert net.counter.by_category["cat"] == 1  # the one hop to the relay


def test_non_onion_payloads_fall_through(sim_backend, world):
    net, keys, router = world
    net.send(0, 1, {"plain": True})
    net.run()  # router.handle returns False, nothing raises
    assert router.delivered == 0


def test_expected_onion_messages_validation():
    assert expected_onion_messages(0) == 1
    with pytest.raises(OnionError):
        expected_onion_messages(-1)


class TestAnonymityKeyStore:
    @pytest.fixture
    def setup(self, sim_backend, rng):
        net = P2PNetwork(ring_lattice(4, k=1), rng, model_transmission=False)
        keys = [PeerKeys.generate(sim_backend, rng) for _ in range(4)]
        registry = RelayRegistry()
        for ip, k in enumerate(keys):
            registry.register(
                ip,
                HandshakeResponder(sim_backend, k.ap, k.ar, ip, NonceRegistry(rng)),
            )
        store = AnonymityKeyStore(
            0,
            sim_backend,
            lambda: HandshakeInitiator(sim_backend, keys[0].ap, keys[0].ar, 0),
        )
        return net, keys, registry, store

    def test_learn_verifies_and_caches(self, setup):
        net, keys, registry, store = setup
        assert store.learn(net, registry, 2) == keys[2].ap
        assert store.known(2)
        before = net.counter.total
        store.learn(net, registry, 2)  # cached: no new messages
        assert net.counter.total == before
        assert store.handshakes_performed == 1

    def test_get_unknown_raises(self, setup):
        _net, _keys, _registry, store = setup
        with pytest.raises(UnknownNodeError):
            store.get(3)

    def test_forget(self, setup):
        net, keys, registry, store = setup
        store.learn(net, registry, 1)
        store.forget(1)
        assert not store.known(1)

    def test_registry_unknown_ip(self, setup):
        _net, _keys, registry, _store = setup
        with pytest.raises(UnknownNodeError):
            registry.responder(99)
