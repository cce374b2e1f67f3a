"""Unit tests for onion construction and peeling."""

import numpy as np
import pytest

from repro.core import wire
from repro.core.wire import WireSlice, decode, encode
from repro.crypto.keys import PeerKeys
from repro.crypto.simulated import Envelope
from repro.errors import OnionPeelError
from repro.net.messages import NetMessage
from repro.net.network import P2PNetwork
from repro.net.topology import ring_lattice
from repro.onion.onion import (
    OnionLayer,
    PeelOutcome,
    build_onion,
    circuit_usable,
    draw_relays,
    peel,
)
from repro.onion.routing import OnionPacket, OnionRouter
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


class TestDeliveredRule:
    """A layer is delivered when its next hop is negative or its inner is the
    fake-onion marker — on the object kernel (inner a Python value) and on
    the live plane (inner a decoded ``WireSlice``) alike."""

    @pytest.fixture
    def owner(self, sim_backend, rng):
        return PeerKeys.generate(sim_backend, rng)

    @staticmethod
    def as_decoded(blob):
        """``blob`` as a live relay holds it: through the codec and back."""
        return decode(encode(OnionPacket(blob, "m", "trust_query", 0.0))).blob

    @pytest.fixture
    def spies(self, monkeypatch):
        """Calls of ``Envelope.__eq__`` and of the codec's value encoder."""
        calls = []
        envelope_eq, encode_value = Envelope.__eq__, wire._encode_value

        def eq_spy(self, other):
            calls.append("Envelope.__eq__")
            return envelope_eq(self, other)

        def encode_spy(value, out):
            calls.append("encode")
            return encode_value(value, out)

        monkeypatch.setattr(Envelope, "__eq__", eq_spy)
        monkeypatch.setattr(wire, "_encode_value", encode_spy)
        return calls

    @pytest.mark.parametrize("decoded", [False, True], ids=["object", "live"])
    def test_core_and_forged_marker_layers_are_delivered(
        self, sim_backend, owner, decoded
    ):
        core = sim_backend.encrypt(owner.ap, OnionLayer(next_ip=-1, inner="__fake_onion__"))
        forged = sim_backend.encrypt(owner.ap, OnionLayer(next_ip=3, inner="__fake_onion__"))
        if decoded:
            core, forged = self.as_decoded(core), self.as_decoded(forged)
            assert isinstance(forged.payload.inner, WireSlice)
        outcomes = [peel(sim_backend, owner.ar, blob) for blob in (core, forged)]
        assert outcomes[0] == outcomes[1] == (True, None, None)
        assert outcomes[0] is outcomes[1]  # one shared outcome

    @pytest.mark.parametrize("decoded", [False, True], ids=["object", "live"])
    def test_relay_layers_are_forwarded_without_asking_the_inner(
        self, sim_backend, owner, rng, decoded, spies
    ):
        relay = PeerKeys.generate(sim_backend, rng)
        onion = build_onion(sim_backend, owner.ap, owner.sr, 0, [(1, relay.ap)], seq=1)
        junk = sim_backend.encrypt(relay.ap, OnionLayer(next_ip=4, inner="junk"))
        blobs = [onion.blob, junk]
        if decoded:
            blobs = [self.as_decoded(blob) for blob in blobs]
        spies.clear()
        relayed = peel(sim_backend, relay.ar, blobs[0])
        assert spies == []  # a sealed inner is neither compared nor encoded
        assert not relayed.delivered and relayed.next_ip == 0
        junked = peel(sim_backend, relay.ar, blobs[1])
        assert not junked.delivered and junked.next_ip == 4
        onward = self.as_decoded(relayed.inner) if decoded else relayed.inner
        assert peel(sim_backend, owner.ar, onward).delivered

    @pytest.mark.parametrize("decoded", [False, True], ids=["object", "live"])
    @pytest.mark.parametrize(
        "case, expected",
        [
            ("core", "delivered"),
            ("forged", "delivered"),
            ("relay", ("forwarded", 0)),
            ("junk", ("forwarded", 4)),
            ("misrouted", "dropped"),
            ("no-layer", "dropped"),
        ],
    )
    def test_peel_and_the_routers_hop_apply_one_rule(
        self, sim_backend, owner, rng, case, expected, decoded
    ):
        """``OnionRouter.handle`` peels in place; on every layer — each as
        an ``Envelope`` and as a decoded ``WireSlice`` — it delivers,
        forwards (to the same next hop) or drops exactly when ``peel``
        does."""
        relay = PeerKeys.generate(sim_backend, rng)
        onion = build_onion(sim_backend, owner.ap, owner.sr, 0, [(1, relay.ap)], seq=1)
        blob, key = {
            "core": (
                sim_backend.encrypt(owner.ap, OnionLayer(next_ip=-1, inner="__fake_onion__")),
                owner,
            ),
            "forged": (
                sim_backend.encrypt(owner.ap, OnionLayer(next_ip=3, inner="__fake_onion__")),
                owner,
            ),
            "relay": (onion.blob, relay),
            "junk": (sim_backend.encrypt(relay.ap, OnionLayer(next_ip=4, inner="junk")), relay),
            "misrouted": (onion.blob, owner),
            "no-layer": (sim_backend.encrypt(owner.ap, "not a layer"), owner),
        }[case]
        packet = OnionPacket(blob, "m", "trust_query", 0.0)
        if decoded:
            packet = decode(encode(packet))
        try:
            outcome = peel(sim_backend, key.ar, packet.blob)
            by_peel = "delivered" if outcome.delivered else ("forwarded", outcome.next_ip)
        except OnionPeelError:
            by_peel = "dropped"

        network = relay_network()
        router = OnionRouter(network, sim_backend)
        arrived, sent = [], []
        router.register_node(5, key.ar, lambda message, sent_at: arrived.append(message))
        network.observers.append(lambda msg: sent.append(msg.dst))
        assert router.handle(NetMessage(2, 5, packet)) is True
        answers = (
            ["delivered"] * router.delivered
            + [("forwarded", dst) for dst in sent]
            + ["dropped"] * router.dropped
        )
        assert answers == [by_peel] == [expected]
        assert arrived == (["m"] if expected == "delivered" else [])

    def test_outcome_is_an_immutable_named_tuple(self, sim_backend, owner):
        blob = sim_backend.encrypt(owner.ap, OnionLayer(next_ip=2, inner="junk"))
        outcome = peel(sim_backend, owner.ar, blob)
        assert isinstance(outcome, PeelOutcome) and isinstance(outcome, tuple)
        assert outcome._fields == ("delivered", "next_ip", "inner")
        assert tuple(outcome) == (False, 2, "junk")
        with pytest.raises(AttributeError):
            outcome.delivered = True


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
