"""Unit tests for the wire-size model."""

import pytest

from repro.core.agent import ReputationAgent
from repro.core.messages import (
    KeyUpdateAnnouncement,
    TrustRequestBody,
    TrustValueRequest,
)
from repro.core import wire
from repro.core.wire import (
    BLOB_FIELD_BYTES,
    LAYER_STEP_BYTES,
    SEAL_BLOCK_BYTES,
    FRAME_OVERHEAD,
    decode,
    encode,
    first_hop_size,
    onward_size,
    wire_size,
)
from repro.crypto.backend import get_backend
from repro.crypto.keys import PeerKeys
from repro.errors import ConfigError
from repro.net.messages import DEFAULT_MESSAGE_BYTES
from repro.onion.onion import OnionLayer, build_onion
from repro.onion.routing import OnionPacket


@pytest.fixture
def setup(rng):
    backend = get_backend("simulated")
    keys = [PeerKeys.generate(backend, rng) for _ in range(12)]
    return backend, keys


def make_onion(backend, keys, relays):
    relay_keys = [(i + 1, keys[i + 1].ap) for i in range(relays)]
    return build_onion(backend, keys[0].ap, keys[0].sr, 0, relay_keys, seq=1)


def make_request(backend, keys, relays=3):
    onion = make_onion(backend, keys, relays)
    body = TrustRequestBody(subject=keys[5].node_id, nonce=7)
    return TrustValueRequest(
        sealed_body=backend.encrypt(keys[6].sp, body),
        requestor_sp=keys[0].sp,
        requestor_onion=onion,
    )


def test_onion_size_grows_with_depth(setup):
    backend, keys = setup
    sizes = [
        wire_size(make_request(backend, keys, relays=r)) for r in (0, 2, 5, 9)
    ]
    assert sizes == sorted(sizes)
    assert sizes[-1] > sizes[0]


def test_report_small_and_constant(setup):
    backend, keys = setup
    report = ReputationAgent.make_signed_result(
        backend, keys[0], keys[5].node_id, 1.0, nonce=9
    )
    size = wire_size(report)
    assert size < 200
    report2 = ReputationAgent.make_signed_result(
        backend, keys[1], keys[6].node_id, 0.0, nonce=10
    )
    assert wire_size(report2) == size


def test_key_update_size(setup):
    backend, keys = setup
    ann = KeyUpdateAnnouncement(
        old_node_id=keys[0].node_id,
        new_sp=keys[1].sp,
        signature=backend.sign(keys[0].sr, "x"),
    )
    assert 100 < wire_size(ann) < 300


def test_onion_packet_includes_inner_message(setup):
    backend, keys = setup
    request = make_request(backend, keys)
    onion = make_onion(backend, keys, 3)
    packet = OnionPacket(blob=onion.blob, message=request, category="c", sent_at=0.0)
    assert wire_size(packet) > wire_size(request)


def _peel_chain(backend, keys, first, here):
    """The packets a path's relays forward (node ``i`` holds ``keys[i]``),
    each with the packet it was peeled from."""
    packet = first
    while True:
        layer = backend.decrypt(keys[here].ar, packet.blob)
        if layer.next_ip < 0:
            return
        inner = OnionPacket(layer.inner, packet.message, packet.category, packet.sent_at)
        yield inner, packet
        packet, here = inner, layer.next_ip


@pytest.mark.parametrize("name", ["simulated", "rsa"])
@pytest.mark.parametrize("relays", [0, 1, 4])
def test_packet_size_is_wire_size_at_every_hop(rng, name, relays):
    """The size a packet carries, charged at the origin and counted down
    each peel, against the walk of the packet (the RSA blob, whose depth is
    only estimated, is measured from its length every hop)."""
    backend = get_backend(name)
    keys = [PeerKeys.generate(backend, rng) for _ in range(7)]
    onion = make_onion(backend, keys, relays)
    message = make_request(backend, keys, relays=2)
    first = OnionPacket(onion.blob, message, "c", 0.0)
    assert onion.layers == (relays + 1 if name == "simulated" else 0)
    first.nbytes = first_hop_size(onion, message)
    assert first.nbytes == wire_size(OnionPacket(onion.blob, message, "c", 0.0))
    hops = 0
    for inner, outer in _peel_chain(backend, keys, first, onion.first_hop):
        size = onward_size(outer, inner.blob)
        assert size == wire_size(inner)  # inner carries no size yet: walked
        inner.nbytes = size
        hops += 1
    assert hops == relays


def test_packet_size_measures_what_it_cannot_count_down_to(setup):
    """Under a single layer there is no valid blob: a forged layer naming
    a next hop over junk trades the layer's field for the junk's, as the
    walk sizes it."""
    backend, keys = setup
    message = make_request(backend, keys)
    outer = OnionPacket(backend.encrypt(keys[1].ap, OnionLayer(2, "junk")), message, "c", 0.0)
    outer.nbytes = wire_size(outer)
    inner = OnionPacket("junk", message, "c", 0.0)
    assert onward_size(outer, "junk") == wire_size(inner)
    # The size is not a wire field: equality does not see it, and the frame
    # only as its padding.
    assert encode(outer) == encode(OnionPacket(outer.blob, message, "c", 0.0))
    assert outer == OnionPacket(outer.blob, message, "c", 0.0)
    # decode() reads it off the frame itself, so a live relay's
    # onward_size(inbound, blob) counts down from it.
    frame = encode(outer)
    inbound = decode(frame)
    assert inbound.nbytes == len(frame) - FRAME_OVERHEAD == outer.nbytes
    assert onward_size(inbound, inbound.blob.payload.inner) == wire_size(inner)


def test_blob_field_by_depth_is_the_size_model(setup):
    """The depth table a relay counts down with: a 16-byte core in a 2-byte
    field, then one sealed layer (IP + inner blob, 64-byte blocks) per relay."""
    backend, keys = setup
    expected = [18, 68, 132, 196, 260, 324, 388]
    for relays, field in enumerate(expected[1:]):  # depth = relays + 1
        onion = make_onion(backend, keys, relays)
        packet = OnionPacket(onion.blob, None, "c", 0.0)
        assert wire_size(packet) == field + DEFAULT_MESSAGE_BYTES
        assert first_hop_size(onion, None) == field + DEFAULT_MESSAGE_BYTES
    assert BLOB_FIELD_BYTES[: len(expected)] == expected


def test_every_layer_past_the_first_is_one_step():
    """The law a relay counts down by: from depth 2 on, one more sealed
    layer is one more seal block of the recursion's field, to any depth."""
    assert LAYER_STEP_BYTES == SEAL_BLOCK_BYTES
    for depth in range(2, 257):
        assert wire._depth_field(depth) - wire._depth_field(depth - 1) == LAYER_STEP_BYTES
    # Not from depth 1: the core's field is no seal block.
    assert wire._depth_field(1) - wire._depth_field(0) != LAYER_STEP_BYTES


def test_a_step_the_recursion_breaks_fails_loudly(monkeypatch):
    monkeypatch.setattr(wire, "LAYER_STEP_BYTES", SEAL_BLOCK_BYTES + 1)
    with pytest.raises(ConfigError, match="depth"):
        wire._check_layer_step(8)


def test_unknown_payload_default(setup):
    assert wire_size({"arbitrary": 1}) == DEFAULT_MESSAGE_BYTES


def test_sealed_block_granularity():
    assert SEAL_BLOCK_BYTES == 64


def test_rsa_and_simulated_backends_close(rng):
    """Both backends should yield similar packet sizes (same model)."""
    sizes = {}
    for name in ("simulated", "rsa"):
        backend = get_backend(name)
        keys = [PeerKeys.generate(backend, rng) for _ in range(5)]
        request = TrustValueRequest(
            sealed_body=backend.encrypt(
                keys[1].sp, TrustRequestBody(subject=keys[2].node_id, nonce=3)
            ),
            requestor_sp=keys[0].sp,
            requestor_onion=build_onion(
                backend, keys[0].ap, keys[0].sr, 0,
                [(1, keys[1].ap), (2, keys[2].ap)], seq=1,
            ),
        )
        sizes[name] = wire_size(request)
    ratio = sizes["rsa"] / sizes["simulated"]
    assert 0.4 < ratio < 2.5
