"""Unit tests for the wire-size model."""

import pytest

from repro.core.agent import ReputationAgent
from repro.core.messages import (
    AgentListEntry,
    AgentListReply,
    KeyUpdateAnnouncement,
    TrustRequestBody,
    TrustValueRequest,
)
from repro.core.wire import (
    BLOB_FIELD_BYTES,
    SEAL_BLOCK_BYTES,
    decode,
    encode,
    packet_size,
    wire_size,
)
from repro.crypto.backend import get_backend
from repro.crypto.keys import PeerKeys
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


def test_agent_list_reply_scales_with_entries(setup):
    backend, keys = setup
    onion = make_onion(backend, keys, 2)

    def entry(i):
        return AgentListEntry(
            weight=1.0,
            agent_node_id=keys[i].node_id,
            agent_onion=onion,
            agent_sp=keys[i].sp,
            agent_ip=i,
        )

    small = AgentListReply(responder_ip=1, entries=(entry(1),))
    big = AgentListReply(responder_ip=1, entries=tuple(entry(i) for i in range(1, 9)))
    assert wire_size(big) > 4 * wire_size(small)


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
    """The router's carried sizing against the walk it replaces (the RSA
    blob, whose depth is only estimated, is walked every hop)."""
    backend = get_backend(name)
    keys = [PeerKeys.generate(backend, rng) for _ in range(7)]
    onion = make_onion(backend, keys, relays)
    first = OnionPacket(onion.blob, make_request(backend, keys, relays=2), "c", 0.0)
    assert packet_size(first) == wire_size(first)
    assert first.layers == (relays + 1 if name == "simulated" else 0)
    hops = 0
    for inner, outer in _peel_chain(backend, keys, first, onion.first_hop):
        assert packet_size(inner, outer) == wire_size(inner)
        hops += 1
    assert hops == relays


def test_packet_size_measures_what_it_cannot_count_down_to(setup):
    """Under a single layer there is no valid blob: a forged layer naming
    a next hop over junk is sized by the walk, as before."""
    backend, keys = setup
    message = make_request(backend, keys)
    outer = OnionPacket(backend.encrypt(keys[1].ap, OnionLayer(2, "junk")), message, "c", 0.0)
    packet_size(outer)
    assert outer.layers == 1
    inner = OnionPacket("junk", message, "c", 0.0)
    assert packet_size(inner, outer) == wire_size(inner)
    # Neither attribute is a wire field: frames and equality do not see them.
    assert encode(outer) == encode(OnionPacket(outer.blob, message, "c", 0.0))
    assert outer == OnionPacket(outer.blob, message, "c", 0.0)
    # decode() counts both from the frame itself, whatever the sender held,
    # so a live relay's packet_size(inner, inbound) counts down from them.
    outer.layers = 5
    inbound = decode(encode(outer))
    assert (inbound.layers, inbound.message_bytes) == (1, wire_size(message))


def test_blob_field_by_depth_is_the_size_model(setup):
    """The depth table a relay counts down with: a 16-byte core in a 2-byte
    field, then one sealed layer (IP + inner blob, 64-byte blocks) per relay."""
    backend, keys = setup
    expected = [18, 68, 132, 196, 260, 324, 388]
    for relays, field in enumerate(expected[1:]):  # depth = relays + 1
        packet = OnionPacket(make_onion(backend, keys, relays).blob, None, "c", 0.0)
        assert packet_size(packet) == field + DEFAULT_MESSAGE_BYTES
    assert BLOB_FIELD_BYTES[: len(expected)] == expected


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
