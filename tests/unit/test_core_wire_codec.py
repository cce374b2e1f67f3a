"""Unit tests for the wire codec: encode/decode round-trips and framing."""

import pytest

from repro.core.agent import ReputationAgent
from repro.core.messages import (
    KeyUpdateAnnouncement,
    TransactionReport,
    TrustRequestBody,
    TrustResponseBody,
    TrustValueRequest,
    TrustValueResponse,
)
from repro.core import wire
from repro.core.wire import (
    FRAME_OVERHEAD,
    WIRE_VERSION,
    WireSlice,
    decode,
    encode,
    wire_size,
)
from repro.crypto.backend import get_backend
from repro.crypto.keys import PeerKeys
from repro.errors import WireError
from repro.onion.onion import OnionLayer, build_onion
from repro.onion.routing import OnionPacket


@pytest.fixture
def setup(rng):
    backend = get_backend("simulated")
    keys = [PeerKeys.generate(backend, rng) for _ in range(12)]
    return backend, keys


def make_onion(backend, keys, relays=3):
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


def all_messages(backend, keys):
    """One instance of every protocol message shape."""
    onion = make_onion(backend, keys)
    request = make_request(backend, keys)
    report = ReputationAgent.make_signed_result(
        backend, keys[0], keys[5].node_id, 1.0, nonce=9
    )
    response = TrustValueResponse(
        sealed_body=backend.encrypt(
            keys[0].sp,
            TrustResponseBody(subject=keys[5].node_id, trust_value=0.75, nonce=7),
        ),
        agent_sp=keys[6].sp,
        agent_onion=onion,
    )
    return [
        TrustRequestBody(subject=keys[5].node_id, nonce=2**63),
        request,
        response,
        report,
        KeyUpdateAnnouncement(
            old_node_id=keys[0].node_id,
            new_sp=keys[1].sp,
            signature=backend.sign(keys[0].sr, "x"),
        ),
        OnionPacket(blob=onion.blob, message=request, category="c", sent_at=1.5),
    ]


def test_round_trip_every_message_shape(setup):
    backend, keys = setup
    for message in all_messages(backend, keys):
        decoded = decode(encode(message))
        assert decoded == message, type(message).__name__


def test_frame_length_matches_wire_size_model(setup):
    """The framed length must agree exactly with the §4 size model."""
    backend, keys = setup
    for message in all_messages(backend, keys):
        frame = encode(message)
        assert len(frame) == wire_size(message) + FRAME_OVERHEAD, (
            type(message).__name__
        )


def test_decoded_report_still_verifies(setup):
    """Signature checks must pass on the decoded copy (digest parity)."""
    backend, keys = setup
    report = ReputationAgent.make_signed_result(
        backend, keys[0], keys[5].node_id, 1.0, nonce=9
    )
    decoded = decode(encode(report))
    assert isinstance(decoded, TransactionReport)
    assert backend.verify(keys[0].sp, decoded.result, decoded.signature)


def test_round_trip_both_backends(backend, rng):
    keys = [PeerKeys.generate(backend, rng) for _ in range(8)]
    request = make_request(backend, keys, relays=2)
    assert decode(encode(request)) == request


def test_round_trip_extreme_scalars(setup):
    backend, keys = setup
    for nonce in (0, 1, -1, 2**64 - 1, -(2**63)):
        body = TrustRequestBody(subject=keys[5].node_id, nonce=nonce)
        assert decode(encode(body)) == body


def test_decode_rejects_bad_magic(setup):
    backend, keys = setup
    frame = bytearray(encode(TrustRequestBody(subject=keys[5].node_id, nonce=1)))
    frame[0] = 0xFF
    with pytest.raises(WireError):
        decode(bytes(frame))


def test_decode_rejects_bad_version(setup):
    backend, keys = setup
    frame = bytearray(encode(TrustRequestBody(subject=keys[5].node_id, nonce=1)))
    frame[2] = WIRE_VERSION + 1
    with pytest.raises(WireError):
        decode(bytes(frame))


def test_decode_rejects_truncation(setup):
    backend, keys = setup
    frame = encode(make_request(backend, keys))
    with pytest.raises(WireError):
        decode(frame[: len(frame) // 2])


def test_decode_rejects_unknown_tag(setup):
    backend, keys = setup
    frame = bytearray(encode(TrustRequestBody(subject=keys[5].node_id, nonce=1)))
    frame[FRAME_OVERHEAD] = 0xEE  # first body byte is the top-level type tag
    with pytest.raises(WireError):
        decode(bytes(frame))


def test_encode_rejects_unknown_payload():
    with pytest.raises(WireError):
        encode({"arbitrary": 1})


# -- hostile input: WireError and nothing else -------------------------------


def frame_of(body: bytes) -> bytes:
    """A well-formed frame header around an arbitrary body."""
    return b"hR" + bytes((WIRE_VERSION,)) + len(body).to_bytes(4, "big") + body


def test_decode_caps_nesting_instead_of_recursing():
    body = b"\x07\x00\x01" * 5000 + b"\x00"  # 5 000 one-element tuples
    with pytest.raises(WireError, match="nested deeper"):
        decode(frame_of(body))


@pytest.mark.parametrize("head", [b"\x05\x00\x02", b"\x08\x02"])
def test_decode_wraps_invalid_utf8(head):
    with pytest.raises(WireError, match="malformed string"):
        decode(frame_of(head + b"\xff\xfe"))


def test_decode_rejects_a_tag_that_cannot_fill_a_typed_field():
    """An OnionPacket of four Nones used to decode, then die in the router."""
    with pytest.raises(WireError, match="cannot fill OnionPacket.category"):
        decode(frame_of(b"\x25\x00\x00\x00\x00"))
    # None where a node id (bytes) belongs:
    with pytest.raises(WireError, match="cannot fill TrustRequestBody.subject"):
        decode(frame_of(b"\x26\x00\x03\x01\x07"))
    # ...while an Any-typed field stays open to every tag:
    assert decode(frame_of(b"\x21\x09\x01k\x00")).payload is None


def test_nesting_cap_is_three_times_the_deepest_legal_message(setup, monkeypatch):
    backend, keys = setup
    frames = [encode(m) for m in all_messages(backend, keys)]
    assert wire._MAX_NESTING == 3 * wire._DEEPEST_LEGAL
    monkeypatch.setattr(wire, "_MAX_NESTING", wire._DEEPEST_LEGAL)
    for frame in frames:
        decode(frame)
    monkeypatch.setattr(wire, "_MAX_NESTING", wire._DEEPEST_LEGAL - 1)
    with pytest.raises(WireError, match="nested deeper"):
        for frame in frames:
            decode(frame)


# -- opaque positions ---------------------------------------------------------


def test_opaque_positions_decode_to_slices_and_splice_back(setup):
    backend, keys = setup
    request = make_request(backend, keys)
    packet = OnionPacket(
        blob=make_onion(backend, keys).blob, message=request, category="c", sent_at=1.5
    )
    frame = encode(packet)
    decoded = decode(frame)
    assert type(decoded.message) is WireSlice
    layer = decoded.blob.payload
    assert isinstance(layer, OnionLayer) and type(layer.inner) is WireSlice
    assert encode(decoded) == frame  # byte-identical, nothing re-derived
    assert decoded.message.unpack() == request
    assert decoded.message == request and request == decoded.message
    assert decoded.message != make_request(backend, keys, relays=2)
    assert wire_size(decoded) == wire_size(packet)


def test_malformed_slice_surfaces_only_when_its_owner_unpacks_it(setup):
    backend, keys = setup
    packet = OnionPacket(
        blob=make_onion(backend, keys).blob,
        message=WireSlice(b"\x05\x00\x02\xff\xfe"),
        category="c",
        sent_at=0.0,
    )
    # The junk cannot be sized by unpacking it: the packet carries its size,
    # a sealed message modelled at 128 bytes.
    packet.nbytes = wire._blob_field(packet.blob) + 128
    frame = encode(packet)
    assert len(frame) == packet.nbytes + FRAME_OVERHEAD
    relayed = decode(frame)  # a relay's view: header only, no error
    assert relayed.nbytes == packet.nbytes
    with pytest.raises(WireError):
        relayed.message.unpack()
