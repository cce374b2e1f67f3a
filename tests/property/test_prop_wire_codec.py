"""Property-based tests for the wire codec."""

import copy
import pickle
import struct
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.agent import ReputationAgent
from repro.core.messages import (
    KeyUpdateAnnouncement,
    TrustRequestBody,
    TrustResponseBody,
    TrustValueRequest,
    TrustValueResponse,
)
from repro.core import wire
from repro.core.wire import FRAME_OVERHEAD, WireSlice, decode, encode, wire_size
from repro.crypto.backend import get_backend
from repro.crypto.keys import PeerKeys
from repro.crypto.simulated import Envelope
from repro.errors import WireError
from repro.onion.onion import OnionLayer, build_onion, peel, reseal
from repro.onion.routing import OnionPacket

BACKEND = get_backend("simulated")
RNG = np.random.default_rng(777)
KEYS = [PeerKeys.generate(BACKEND, RNG) for _ in range(10)]

nonces = st.integers(min_value=-(2**63), max_value=2**64 - 1)
node_ids = st.sampled_from([k.node_id for k in KEYS])
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(subject=node_ids, nonce=nonces)
@settings(max_examples=80)
def test_request_body_round_trips(subject, nonce):
    body = TrustRequestBody(subject=subject, nonce=nonce)
    assert decode(encode(body)) == body


@given(subject=node_ids, trust=finite_floats, nonce=nonces)
@settings(max_examples=80)
def test_response_body_round_trips(subject, trust, nonce):
    body = TrustResponseBody(subject=subject, trust_value=trust, nonce=nonce)
    decoded = decode(encode(body))
    assert decoded.subject == body.subject
    assert decoded.nonce == body.nonce
    assert decoded.trust_value == body.trust_value or (
        np.isnan(decoded.trust_value) and np.isnan(body.trust_value)
    )


def onion_of(owner: int, relays: int, seq: int = 1):
    """An onion to KEYS[owner] through relays owner+1 … owner+relays."""
    relay_keys = [(owner + i, KEYS[owner + i].ap) for i in range(1, relays + 1)]
    return build_onion(
        BACKEND, KEYS[owner].ap, KEYS[owner].sr, owner, relay_keys, seq=seq
    )


def message_shapes(nonce: int, relays: int) -> list:
    """Every protocol message shape that can ride an onion."""
    onion = onion_of(0, relays, seq=nonce % 1000)
    return [
        TrustValueRequest(
            sealed_body=BACKEND.encrypt(
                KEYS[1].sp, TrustRequestBody(subject=KEYS[2].node_id, nonce=nonce)
            ),
            requestor_sp=KEYS[0].sp,
            requestor_onion=onion,
        ),
        TrustValueResponse(
            sealed_body=BACKEND.encrypt(
                KEYS[0].sp,
                TrustResponseBody(subject=KEYS[2].node_id, trust_value=0.25, nonce=nonce),
            ),
            agent_sp=KEYS[1].sp,
            agent_onion=onion,
        ),
        ReputationAgent.make_signed_result(
            BACKEND, KEYS[0], KEYS[2].node_id, 1.0, nonce=nonce
        ),
        KeyUpdateAnnouncement(
            old_node_id=KEYS[0].node_id,
            new_sp=KEYS[1].sp,
            signature=BACKEND.sign(KEYS[0].sr, "rotate"),
        ),
        TrustRequestBody(subject=KEYS[2].node_id, nonce=nonce),
    ]


@pytest.mark.parametrize("relays", range(7))
@given(
    nonce=nonces,
    sent_at=finite_floats,
    category=st.sampled_from(["trust_query", "trust_response", "transaction_report"]),
)
@settings(max_examples=12, deadline=None)
def test_relays_forward_sealed_and_the_owner_reads_the_original(
    relays, nonce, sent_at, category
):
    """Hop by hop: decode → peel → re-encode, for every shape × depth; each
    frame is as long as the same hop built from objects."""
    for message in message_shapes(nonce, relays):
        packet = OnionPacket(
            blob=onion_of(3, relays).blob,
            message=message,
            category=category,
            sent_at=sent_at,
        )
        as_objects = packet
        path = list(range(3 + relays, 2, -1))  # entry relay … owner (KEYS[3])
        with mock.patch.object(WireSlice, "unpack", autospec=True) as opened:
            for here in path:
                frame = encode(packet)
                assert len(frame) == wire_size(as_objects) + FRAME_OVERHEAD
                inbound = decode(frame)
                assert type(inbound.message) is WireSlice  # still sealed
                outcome = peel(BACKEND, KEYS[here].ar, inbound.blob)
                if outcome.delivered:
                    break
                assert outcome.next_ip == here - 1
                packet = OnionPacket(
                    blob=outcome.inner,
                    message=inbound.message,
                    category=inbound.category,
                    sent_at=inbound.sent_at,
                )
                packet.nbytes = wire.onward_size(inbound, outcome.inner)  # as a relay does
                as_objects = OnionPacket(
                    peel(BACKEND, KEYS[here].ar, as_objects.blob).inner, message, category, sent_at
                )
            assert here == 3 and outcome.delivered
            assert opened.call_count == 0  # no hop materialised anything
        assert inbound.message.unpack() == message
        assert (inbound.category, inbound.sent_at) == (category, sent_at)


@given(data=st.binary(min_size=0, max_size=64))
@settings(max_examples=80)
def test_decode_never_crashes_on_garbage(data):
    try:
        decode(data)
    except WireError:
        pass  # the only acceptable failure mode


# -- the hop reader against the plan ------------------------------------------
#
# A packet is decoded by the planned readers, or built from read_hop's read
# of its frame; it is encoded in one pass at the origin.  The oracles are
# decode(frame) without the read, and the encoder planned from
# _WIRE_CLASSES, installed in place of the origin's.


@contextmanager
def planned_packet_codec():
    origin = wire._ENCODERS[OnionPacket]
    wire._ENCODERS[OnionPacket], _ = wire._planned(OnionPacket)
    try:
        yield
    finally:
        wire._ENCODERS[OnionPacket] = origin


def canonical(value):
    """``value`` with every slice opened (what owners do) and every float
    as its bits, so NaNs compare and a slice is checked by what it holds."""
    if isinstance(value, WireSlice):
        return ("slice", value.raw, canonical(value.unpack()))
    if isinstance(value, float):
        return ("float", struct.pack(">d", value))
    if is_dataclass(value):
        return (type(value),) + tuple(canonical(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, tuple):
        return tuple(canonical(item) for item in value)
    return value


def outcome(frame, hop=None):
    """What decoding ``frame`` (from ``hop``, read_hop's read of it, if
    given) and opening everything in it comes to; any exception but
    WireError propagates."""
    try:
        value = decode(frame, hop)
        opened = canonical(value)
    except WireError as exc:
        return ("WireError", str(exc))
    if type(value) is OnionPacket:
        return opened, value.nbytes
    return opened


VALID_FRAMES = [
    encode(OnionPacket(onion_of(3, 4).blob, m, "trust_query", 2.5))
    for m in message_shapes(nonce=2**63, relays=3)
] + [encode(m) for m in message_shapes(nonce=7, relays=2)]


@given(
    frame=st.sampled_from(VALID_FRAMES),
    flips=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=255)),
        max_size=8,
    ),
    cut=st.one_of(st.none(), st.integers(min_value=0)),
    garbage=st.binary(max_size=4096),
    splice_at=st.one_of(st.none(), st.integers(min_value=0)),
)
@example(  # invalid UTF-8 in an otherwise well-formed hop header
    frame=VALID_FRAMES[0],
    flips=[(VALID_FRAMES[0].index(b"trust_query"), 0xFF)],
    cut=None,
    garbage=b"",
    splice_at=None,
)
@settings(max_examples=400, deadline=None)
def test_mutated_valid_frames_raise_only_wire_error(
    frame, flips, cut, garbage, splice_at
):
    """Byte flips, truncation and spliced garbage on frames that got past
    the header — where 64 random bytes almost never reach.  Decoding
    raises nothing but WireError, and a frame read_hop reads decodes from
    that read to what the plan gives: the same value and size, or the
    same WireError."""
    data = bytearray(frame)
    for position, byte in flips:
        data[position % len(data)] = byte
    if splice_at is not None:
        at = splice_at % (len(data) + 1)
        data[at:at] = garbage
        # keep the declared body covering the spliced bytes
        data[3:7] = (len(data) - FRAME_OVERHEAD).to_bytes(4, "big")
    if cut is not None:
        del data[cut % (len(data) + 1) :]
    frame = bytes(data)
    expected = outcome(frame)
    hop = wire.read_hop(frame)
    if hop is not None:
        assert outcome(frame, hop) == expected


RSA = get_backend("rsa")
RSA_KEYS = [PeerKeys.generate(RSA, np.random.default_rng(778)) for _ in range(7)]


def blob_of(backend_name, relays):
    if backend_name == "simulated":
        return onion_of(3, relays).blob
    relay_keys = [(i, RSA_KEYS[i].ap) for i in range(1, relays + 1)]
    return build_onion(RSA, RSA_KEYS[0].ap, RSA_KEYS[0].sr, 0, relay_keys, seq=1).blob


def as_slice(value):
    out = bytearray()
    wire._encode_value(value, out)
    return WireSlice(bytes(out))


def category_of(nbytes, fill):
    """A category of exactly ``nbytes`` UTF-8 bytes.  "é" spends two bytes
    a character, so 256 bytes are 128 characters; U+0004 is the float tag's
    byte, which a u16 category read as str8 would find where sent_at is."""
    return fill * (nbytes // len(fill.encode())) + "a" * (nbytes % len(fill.encode()))


@pytest.mark.parametrize("backend_name", ["simulated", "rsa"])
@pytest.mark.parametrize("relays", range(7))
@given(
    nonce=nonces,
    category=st.builds(
        category_of, st.sampled_from([0, 255, 256, 300]), st.sampled_from(["c", "é", "\x04"])
    ),
    # ints of every width, up to the nine bytes an f64's eight could be misread from
    sent_at=st.one_of(
        finite_floats,
        st.integers(min_value=-(2**63), max_value=2**63),
        st.sampled_from([-(2**63), 2**63]),
    ),
    blob_sliced=st.booleans(),
    message_sliced=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_hop_header_codec_matches_the_planned_codec(
    backend_name, relays, nonce, category, sent_at, blob_sliced, message_sliced
):
    on_layout = (
        backend_name == "simulated"
        and len(category.encode("utf-8")) <= 0xFF
        and type(sent_at) is float
    )
    blob = blob_of(backend_name, relays)
    if blob_sliced:
        blob = as_slice(blob)
    for message in message_shapes(nonce, relays):
        packet = OnionPacket(
            blob, as_slice(message) if message_sliced else message, category, sent_at
        )
        frame = encode(packet)
        with planned_packet_codec():
            assert encode(packet) == frame
        hop = wire.read_hop(frame)
        # On the layout, and only there, the hop is read, and decoding from
        # the read gives what the plan gives.
        assert (hop is not None) == on_layout
        if hop is not None:
            assert outcome(frame, hop) == outcome(frame)


@pytest.mark.parametrize("nested", [9, 10])
def test_hop_header_keeps_the_nesting_limit(nested):
    """A packet inside ``nested`` others: its layer header is the deepest
    legal value at 9 and one level too deep at 10."""
    packet = OnionPacket(onion_of(3, 1).blob, "m", "c", 0.5)
    for _ in range(nested):
        packet = OnionPacket(packet, "m", "c", 0.5)
    frame = encode(packet)
    with planned_packet_codec():
        assert encode(packet) == frame
    assert wire.read_hop(frame) is None  # a packet is no sealed layer
    assert (outcome(frame)[0] == "WireError") == (nested == 10)


# -- sealed values: encoded once ----------------------------------------------
#
# The Envelope encoder keeps the bytes it wrote on the instance and splices
# them afterwards.  The oracle is the planned Envelope encoder, which keeps
# nothing.


@contextmanager
def envelope_memo_bypassed():
    memo = wire._ENCODERS[Envelope]
    wire._ENCODERS[Envelope] = wire._encode_planned_envelope
    try:
        yield
    finally:
        wire._ENCODERS[Envelope] = memo


def envelopes_in(value):
    """Every Envelope reachable from ``value``: onion layers, sealed bodies."""
    if isinstance(value, Envelope):
        return [value] + envelopes_in(value.payload)
    if is_dataclass(value):
        return [e for f in fields(value) for e in envelopes_in(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [e for item in value for e in envelopes_in(item)]
    return []


def fields_in_order(value):
    """Every dataclass instance in ``value`` holds its fields in declaration
    order, as ``__init__`` stores them (what an unpickled copy gets)."""
    if is_dataclass(value):
        names = [f.name for f in fields(value)]
        return list(vars(value))[: len(names)] == names and all(
            fields_in_order(getattr(value, name)) for name in names
        )
    if isinstance(value, tuple):
        return all(fields_in_order(item) for item in value)
    return True


def looks(envelope):
    """What anyone can see of an Envelope without reading ``_wire``."""
    duplicate = copy.deepcopy(envelope)
    return (
        hash(envelope),
        repr(envelope),
        pickle.dumps(envelope),
        pickle.dumps(duplicate),
        vars(duplicate),
    )


@pytest.mark.parametrize("relays", range(7))
@given(nonce=nonces, bumps=st.integers(min_value=0, max_value=3), sent_at=finite_floats)
@settings(max_examples=10, deadline=None)
def test_sealed_values_encode_once_and_stay_invisible(relays, nonce, bumps, sent_at):
    """A resealed onion's blob and a fresh sealed body: the first and the
    second encode both give the planned bytes, and encoding changes
    nothing ``==``, ``hash``, ``repr``, ``pickle`` or ``deepcopy`` see —
    so no simulated signature digest depends on whether a value was sent."""
    onion = onion_of(0, relays, seq=1)
    for seq in range(2, 2 + bumps):
        onion = reseal(BACKEND, onion, KEYS[0].sr, seq)
    request = TrustValueRequest(
        sealed_body=BACKEND.encrypt(
            KEYS[1].sp, TrustRequestBody(subject=KEYS[2].node_id, nonce=nonce)
        ),
        requestor_sp=KEYS[0].sp,
        requestor_onion=onion,
    )
    packet = OnionPacket(onion_of(3, relays).blob, request, "trust_query", sent_at)
    sealed = envelopes_in(packet)
    assert len(sealed) == 2 * (relays + 1) + 1
    copies = [copy.deepcopy(e) for e in sealed]
    before = [looks(e) for e in sealed]
    with envelope_memo_bypassed():
        planned = encode(packet)
        planned_request = encode(request)
    assert all(e._wire is None for e in sealed)

    assert encode(packet) == planned
    assert all(e._wire is not None for e in sealed)
    assert encode(packet) == planned
    assert encode(request) == planned_request
    assert [looks(e) for e in sealed] == before
    assert sealed == copies and copies == sealed
    assert onion.verify(BACKEND, KEYS[0].sp)

    # The owner's side: decode, open the request, and send it on again.
    hop = decode(planned)
    inbound = hop.message.unpack()
    assert inbound == request
    # Decoded without __init__, laid out and pickled as if built by it.
    assert fields_in_order(hop) and fields_in_order(inbound)
    assert looks(inbound.sealed_body) == looks(request.sealed_body)
    with envelope_memo_bypassed():
        planned_again = encode(inbound)
    assert encode(inbound) == encode(inbound) == planned_again == planned_request


@st.composite
def inner_slices(draw):
    """Bytes a relay may find under its layer: a real blob (sealed on the
    simulated backend, raw on RSA) or its encoded message, as sent, cut
    short or with one bit flipped; or any bytes, the empty slice
    included."""
    kind = draw(st.sampled_from(["blob", "blob", "message", "junk"]))
    if kind == "junk":
        return draw(st.binary(max_size=8))
    if kind == "message":
        raw = as_slice("ping").raw
    else:
        backend_name = draw(st.sampled_from(["simulated", "rsa"]))
        raw = as_slice(blob_of(backend_name, draw(st.integers(0, 3)))).raw
    how = draw(st.sampled_from(["as sent", "truncate", "flip"]))
    if how == "truncate":
        return raw[: draw(st.integers(0, min(len(raw), 4)))]
    if how == "flip":
        at = draw(st.integers(0, min(len(raw), 3) - 1))
        return raw[:at] + bytes([raw[at] ^ (1 << draw(st.integers(0, 7)))]) + raw[at + 1 :]
    return raw


#: Messages whose length prefix, the two bytes after the inner slice, reads
#: as a sealed value's head after a one-byte inner or an empty one.
#: (A str of n > 255 bytes encodes to n + 3.)
PREFIXED = [
    "x" * (encoded - 3)
    for encoded in (0x0900 + wire._ENVELOPE_TAG, 0x100 * wire._ENVELOPE_TAG + wire._T_BYTES8)
]


@given(raw=inner_slices(), message=st.sampled_from(["ping", *PREFIXED]))
@example(raw=b"", message=PREFIXED[1])
@example(raw=bytes([wire._ENVELOPE_TAG]), message=PREFIXED[0])
@example(raw=bytes([wire._ENVELOPE_TAG, wire._T_BYTES8]), message="ping")
@settings(max_examples=300, deadline=None)
def test_read_hop_reads_a_sealed_inner_as_its_depth_walk_does(raw, message):
    """``read_hop`` and the count-down (``onward_size``) look at two bytes
    of the inner slice where the depth walk reads every header; all must
    call the same inners sealed, even where the bytes after the slice
    would pass for a sealed head."""
    outer = BACKEND.encrypt(KEYS[1].ap, OnionLayer(3, WireSlice(raw)))
    frame = encode(OnionPacket(outer, message, "trust_query", 0.0))
    hop = wire.read_hop(frame)
    assert hop is not None
    sealed = slice_layers(raw) >= 1
    assert hop.sealed == sealed
    inbound = decode(frame, hop)
    counted = wire.onward_size(inbound, inbound.blob.payload.inner)
    assert (counted == inbound.nbytes - wire.LAYER_STEP_BYTES) == sealed


def slice_layers(raw):
    """Sealed onion layers nested in an encoded blob, read off the headers
    (``Envelope`` ▸ fingerprint ▸ ``OnionLayer`` ▸ next_ip ▸ length of the
    next slice) without opening anything: the full depth walk."""
    layers = offset = 0
    try:
        while raw[offset] == wire._ENVELOPE_TAG and raw[offset + 1] == wire._T_BYTES8:
            layers += 1
            offset += 3 + raw[offset + 2]
            if raw[offset] != wire._LAYER_TAG or raw[offset + 1] != wire._T_INT:
                break
            offset += 3 + raw[offset + 2] + 2
    except IndexError:
        pass
    return layers
