"""Property-based tests for the wire codec."""

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
    AgentListEntry,
    AgentListReply,
    AgentListRequest,
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
from repro.errors import WireError
from repro.onion.onion import build_onion, peel
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


@given(
    requestor_ip=st.integers(min_value=0, max_value=2**31 - 1),
    tokens=st.integers(min_value=0, max_value=255),
    ttl=st.integers(min_value=0, max_value=255),
    request_id=nonces,
)
@settings(max_examples=80)
def test_agent_list_request_round_trips(requestor_ip, tokens, ttl, request_id):
    message = AgentListRequest(
        requestor_ip=requestor_ip, tokens=tokens, ttl=ttl, request_id=request_id
    )
    assert decode(encode(message)) == message


@given(
    relays=st.integers(min_value=0, max_value=6),
    weights=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=6
    ),
    responder_ip=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=40)
def test_agent_list_reply_round_trips_and_sizes(relays, weights, responder_ip):
    relay_keys = [(i + 1, KEYS[i + 1].ap) for i in range(relays)]
    onion = build_onion(
        BACKEND, KEYS[0].ap, KEYS[0].sr, 0, relay_keys, seq=relays
    )
    entries = tuple(
        AgentListEntry(
            weight=w,
            agent_node_id=KEYS[i % len(KEYS)].node_id,
            agent_onion=onion,
            agent_sp=KEYS[i % len(KEYS)].sp,
            agent_ip=i,
        )
        for i, w in enumerate(weights)
    )
    reply = AgentListReply(responder_ip=responder_ip, entries=entries)
    frame = encode(reply)
    assert decode(frame) == reply
    # The frame is padded up to the §4 size model; equality holds whenever
    # the model dominates the structural minimum (every realistic reply —
    # a degenerate entries=() reply has a 6-byte model, below the minimum).
    assert len(frame) >= wire_size(reply) + FRAME_OVERHEAD
    if entries:
        assert len(frame) == wire_size(reply) + FRAME_OVERHEAD


def onion_of(owner: int, relays: int, seq: int = 1):
    """An onion to KEYS[owner] through relays owner+1 … owner+relays."""
    relay_keys = [(owner + i, KEYS[owner + i].ap) for i in range(1, relays + 1)]
    return build_onion(
        BACKEND, KEYS[owner].ap, KEYS[owner].sr, owner, relay_keys, seq=seq
    )


def message_shapes(nonce: int, relays: int) -> list:
    """Every protocol message shape that can ride an onion."""
    onion = onion_of(0, relays, seq=nonce % 1000)
    entry = AgentListEntry(
        weight=0.5,
        agent_node_id=KEYS[2].node_id,
        agent_onion=onion,
        agent_sp=KEYS[2].sp,
        agent_ip=2,
    )
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
        AgentListRequest(requestor_ip=3, tokens=2, ttl=4, request_id=nonce),
        AgentListReply(responder_ip=1, entries=(entry, entry), self_entry=entry),
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
    """Hop by hop: decode → peel → re-encode, for every shape × depth."""
    for message in message_shapes(nonce, relays):
        packet = OnionPacket(
            blob=onion_of(3, relays).blob,
            message=message,
            category=category,
            sent_at=sent_at,
        )
        path = list(range(3 + relays, 2, -1))  # entry relay … owner (KEYS[3])
        with mock.patch.object(WireSlice, "unpack", autospec=True) as opened:
            for here in path:
                frame = encode(packet)
                assert len(frame) == wire_size(packet) + FRAME_OVERHEAD
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


# -- the hop header against the plan ------------------------------------------
#
# OnionPacket's codec is a fixed layout with the planned field readers as
# its fallback.  The oracle is the codec every other class has: the encoder
# and decoder planned from _WIRE_CLASSES, installed in its place.


@contextmanager
def planned_packet_codec():
    tag = wire._TAG_OF_CLASS[OnionPacket]
    fixed = wire._ENCODERS[OnionPacket], wire._DECODERS[tag]
    wire._ENCODERS[OnionPacket], wire._DECODERS[tag] = wire._planned(OnionPacket)
    try:
        yield
    finally:
        wire._ENCODERS[OnionPacket], wire._DECODERS[tag] = fixed


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


def outcome(frame):
    """What decoding ``frame`` and opening everything in it comes to; any
    exception but WireError propagates."""
    try:
        value = decode(frame)
        opened = canonical(value)
    except WireError as exc:
        return ("WireError", str(exc))
    if type(value) is OnionPacket:
        return opened, value.layers, value.message_bytes, value.message.size
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
    the header — where 64 random bytes almost never reach.  Both codecs
    raise nothing but WireError, and the hop header's gives what the plan
    gives: the same value and sizes, or the same WireError."""
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
    with planned_packet_codec():
        expected = outcome(bytes(data))
    assert outcome(bytes(data)) == expected


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
            expected = outcome(frame)
        with mock.patch.object(
            wire, "_decode_planned_packet", wraps=wire._decode_planned_packet
        ) as planned:
            assert outcome(frame) == expected
        # On the layout the fixed reader answers alone.
        assert planned.called != on_layout


@pytest.mark.parametrize("nested", [9, 10])
def test_hop_header_keeps_the_nesting_limit(nested):
    """A packet inside ``nested`` others: its layer header is the deepest
    legal value at 9 and one level too deep at 10."""
    packet = OnionPacket(onion_of(3, 1).blob, "m", "c", 0.5)
    for _ in range(nested):
        packet = OnionPacket(packet, "m", "c", 0.5)
    frame = encode(packet)
    with planned_packet_codec():
        expected = outcome(frame)
    assert outcome(frame) == expected
    assert (expected[0] == "WireError") == (nested == 10)
