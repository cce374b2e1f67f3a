"""Property-based tests for the wire codec."""

from dataclasses import fields, is_dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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


def open_all(value):
    """Unpack every held slice reachable from ``value`` (what owners do)."""
    if isinstance(value, WireSlice):
        open_all(value.unpack())
    elif is_dataclass(value):
        for f in fields(value):
            open_all(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            open_all(item)


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
@settings(max_examples=400, deadline=None)
def test_mutated_valid_frames_raise_only_wire_error(
    frame, flips, cut, garbage, splice_at
):
    """Byte flips, truncation and spliced garbage on frames that got past
    the header — where 64 random bytes almost never reach."""
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
    try:
        open_all(decode(bytes(data)))
    except WireError:
        pass
