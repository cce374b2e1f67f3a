"""Onion routing: key handshake, onion build/peel, routed delivery."""

from repro.onion.handshake import (
    Confirmation,
    HANDSHAKE_MESSAGES,
    HandshakeInitiator,
    HandshakeResponder,
    KeyResponse,
    RelayRequest,
    VerifyProbe,
    perform_handshake,
)
from repro.onion.onion import (
    Onion,
    OnionLayer,
    PeelOutcome,
    build_onion,
    circuit_usable,
    draw_relays,
    peel,
)
from repro.onion.relay import AnonymityKeyStore, RelayRegistry
from repro.onion.routing import OnionPacket, OnionRouter, expected_onion_messages

__all__ = [
    "Confirmation",
    "HANDSHAKE_MESSAGES",
    "HandshakeInitiator",
    "HandshakeResponder",
    "KeyResponse",
    "RelayRequest",
    "VerifyProbe",
    "perform_handshake",
    "Onion",
    "OnionLayer",
    "PeelOutcome",
    "build_onion",
    "circuit_usable",
    "draw_relays",
    "peel",
    "AnonymityKeyStore",
    "RelayRegistry",
    "OnionPacket",
    "OnionRouter",
    "expected_onion_messages",
]
