"""Onion-routed message delivery over the simulated network.

:class:`OnionRouter` is the transport glue: it owns, per node, the anonymity
private key needed to peel layers and the upper-layer delivery callback.
``send`` injects an :class:`OnionPacket` at the onion's entry relay; each
relay peels one layer and forwards; the owner's peel yields the fake-onion
core, at which point the inner protocol message is handed to the endpoint.

Every hop is a real :class:`~repro.net.messages.NetMessage` through the DES
engine, charged to the original protocol category — so Fig. 5's traffic
numbers include relay forwarding, and Fig. 8's response times accumulate
per-hop latency, exactly as deployed onion routing would behave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.crypto.backend import CipherBackend, PrivateKey
from repro.crypto.simulated import Envelope
from repro.errors import OnionError, OnionPeelError
from repro.net.messages import NetMessage
from repro.net.network import P2PNetwork
from repro.onion.onion import Onion, peel

__all__ = ["OnionPacket", "OnionRouter"]

Endpoint = Callable[[Any, float], None]  # (message, sent_at) -> None


@dataclass
class OnionPacket:
    """What travels hop to hop: remaining blob + the protocol message."""

    blob: Any
    message: Any
    category: str
    sent_at: float
    # What :func:`repro.core.wire.packet_size` remembers so the next relay
    # need not walk the onion again: the message's wire size and the
    # blob's sealed layers (0 = not counted).  Plain attributes, not
    # dataclass fields — never encoded, compared or printed.
    message_bytes = 0
    layers = 0


class OnionRouter:
    """Per-network onion transport."""

    def __init__(self, network: P2PNetwork, backend: CipherBackend) -> None:
        # Bound once per router, not per hop; function-scope because
        # repro.core imports this package.
        from repro.core.wire import BLOB_FIELD_BYTES, WireSlice, packet_size

        self._wire_slice = WireSlice
        self._size_of = packet_size
        self._blob_field = BLOB_FIELD_BYTES
        self.network = network
        self.backend = backend
        self._keys: dict[int, PrivateKey] = {}
        self._endpoints: dict[int, Endpoint] = {}
        self.delivered = 0
        self.dropped = 0

    def register_node(
        self, ip: int, ar: PrivateKey, endpoint: Endpoint | None = None
    ) -> None:
        """Attach a node's anonymity private key and delivery callback."""
        self._keys[ip] = ar
        if endpoint is not None:
            self._endpoints[ip] = endpoint

    def set_endpoint(self, ip: int, endpoint: Endpoint) -> None:
        self._endpoints[ip] = endpoint

    # -- sending ---------------------------------------------------------

    def send(
        self,
        sender_ip: int,
        onion: Onion,
        message: Any,
        *,
        category: str,
    ) -> None:
        """Route ``message`` along ``onion``'s path.

        The sender does not know (and never learns) the owner's IP: it only
        ever addresses the entry relay.
        """
        packet = OnionPacket(
            blob=onion.blob,
            message=message,
            category=category,
            sent_at=self.network.engine.now,
        )
        self.network.send(
            sender_ip,
            onion.first_hop,
            packet,
            category=category,
            size_bytes=self._size_of(packet),
        )

    # -- receiving (wired into node dispatchers) ---------------------------

    def handle(self, msg: NetMessage) -> bool:
        """Process a delivered network message if it is an onion packet.

        Returns True when consumed (so node dispatchers can fall through to
        other protocol handlers otherwise).
        """
        if not isinstance(msg.payload, OnionPacket):
            return False
        packet = msg.payload
        here = msg.dst
        ar = self._keys.get(here)
        if ar is None:
            self.dropped += 1
            return True
        try:
            delivered, next_ip, blob = peel(self.backend, ar, packet.blob)
        except OnionPeelError:
            # Misrouted or tampered onion: silently dropped, like a relay
            # that cannot decrypt would do.
            self.dropped += 1
            return True
        if delivered:
            # Over a real wire the message travelled sealed; only here, at
            # its owner, is it opened (a malformed one raises WireError).
            message = packet.message
            if isinstance(message, self._wire_slice):
                message = message.unpack()
            self.delivered += 1
            endpoint = self._endpoints.get(here)
            if endpoint is not None:
                endpoint(message, packet.sent_at)
            return True
        if not self.network.alive[here]:
            self.dropped += 1
            return True
        # Forward the peeled packet one hop inward.
        category = packet.category
        inner = OnionPacket(blob, packet.message, category, packet.sent_at)
        layers = packet.layers
        if layers > 1:
            # packet_size(inner, packet)'s count-down, in place: the
            # message is the same and the blob is one sealed layer thinner.
            size = inner.message_bytes = packet.message_bytes
            size += self._blob_field[layers - 1]
            inner.layers = layers - 1 if type(blob) is Envelope else 0
        else:
            size = self._size_of(inner, packet)
        self.network.send(here, int(next_ip), inner, category=category, size_bytes=size)
        return True


def expected_onion_messages(n_relays: int) -> int:
    """Hops consumed delivering one message via an onion of ``n_relays``.

    sender → entry relay, relay→relay (n-1 times), last relay → owner:
    ``n_relays + 1`` messages (== 1 when the onion has no relays).
    """
    if n_relays < 0:
        raise OnionError(f"negative relay count {n_relays}")
    return n_relays + 1
