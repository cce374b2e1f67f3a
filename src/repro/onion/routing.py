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
from typing import TYPE_CHECKING, Any, Callable

from repro.crypto.backend import CipherBackend, PrivateKey
from repro.crypto.simulated import Envelope
from repro.errors import OnionError
from repro.net.messages import NetMessage
from repro.net.network import P2PNetwork
from repro.onion.onion import _FAKE_ONION, Onion, OnionLayer

if TYPE_CHECKING:
    from repro.core.wire import Hop

__all__ = ["OnionPacket", "OnionRouter"]

Endpoint = Callable[[Any, float], None]  # (message, sent_at) -> None


@dataclass
class OnionPacket:
    """What travels hop to hop: remaining blob + the protocol message."""

    blob: Any
    message: Any
    category: str
    sent_at: float
    # The packet's modelled wire size (0 = not known): set where a packet
    # is made — the origin's send, decode (its frame's length), each
    # relay's peel (counted down by repro.core.wire.onward_size) — so no
    # hop walks the onion.  A plain attribute, not a dataclass field:
    # never encoded, compared or printed.
    nbytes = 0


class OnionRouter:
    """Per-network onion transport."""

    def __init__(self, network: P2PNetwork, backend: CipherBackend) -> None:
        # Bound once per router, not per hop; function-scope because
        # repro.core imports this package.
        from repro.core.wire import WireSlice, first_hop_size, onward_size, relay_frame

        self._wire_slice = WireSlice
        self._first_hop_size = first_hop_size
        self._onward_size = onward_size
        self._relay_frame = relay_frame
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
        packet.nbytes = size = self._first_hop_size(onion, message)
        self.network.send(sender_ip, onion.first_hop, packet, category=category, size_bytes=size)

    # -- receiving (wired into node dispatchers) ---------------------------

    def handle(self, msg: NetMessage) -> bool:
        """Process a delivered network message if it is an onion packet.

        Returns True when consumed (so node dispatchers can fall through to
        other protocol handlers otherwise).
        """
        packet = msg.payload
        if not isinstance(packet, OnionPacket):
            return False
        here = msg.dst
        ar = self._keys.get(here)
        if ar is None:
            self.dropped += 1
            return True
        # peel(), inlined (this runs once per hop): the same layer check
        # and delivered rule, without the outcome tuple.
        try:
            layer = self.backend.decrypt(ar, packet.blob)
        except Exception:
            layer = None
        if not isinstance(layer, OnionLayer):
            # Misrouted or tampered onion: silently dropped, like a relay
            # that cannot decrypt would do.
            self.dropped += 1
            return True
        next_ip, blob = layer.next_ip, layer.inner
        if next_ip < 0 or (type(blob) is not Envelope and blob == _FAKE_ONION):
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
        if not self._forwards(here, next_ip):
            return True
        # Forward the peeled packet one hop inward.
        category = packet.category
        inner = OnionPacket(blob, packet.message, category, packet.sent_at)
        inner.nbytes = size = self._onward_size(packet, blob)
        self.network.send(here, int(next_ip), inner, category=category, size_bytes=size)
        return True

    def relay(self, here: int, hop: Hop) -> bool:
        """Forward a live relay hop as the frame it arrived in.

        ``hop`` is :func:`~repro.core.wire.read_hop`'s read of a frame
        delivered to ``here`` (``ServeNetwork.deliver_frame`` offers every
        frame at a node this router handles).  The frame is dropped or
        forwarded by :meth:`handle`'s rules — no key, a key that does not
        open the outer layer, an offline relay or a hop naming no node
        each count one drop — and the onward frame is spliced from the
        inbound bytes (:func:`~repro.core.wire.relay_frame`): the bytes
        ``handle`` would encode.  Returns False, having done nothing, for
        a frame that is not a relay hop with a sealed inner — its owner's
        (``next_ip < 0``, or the fake onion inside), or one whose inner
        is not sealed, so the layer step does not size its onward frame —
        which the caller decodes for ``handle``.
        """
        next_ip = hop.next_ip
        if next_ip < 0 or not hop.sealed:
            return False
        ar = self._keys.get(here)
        if ar is None or not self.backend.opens(ar, hop.fingerprint):
            self.dropped += 1
        elif self._forwards(here, next_ip):
            frame, body = self._relay_frame(hop)
            self.network.send_encoded(here, next_ip, frame, hop.category, body)
        return True

    def _forwards(self, here: int, next_ip: int) -> bool:
        """Whether the relay at ``here`` forwards a layer naming
        ``next_ip``: only while it is online, and only to a node of the
        network.  A refusal counts one drop."""
        network = self.network
        if network.alive[here] and 0 <= next_ip < network.n:
            return True
        self.dropped += 1
        return False


def expected_onion_messages(n_relays: int) -> int:
    """Hops consumed delivering one message via an onion of ``n_relays``.

    sender → entry relay, relay→relay (n-1 times), last relay → owner:
    ``n_relays + 1`` messages (== 1 when the onion has no relays).
    """
    if n_relays < 0:
        raise OnionError(f"negative relay count {n_relays}")
    return n_relays + 1
