"""Property test: a live relay's spliced hop against the decoded one.

``ServeNetwork.deliver_frame`` offers each frame at a node whose handler
is an onion router to ``OnionRouter.relay`` before decoding it; a relay
hop is forwarded as ``relay_frame``'s splice of the inbound bytes.  The
oracle is the path every relay took before: ``decode`` the frame, let
``OnionRouter.handle`` peel the packet as objects and ``encode`` the
onward one — :class:`DecodingNetwork` and :class:`DecodingRouter` keep
it, with the one rule both paths gained: a layer naming no node is
dropped, not sent.  The oracle sizes each onward packet from first
principles, walking both blobs to full depth (:func:`blob_field`), never
from the size the packet carries.

Hypothesis draws one frame: an onion of 0–6 relays on the simulated or
the RSA backend (a real one, or forged around a marker, junk, a sealed
blob or raw bytes that open like a sealed layer and are not one, naming
any node, −1, N or 10 000), delivered at its entry relay or misrouted,
carrying a real message or a sealed junk one, under a short or a >255-byte
category and a float or int ``sent_at``; sometimes truncated, bit-flipped,
given trailing body bytes or junk padding.  Some nodes hold no key, some
are offline.  Both worlds deliver it, then every frame it causes in turn,
and must agree on each posted frame's bytes, the observer stream
``(src, dst, category, size_bytes)`` and each payload's bytes, every
endpoint call, ``delivered`` / ``dropped``, ``frames_received`` /
``frames_rejected`` / ``frames_sent``, the counter's categories, and every
exception raised.

Shown to fail under each of these seeded mutations of the splice and of
the count-down rule (``onward_size``): the step one byte short or long;
a pad one byte short; the sealed test dropped from the rule, or from the
splice (``hop.sealed``: a marker inner spliced); the rule's test that an
``Envelope`` was peeled dropped (an RSA layer around a lookalike inner);
the rule's trade of blob fields dropped; ``nbytes`` not carried off the
frame by ``decode``; the fingerprint check skipped; the splice taken for
an owner's layer (``next_ip < 0`` not tested); ``read_hop`` accepting a
body with trailing data; and ``_forwards`` without its bounds test.  The
drawn cases alone kill each at five hypothesis seeds of five, the
owner's layer at three and the ``Envelope`` test at two; the full run,
explicit examples included, kills every one.  ``handle`` not setting
the onward packet's ``nbytes`` survives here — the next hop reads it off
the frame — and is killed by ``test_prop_hop.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.messages import SignedResult, TransactionReport, TrustValueRequest
from repro.core.wire import (
    _ENVELOPE_TAG,
    _LAYER_TAG,
    _T_BYTES8,
    _T_INT,
    FRAME_OVERHEAD,
    SEAL_BLOCK_BYTES,
    WireSlice,
    _depth_field,
    _encode_value,
    decode,
    encode,
    wire_size,
)
from repro.crypto.backend import get_backend
from repro.crypto.simulated import Envelope
from repro.crypto.keys import PeerKeys
from repro.errors import NetworkError, OnionPeelError, UnknownNodeError, WireError
from repro.net.messages import Category, NetMessage
from repro.net.network import P2PNetwork
from repro.net.topology import ring_lattice
from repro.onion.onion import Onion, OnionLayer, build_onion, peel
from repro.onion.routing import OnionPacket, OnionRouter
from repro.serve.network import ServeNetwork
from repro.serve.transport import Frame

N = 8
SIM = get_backend("simulated")
SIM_KEYS = [PeerKeys.generate(SIM, np.random.default_rng(2006 + i)) for i in range(N)]
RSA = get_backend("rsa")
RSA_KEYS = [PeerKeys.generate(RSA, np.random.default_rng(4006 + i)) for i in range(N)]
MARKER = "__fake_onion__"
#: Opens like a sealed layer (Envelope tag, a one-byte fingerprint length)
#: and is not one; and the Envelope tag alone.
LOOKALIKES = [
    WireSlice(bytes([_ENVELOPE_TAG, 0x09, 2]) + b"fp" + b"\x03\x01\x05"),
    WireSlice(bytes([_ENVELOPE_TAG, 0x09, 40]) + b"short"),
    WireSlice(bytes([_ENVELOPE_TAG, 0x06, 0, 2]) + b"fp"),
]
MAX_FRAMES = 40  # a case's frames, the first included


# ------------------------------------------------------------------ the oracle


def slice_layers(raw: bytes) -> int:
    """Sealed onion layers nested in an encoded blob, read off the headers
    (``Envelope`` ▸ fingerprint ▸ ``OnionLayer`` ▸ next_ip ▸ length of the
    next slice) without opening anything."""
    layers = offset = 0
    try:
        while raw[offset] == _ENVELOPE_TAG and raw[offset + 1] == _T_BYTES8:
            layers += 1
            offset += 3 + raw[offset + 2]
            if raw[offset] != _LAYER_TAG or raw[offset + 1] != _T_INT:
                break
            offset += 3 + raw[offset + 2] + 2
    except IndexError:
        pass
    return layers


def blob_field(blob: Any) -> int:
    """The wire field of an onion blob at its full depth, walked through
    every object layer and then every header of a slice; an RSA blob's
    depth is estimated from its length, and anything else counts one."""
    depth, current = 0, blob
    while isinstance(current, Envelope):
        depth += 1
        if not isinstance(current.payload, OnionLayer):
            break
        current = current.payload.inner
    if isinstance(current, WireSlice):
        depth += slice_layers(current.raw)
    if not depth:
        depth = max(1, len(current) // (2 * SEAL_BLOCK_BYTES)) if type(current) is bytes else 1
    return _depth_field(depth)


class DecodingRouter(OnionRouter):
    """``handle`` as every relay ran it: peel the decoded packet, size the
    onward one from its blob's full depth and the message's size (the
    inbound frame less the inbound blob), encode it through
    ``network.send``."""

    def handle(self, msg: NetMessage) -> bool:
        if not isinstance(msg.payload, OnionPacket):
            return False
        packet, here = msg.payload, msg.dst
        ar = self._keys.get(here)
        if ar is None:
            self.dropped += 1
            return True
        try:
            outcome = peel(self.backend, ar, packet.blob)
        except OnionPeelError:
            self.dropped += 1
            return True
        if outcome.delivered:
            message = packet.message
            if isinstance(message, WireSlice):
                message = message.unpack()
            self.delivered += 1
            endpoint = self._endpoints.get(here)
            if endpoint is not None:
                endpoint(message, packet.sent_at)
            return True
        if not self.network.is_online(here) or not 0 <= outcome.next_ip < self.network.n:
            self.dropped += 1
            return True
        inner = OnionPacket(outcome.inner, packet.message, packet.category, packet.sent_at)
        message_bytes = msg.size_bytes - FRAME_OVERHEAD - blob_field(packet.blob)
        self.network.send(
            here,
            int(outcome.next_ip),
            inner,
            category=packet.category,
            size_bytes=blob_field(outcome.inner) + message_bytes,
        )
        return True


class DecodingNetwork(ServeNetwork):
    """Delivery and sending as they stood: every frame decoded, every send
    encoded in place, no router offered a frame."""

    def register_handler(self, index, handler):
        P2PNetwork.register_handler(self, index, handler)

    def send(self, src, dst, payload, *, category=Category.CONTROL, count=True, size_bytes=None):
        if not 0 <= src < self.n:
            raise UnknownNodeError(src)
        if not self.alive[src]:
            raise NetworkError(f"node {src} is offline and cannot send")
        if not 0 <= dst < self.n:
            raise UnknownNodeError(dst)
        encoded = encode(payload, size_bytes)
        now = self.engine.now
        msg = NetMessage(src, dst, payload, category, len(encoded), now)
        if count:
            self.counter.count(category)
        for observer in self.observers:
            observer(msg)
        self.transport.post(Frame(src, dst, category, now, encoded))
        self.frames_sent += 1
        return msg

    def deliver_frame(self, frame):
        if not (0 <= frame.src < self.n and 0 <= frame.dst < self.n):
            self.transport.frames_rejected += 1
            return
        if not self.alive[frame.dst]:
            return
        handler = self._handlers.get(frame.dst)
        if handler is None:
            return
        try:
            payload = frame.payload
            handler(
                NetMessage(
                    frame.src,
                    frame.dst,
                    decode(payload),
                    frame.category,
                    len(payload),
                    frame.sent_at,
                )
            )
        except WireError:
            self.transport.frames_rejected += 1
        else:
            self.frames_received += 1


# ------------------------------------------------------------------- one case


class Clock:
    now = 250.0


class Posts:
    """A transport that keeps what is posted."""

    def __init__(self) -> None:
        self.frames: list[Frame] = []
        self.frames_rejected = 0

    def post(self, frame: Frame) -> None:
        self.frames.append(frame)


@dataclass(frozen=True)
class Case:
    rsa: bool
    src: int
    at: int
    frame: bytes
    unkeyed: frozenset[int]
    offline: frozenset[int]


def wire_bytes(payload: Any) -> bytes:
    if isinstance(payload, WireSlice):
        return payload.raw
    out = bytearray()
    _encode_value(payload, out)
    return bytes(out)


def play(case: Case, network_cls: type, router_cls: type) -> dict[str, Any]:
    backend, keys = (RSA, RSA_KEYS) if case.rsa else (SIM, SIM_KEYS)
    posts = Posts()
    net = network_cls(
        ring_lattice(N, k=1), np.random.default_rng(5), engine=Clock(), transport=posts
    )
    router = router_cls(net, backend)
    sends, endpoint, errors = [], [], []
    net.observers.append(
        lambda m: sends.append((m.src, m.dst, m.category, m.size_bytes, wire_bytes(m.payload)))
    )
    for ip in range(N):
        if ip not in case.unkeyed:
            router.register_node(ip, keys[ip].ar)
        router.set_endpoint(ip, lambda m, t, ip=ip: endpoint.append((ip, m, t)))
        net.register_handler(ip, router.handle)
    for ip in case.offline:
        net.set_online(ip, False)
    queue = [Frame(case.src, case.at, "trust_query", 0.0, case.frame)]
    delivered = 0
    while queue and delivered < MAX_FRAMES:
        frame = queue.pop(0)
        delivered += 1
        posted = len(posts.frames)
        try:
            net.deliver_frame(frame)
        except Exception as exc:  # compared, not expected
            errors.append((type(exc).__name__, str(exc)))
        queue.extend(posts.frames[posted:])
    return {
        "posted": [(f.src, f.dst, f.category, f.sent_at, f.payload) for f in posts.frames],
        "sends": sends,
        "endpoint": endpoint,
        "errors": errors,
        "router": (router.delivered, router.dropped),
        "frames": (net.frames_received, net.frames_rejected, net.frames_sent),
        "by_category": dict(net.counter.by_category),
    }


# ------------------------------------------------------------------ strategy

NODES = st.integers(0, N - 1)


def forged_onion(backend, keys, owner: int, relays: list[int], core: OnionLayer) -> Onion:
    """An onion around a hand-made core layer, wrapped like ``build_onion``."""
    blob = backend.encrypt(keys[owner].ap, core)
    prev = owner
    for ip in relays:
        blob = backend.encrypt(keys[ip].ap, OnionLayer(prev, blob))
        prev = ip
    return Onion(first_hop=prev, blob=blob, seq=1, signature=None)


def mangled(draw, frame: bytes) -> bytes:
    how = draw(st.sampled_from(["none"] * 6 + ["truncate", "flip", "trailing", "pad"]))
    if how == "none":
        return frame
    if how == "truncate":
        return frame[: draw(st.integers(0, len(frame) - 1))]
    if how == "flip":
        at = draw(st.integers(0, len(frame) - 1))
        return frame[:at] + bytes([frame[at] ^ (1 << draw(st.integers(0, 7)))]) + frame[at + 1 :]
    if how == "trailing":
        return trailing(frame)
    end = FRAME_OVERHEAD + int.from_bytes(frame[3:FRAME_OVERHEAD], "big")
    return frame[:end] + draw(st.binary(max_size=40))  # junk padding, or none


def trailing(frame: bytes) -> bytes:
    """``frame`` with one body byte more: the pad's first, or a zero."""
    body_len = int.from_bytes(frame[3:FRAME_OVERHEAD], "big")
    rest = frame[FRAME_OVERHEAD:]
    if len(rest) == body_len:
        rest += b"\x00"
    return frame[:3] + (body_len + 1).to_bytes(4, "big") + rest


MESSAGES = [
    "ping",
    TransactionReport(SignedResult(b"s" * 20, 0.5, 7), None, b"r" * 20),
    TrustValueRequest(
        None,
        SIM_KEYS[1].sp,
        build_onion(SIM, SIM_KEYS[1].ap, SIM_KEYS[1].sr, 1, [(2, SIM_KEYS[2].ap)], 1),
    ),
    WireSlice(b"\x05\x00\x09\xff"),  # sealed junk: only its owner can tell
]
#: The modelled size of the sealed junk, which cannot be sized by opening it.
JUNK_BYTES = 64


def onion_frame(
    rsa: bool,
    owner: int,
    relays: list[int],
    core: str = "real",
    next_ip: int = -1,
    message: Any = "ping",
    category: str = Category.TRUST_QUERY,
    sent_at: float = 0.0,
) -> tuple[int, bytes]:
    """The entry relay and the frame of a packet over a real onion, or
    over one forged around a ``core`` layer naming ``next_ip``."""
    backend, keys = (RSA, RSA_KEYS) if rsa else (SIM, SIM_KEYS)
    if core == "real":
        path = [(ip, keys[ip].ap) for ip in relays]
        onion = build_onion(backend, keys[owner].ap, keys[owner].sr, owner, path, seq=1)
    else:
        inner: Any = {
            "marker": MARKER,
            "junk": "junk",
            "sealed": backend.encrypt(keys[(owner + 1) % N].ap, OnionLayer(-1, MARKER)),
            **{f"lookalike{i}": slice_ for i, slice_ in enumerate(LOOKALIKES)},
        }[core]
        onion = forged_onion(backend, keys, owner, relays, OnionLayer(next_ip, inner))
    message_bytes = JUNK_BYTES if type(message) is WireSlice else wire_size(message)
    packet = OnionPacket(onion.blob, message, category, sent_at)
    return onion.first_hop, encode(packet, blob_field(onion.blob) + message_bytes)


def simple(at: int, frame: bytes) -> Case:
    return Case(False, 5, at, frame, frozenset(), frozenset())


#: A request to node 0 over relays 3 → 2 → 1: its entry relay and frame.
RELAYED = onion_frame(False, 0, [1, 2, 3], message=MESSAGES[2])


@st.composite
def cases(draw) -> Case:
    rsa = draw(st.integers(0, 4)) == 0
    owner = draw(NODES)
    relays = draw(
        st.lists(st.sampled_from([i for i in range(N) if i != owner]), unique=True, max_size=6)
    )
    cores = ["real", "marker", "junk", "sealed", "sealed"] + [f"lookalike{i}" for i in range(3)]
    entry, frame = onion_frame(
        rsa,
        owner,
        relays,
        draw(st.sampled_from(cores)),
        draw(st.sampled_from([-1, -1, N, 10_000]) | NODES),
        draw(st.sampled_from(MESSAGES)),
        draw(st.sampled_from([Category.TRUST_QUERY] * 2 + ["c" * 300, "ünïcode"])),
        draw(st.sampled_from([0.0, 17.25, 17.25, 3])),
    )
    return Case(
        rsa=rsa,
        src=draw(st.sampled_from([-1, N] + list(range(N)) * 4)),  # -1 and N name nobody
        at=entry if draw(st.integers(0, 5)) else draw(NODES),  # or misrouted
        frame=mangled(draw, frame),
        unkeyed=frozenset(draw(st.lists(NODES, max_size=2))),
        offline=frozenset(draw(st.lists(NODES, max_size=2))),
    )


@settings(max_examples=300, deadline=None)
@given(case=cases())
# One case for each way the splice could go wrong, whatever the draws.
@example(case=simple(*RELAYED))  # relay hops down to the owner
@example(case=simple(*onion_frame(False, 0, [1, 2], "sealed", -1)))  # an owner's layer
@example(case=simple(*onion_frame(False, 0, [1, 2], "marker", 4)))  # a fake onion naming a node
@example(case=simple(*onion_frame(False, 0, [1], "lookalike0", 3)))  # an inner that looks sealed
@example(case=replace(simple(*onion_frame(True, 0, [1], "lookalike0", 3)), rsa=True))  # …on RSA
@example(case=simple(*onion_frame(False, 0, [1, 2], "sealed", 10_000)))  # naming no node
@example(case=replace(simple(*RELAYED), at=4))  # misrouted
@example(case=simple(RELAYED[0], trailing(RELAYED[1])))  # trailing data
def test_spliced_hops_match_decoded_hops(case):
    assert play(case, ServeNetwork, OnionRouter) == play(case, DecodingNetwork, DecodingRouter)


def test_the_splice_is_taken_and_its_payload_is_the_decoded_packet():
    """A real onion's relay hops are spliced, not decoded: observers see a
    slice of the onward body, and it unpacks to the packet decoding built."""
    case = simple(*RELAYED)
    seen: list[Any] = []

    class Watching(ServeNetwork):
        def send_encoded(self, src, dst, frame, category, payload, *, count=True):
            seen.append(payload)
            return super().send_encoded(src, dst, frame, category, payload, count=count)

    spliced = play(case, Watching, OnionRouter)
    assert spliced == play(case, DecodingNetwork, DecodingRouter)
    assert spliced["router"] == (1, 0) and spliced["frames"] == (4, 0, 3)
    assert [type(p) for p in seen] == [WireSlice] * 3
    inbound = decode(case.frame)
    onward = replace(inbound, blob=peel(SIM, SIM_KEYS[3].ar, inbound.blob).inner)
    assert seen[0].unpack() == onward
