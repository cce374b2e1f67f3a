"""Wire sizes — and a real codec — for hiREP protocol messages.

The access-link serialization model (Fig. 8) needs per-message byte sizes.
Rather than a flat default, this module derives each protocol message's
wire size from its actual contents — key material lengths, onion depth,
signature sizes — using a compact TLV-style encoding model:

* every field costs a 2-byte length prefix plus its payload;
* sealed blobs cost the size of their plaintext plus cipher overhead
  (RSA: padded to modulus blocks; simulated backend: modelled at the same
  rate so both backends produce identical traffic *sizes*);
* an onion of depth d is d+1 nested sealed layers around a 16-byte core.

Absolute byte counts are a model, not a packet capture — what matters is
that *relative* sizes are right: onions grow linearly with depth, key
material dominates handshakes, reports are small.

The codec half (:func:`encode` / :func:`decode`) turns any protocol
message into a self-describing framed byte string and back, losslessly:
``decode(encode(m)) == m`` for every message in ``repro.core.messages``
plus the onion/crypto containers they carry.  Encoded bodies are padded up
to ``wire_size(message)`` so the transmitted frame length *is* the modelled
size (plus the fixed :data:`FRAME_OVERHEAD`) whenever the model's estimate
dominates the literal encoding — which holds for the simulated crypto
backend.  ``repro.serve`` ships these frames over real transports.

One table, :data:`_WIRE_CLASSES`, declares every composite type with its
size model; the encoder and decoder of each are planned from it once at
import.  The two positions the onion protocol (§3.3) hides from relays —
``OnionPacket.message`` and ``OnionLayer.inner`` — travel length-prefixed
and decode to a :class:`WireSlice` that :func:`encode` splices back
verbatim.  A live relay does not decode its frame at all: :func:`read_hop`
reads where the hop's fields sit — the one reader of that layout — and
:func:`relay_frame` splices the onward frame from the inbound bytes; an
owner's frame is decoded from the same read.
A packet carries its own wire size (``OnionPacket.nbytes``): charged at
the origin (:func:`first_hop_size`), read off the frame length at decode,
and counted down one peel at a time by one rule (:func:`onward_size`), so
no hop walks the onion's depth.
A sealed value (``Envelope``) is encoded by the plan once: the encoder
keeps the bytes on the instance and splices them on every later encode.
"""

from __future__ import annotations

import struct
from dataclasses import fields as dataclass_fields
from operator import attrgetter
from types import UnionType
from typing import Any, Callable, NamedTuple, Union, get_args, get_origin, get_type_hints

from repro.core.messages import (
    KeyUpdateAnnouncement,
    SignedResult,
    TransactionReport,
    TrustRequestBody,
    TrustResponseBody,
    TrustValueRequest,
    TrustValueResponse,
)
from repro.crypto.backend import PublicKey
from repro.crypto.simulated import Envelope, SimSignature
from repro.errors import ConfigError, WireError
from repro.net.messages import DEFAULT_MESSAGE_BYTES, Category
from repro.onion.onion import Onion, OnionLayer
from repro.onion.routing import OnionPacket

__all__ = [
    "wire_size",
    "first_hop_size",
    "onward_size",
    "BLOB_FIELD_BYTES",
    "encode",
    "decode",
    "WireSlice",
    "Hop",
    "read_hop",
    "relay_frame",
    "FRAME_OVERHEAD",
    "WIRE_VERSION",
    "SEAL_BLOCK_BYTES",
    "LAYER_STEP_BYTES",
]

_LEN_PREFIX = 2
#: Cipher block granularity: plaintext is padded up to multiples of this
#: (matches a 512-bit RSA modulus).
SEAL_BLOCK_BYTES = 64
_PUBLIC_KEY_BYTES = 72      # 512-bit modulus + exponent + framing
_SIGNATURE_BYTES = 66       # one modulus-sized block + framing
_NODE_ID_BYTES = 20         # SHA-1
_NONCE_BYTES = 8
_VALUE_BYTES = 8            # one float
_IP_BYTES = 4
_ONION_CORE_BYTES = 16


def _sealed(plaintext_bytes: int) -> int:
    """Ciphertext size for a plaintext of the given size."""
    blocks = max(1, -(-plaintext_bytes // SEAL_BLOCK_BYTES))
    return blocks * SEAL_BLOCK_BYTES + _LEN_PREFIX


def _field(n: int) -> int:
    return n + _LEN_PREFIX


class WireSlice:
    """One encoded value, held as the bytes it arrived in.

    Decoding leaves the two opaque positions as slices; :func:`encode`
    writes ``raw`` back untouched, so forwarding never parses it.  Only
    the value's owner calls :meth:`unpack`, and that is where a malformed
    slice raises :class:`~repro.errors.WireError`.
    """

    __slots__ = ("raw",)

    def __init__(self, raw: bytes) -> None:
        self.raw = raw

    def unpack(self) -> Any:
        """Decode the held value; nested opaque positions stay slices."""
        value, end = _decode_value(self.raw, 0, 0)
        if end != len(self.raw):
            raise WireError("malformed slice: value has trailing data")
        return value

    def __eq__(self, other: object) -> bool:
        """Equal to the value it encodes — compared as bytes, never opened."""
        if isinstance(other, WireSlice):
            return self.raw == other.raw
        if type(other) is str and self.raw[:1] not in _STR_HEADS:
            return False  # not text, so not this text: nothing to encode
        out = bytearray()
        try:
            _encode_value(other, out)
        except WireError:
            return NotImplemented
        return out == self.raw

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"WireSlice({len(self.raw)} bytes)"


# ---------------------------------------------------------------------------
# Size model
# ---------------------------------------------------------------------------

#: Wire size of an onion blob's field (length prefix included) by depth:
#: a 16-byte core, then one sealed layer (next-hop IP + inner blob) per
#: relay.  Grown on demand, never shrunk.
BLOB_FIELD_BYTES = [_field(_ONION_CORE_BYTES)]


def _depth_field(depth: int) -> int:
    while depth >= len(BLOB_FIELD_BYTES):
        blob = BLOB_FIELD_BYTES[-1] - _LEN_PREFIX
        BLOB_FIELD_BYTES.append(_field(_sealed(blob + _IP_BYTES)))
    return BLOB_FIELD_BYTES[depth]


#: What each sealed layer past the first adds to a blob's field: the
#: next-hop IP and the inner blob's length prefix fit in the slack its
#: seal block leaves, so the layer costs exactly that block.  A relay
#: counts its onward packet down by this step (:func:`onward_size`,
#: :func:`relay_frame`), never by the depth.
LAYER_STEP_BYTES = SEAL_BLOCK_BYTES


def _check_layer_step(max_depth: int) -> None:
    """Fail loudly when the recursion above stops stepping by
    :data:`LAYER_STEP_BYTES` at some depth 2 … ``max_depth``."""
    steps = {d: _depth_field(d) - _depth_field(d - 1) for d in range(2, max_depth + 1)}
    broken = {d: step for d, step in steps.items() if step != LAYER_STEP_BYTES}
    if broken:
        raise ConfigError(
            f"size model: a sealed layer past the first is not {LAYER_STEP_BYTES} "
            f"bytes at depth(s) {broken}"
        )


_check_layer_step(64)


def _blob_field(blob: Any) -> int:
    return _depth_field(_onion_depth(blob))


def _onion_depth(blob: Any) -> int:
    """Number of sealed layers in an onion blob (both backends)."""
    depth = 0
    current = blob
    while isinstance(current, Envelope):
        depth += 1
        payload = current.payload
        if not isinstance(payload, OnionLayer):
            break
        current = payload.inner
    if isinstance(current, WireSlice):
        depth += _slice_layers(current.raw)
    if depth:
        return depth
    # RSA backend: layers are opaque bytes; model depth from ciphertext
    # growth (each layer adds roughly one block round-trip).
    if isinstance(current, (bytes, bytearray)):
        return max(1, len(current) // (2 * SEAL_BLOCK_BYTES))
    return 1


def _slice_layers(raw: bytes) -> int:
    """Sealed onion layers nested in an encoded blob — the rest of a
    decoded onion (a request's ``requestor_onion``, say) — read off the
    headers (``Envelope`` ▸ fingerprint ▸ ``OnionLayer`` ▸ next_ip ▸
    length of the next slice) without opening anything."""
    layers = offset = 0
    try:
        while raw.startswith(_SEALED_HEAD, offset):
            layers += 1
            offset += 3 + raw[offset + 2]
            if raw[offset] != _LAYER_TAG or raw[offset + 1] != _T_INT:
                break
            offset += 3 + raw[offset + 2] + _LEN_PREFIX
    except IndexError:
        pass  # a size estimate; whoever unpacks the slice validates it
    return layers


def onion_size(onion: Onion | None) -> int:
    """An onion's wire size grows one sealed layer per relay.

    A built onion carries its depth (``Onion.layers``); any other is walked.
    """
    if onion is None:
        return _LEN_PREFIX
    depth = onion.layers or _onion_depth(onion.blob)
    return _depth_field(depth) + _field(_SIGNATURE_BYTES) + _NONCE_BYTES  # + seq


_REQUEST_BYTES = _sealed(_NODE_ID_BYTES + _NONCE_BYTES) + _field(_PUBLIC_KEY_BYTES)
_RESPONSE_BYTES = (
    _sealed(_NODE_ID_BYTES + _VALUE_BYTES + _NONCE_BYTES) + _field(_PUBLIC_KEY_BYTES)
)
_REPORT_BYTES = (
    _field(_NODE_ID_BYTES + _VALUE_BYTES + _NONCE_BYTES)
    + _field(_SIGNATURE_BYTES)
    + _field(_NODE_ID_BYTES)
)
_KEY_UPDATE_BYTES = (
    _field(_NODE_ID_BYTES) + _field(_PUBLIC_KEY_BYTES) + _field(_SIGNATURE_BYTES)
)


#: Every composite type the codec understands, in tag order (tag is
#: 0x20 + index — stable as long as entries are only appended), each with
#: its size model; ``None`` leaves the type at the network default.
#: Adding a message type is one entry here.
_WIRE_CLASSES: dict[type, Callable[[Any], int] | None] = {
    PublicKey: None,
    Envelope: None,
    SimSignature: None,
    OnionLayer: None,
    Onion: None,
    # The size the packet carries, or: blob (one peeled onion body) + the
    # inner protocol message.
    OnionPacket: lambda p: p.nbytes or _blob_field(p.blob) + wire_size(p.message),
    TrustRequestBody: None,
    TrustValueRequest: lambda m: _REQUEST_BYTES + onion_size(m.requestor_onion),
    TrustResponseBody: None,
    TrustValueResponse: lambda m: _RESPONSE_BYTES + onion_size(m.agent_onion),
    SignedResult: None,
    TransactionReport: lambda m: _REPORT_BYTES,
    KeyUpdateAnnouncement: lambda m: _KEY_UPDATE_BYTES,
}
#: The positions a relay forwards unopened (§3.3): sent length-prefixed,
#: decoded to a :class:`WireSlice`.
_OPAQUE = {(OnionPacket, "message"), (OnionLayer, "inner")}

_SIZE_OF: dict[type, Callable[[Any], int]] = {
    cls: size for cls, size in _WIRE_CLASSES.items() if size is not None
}
_SIZE_OF[WireSlice] = lambda s: wire_size(s.unpack())


def wire_size(message: Any) -> int:
    """Wire size in bytes of any hiREP protocol message."""
    size = _SIZE_OF.get(type(message))
    # Unknown payloads fall back to the network default.
    return DEFAULT_MESSAGE_BYTES if size is None else size(message)


def first_hop_size(onion: Onion, message: Any) -> int:
    """The wire size of the packet carrying ``message`` under the whole of
    ``onion``: what ``OnionRouter.send`` charges the first hop.  As in
    :func:`onion_size`, a built onion's depth is read, any other walked."""
    return _depth_field(onion.layers or _onion_depth(onion.blob)) + wire_size(message)


def onward_size(packet: OnionPacket, blob: Any) -> int:
    """The wire size of ``packet`` peeled to ``blob``, counted down from the
    size it carries (``packet.nbytes``); the message's size is the same.

    When a sealed layer (an ``Envelope``) was peeled to a blob that is
    sealed itself, the packet held two layers or more, so it sheds one
    :data:`LAYER_STEP_BYTES`.  Otherwise — an RSA blob, whose depth is an
    estimate from its length, or a layer's bare core — the inbound blob's
    field is traded for ``blob``'s.
    """
    if type(packet.blob) is Envelope and (
        type(blob) is Envelope or (type(blob) is WireSlice and blob.raw.startswith(_SEALED_HEAD))
    ):
        return packet.nbytes - LAYER_STEP_BYTES
    return packet.nbytes - _blob_field(packet.blob) + _blob_field(blob)


# ---------------------------------------------------------------------------
# Codec: a self-describing tagged binary encoding of protocol messages.
#
# Every value carries a one-byte type tag; variable-length payloads a u8
# or u16 length (by tag) — never wider than the prefix the size model
# charges per field, which is what lets encoded frames agree with
# wire_size().  Protocol dataclasses are encoded as (tag, field₁, …,
# fieldₙ) with the field order taken from the dataclass definition.
# ---------------------------------------------------------------------------

#: Wire magic + codec version, prepended to every frame.
_MAGIC = b"hR"
WIRE_VERSION = 2
#: Fixed framing cost: 2-byte magic + 1-byte version + u32 body length.
FRAME_OVERHEAD = 7

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_STR8 = 0x08      # as _T_STR / _T_BYTES with a one-byte length
_T_BYTES8 = 0x09
#: First byte of every encoded string (what WireSlice.__eq__ checks first).
_STR_HEADS = frozenset({bytes([_T_STR8]), bytes([_T_STR])})
_CLASS_TAG_BASE = 0x20
_TAG_OF_CLASS = {cls: _CLASS_TAG_BASE + i for i, cls in enumerate(_WIRE_CLASSES)}
_ENVELOPE_TAG = _TAG_OF_CLASS[Envelope]
_LAYER_TAG = _TAG_OF_CLASS[OnionLayer]
#: How a sealed value's encoding opens: the ``Envelope`` tag, then its
#: fingerprint as ``bytes8``.  An onion blob held as bytes is sealed when
#: it opens so (``Hop.sealed``, :func:`onward_size`, :func:`_slice_layers`).
_SEALED_HEAD = bytes([_ENVELOPE_TAG, _T_BYTES8])

_HEADER = struct.Struct(">2sBI")
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_F64 = struct.Struct(">d")
_U16_MAX = 0xFFFF
#: Composite levels in the deepest legal message (TrustValueRequest ▸
#: Onion ▸ Envelope ▸ OnionLayer; opaque positions end the descent).
_DEEPEST_LEGAL = 4
#: Composite levels past which hostile input is refused: three times the
#: deepest legal message.
_MAX_NESTING = 12

_new_object = object.__new__
_Encoder = Callable[[Any, bytearray], None]
_Decoder = Callable[[bytes, int, int], "tuple[Any, int]"]


def _truncated() -> WireError:
    return WireError("truncated frame: field runs past the end of the body")


def _pack_len(n: int, what: str) -> bytes:
    if n > _U16_MAX:
        raise WireError(f"{what} of {n} bytes exceeds the u16 field limit")
    return _U16.pack(n)


# -- encoding ---------------------------------------------------------------


def _encode_value(value: Any, out: bytearray) -> None:
    kind = type(value)
    write = _ENCODERS.get(kind)
    if write is None:
        # A subclass of an encodable type (np.float64, an IntEnum) takes
        # its base's encoder from then on.
        write = next((_ENCODERS[b] for b in kind.__mro__ if b in _ENCODERS), None)
        if write is None:
            raise WireError(f"cannot encode value of type {kind.__name__!r} on the wire")
        _ENCODERS[kind] = write
    write(value, out)


def _encode_int(value: int, out: bytearray) -> None:
    # Two's-complement big-endian, minimal width (nonces need 9 bytes
    # to cover the unsigned 64-bit range as a signed value).
    width = (value.bit_length() + 8) // 8
    if width > 255:
        raise WireError(f"integer too large to encode ({value.bit_length()} bits)")
    out.append(_T_INT)
    out.append(width)
    out += value.to_bytes(width, "big", signed=True)


def _encode_float(value: float, out: bytearray) -> None:
    out.append(_T_FLOAT)
    out += _F64.pack(value)


def _blob_encoder(short_tag: int, long_tag: int, what: str) -> _Encoder:
    text = long_tag == _T_STR

    def encode_blob(value: Any, out: bytearray) -> None:
        raw = value.encode("utf-8") if text else value
        if len(raw) <= 0xFF:
            out.append(short_tag)
            out.append(len(raw))
        else:
            out.append(long_tag)
            out += _pack_len(len(raw), what)
        out += raw

    return encode_blob


def _encode_tuple(value: tuple[Any, ...], out: bytearray) -> None:
    out.append(_T_TUPLE)
    out += _pack_len(len(value), "tuple")
    for item in value:
        _encode_value(item, out)


def _encode_opaque(value: Any, out: bytearray) -> None:
    """``u16 length | the value's own encoding`` — no tag of its own."""
    start = len(out)
    out += b"\x00\x00"
    _encode_value(value, out)
    out[start : start + _LEN_PREFIX] = _pack_len(len(out) - start - _LEN_PREFIX, "slice")


def _class_encoder(cls: type, names: tuple[str, ...]) -> _Encoder:
    tag = _TAG_OF_CLASS[cls]
    read = attrgetter(*names)
    writers = tuple(
        _encode_opaque if (cls, name) in _OPAQUE else _encode_value for name in names
    )

    def encode_class(value: Any, out: bytearray) -> None:
        out.append(tag)
        for write, item in zip(writers, read(value)):
            write(item, out)

    return encode_class


# -- decoding ---------------------------------------------------------------


def _decode_value(buf: bytes, offset: int, depth: int) -> tuple[Any, int]:
    try:
        read = _DECODERS[buf[offset]]
    except IndexError:
        raise _truncated() from None
    return read(buf, offset + 1, depth)


def _field_decoder(allowed: frozenset[int], what: str) -> _Decoder:
    """``_decode_value`` for a field only some wire tags can fill."""

    def decode_field(buf: bytes, offset: int, depth: int) -> tuple[Any, int]:
        try:
            tag = buf[offset]
        except IndexError:
            raise _truncated() from None
        if tag not in allowed:
            raise WireError(f"wire tag 0x{tag:02x} cannot fill {what}")
        return _DECODERS[tag](buf, offset + 1, depth)

    return decode_field


def _decode_unknown(buf: bytes, offset: int, depth: int) -> tuple[Any, int]:
    raise WireError(f"unknown wire tag 0x{buf[offset - 1]:02x}")


def _decode_int(buf: bytes, offset: int, depth: int) -> tuple[Any, int]:
    try:
        end = offset + 1 + buf[offset]
    except IndexError:
        raise _truncated() from None
    if end > len(buf):
        raise _truncated()
    return int.from_bytes(buf[offset + 1 : end], "big", signed=True), end


def _decode_float(buf: bytes, offset: int, depth: int) -> tuple[Any, int]:
    try:
        return _F64.unpack_from(buf, offset)[0], offset + 8
    except struct.error:
        raise _truncated() from None


def _blob_decoder(length: struct.Struct, wrap: Callable[[bytes], Any]) -> _Decoder:
    """Length-prefixed payload: bytes, text, or a :class:`WireSlice`."""
    prefix = length.size

    def decode_blob(buf: bytes, offset: int, depth: int) -> tuple[Any, int]:
        try:
            (n,) = length.unpack_from(buf, offset)
        except struct.error:
            raise _truncated() from None
        end = offset + prefix + n
        if end > len(buf):
            raise _truncated()
        return wrap(buf[offset + prefix : end]), end

    return decode_blob


def _text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"malformed string: {exc}") from None


def _too_deep(depth: int) -> None:
    if depth >= _MAX_NESTING:
        raise WireError(f"values nested deeper than {_MAX_NESTING} levels")


def _decode_tuple(buf: bytes, offset: int, depth: int) -> tuple[Any, int]:
    _too_deep(depth)
    try:
        (count,) = _U16.unpack_from(buf, offset)
    except struct.error:
        raise _truncated() from None
    offset += _LEN_PREFIX
    items = []
    for _ in range(count):
        item, offset = _decode_value(buf, offset, depth + 1)
        items.append(item)
    return tuple(items), offset


def _class_decoder(
    cls: type, names: tuple[str, ...], readers: tuple[_Decoder, ...]
) -> _Decoder:
    """Decode ``cls``'s fields in order into a new instance.

    The instance is built as pickle rebuilds one — ``object.__new__`` and
    its ``__dict__`` filled in field order — which is what every wire
    class's ``__init__`` (plain dataclass fields, no ``__post_init__``)
    leaves, without the frozen ``__init__``'s ``object.__setattr__`` per
    field.
    """
    fields = tuple(zip(names, readers))

    def decode_class(buf: bytes, offset: int, depth: int) -> tuple[Any, int]:
        _too_deep(depth)
        depth += 1
        value = _new_object(cls)
        state = value.__dict__
        for name, read in fields:
            state[name], offset = read(buf, offset, depth)
        return value, offset

    return decode_class


# -- the plan: one encoder per type, one decoder per tag, built at import ----

_ENCODERS: dict[type, _Encoder] = {
    type(None): lambda value, out: out.append(_T_NONE),
    bool: lambda value, out: out.append(_T_TRUE if value else _T_FALSE),
    int: _encode_int,
    float: _encode_float,
    str: _blob_encoder(_T_STR8, _T_STR, "string"),
    bytes: _blob_encoder(_T_BYTES8, _T_BYTES, "bytes"),
    bytearray: _blob_encoder(_T_BYTES8, _T_BYTES, "bytes"),
    tuple: _encode_tuple,
    # A slice outside an opaque position (a peeled blob) is its own bytes.
    WireSlice: lambda value, out: out.extend(value.raw),
}
_DECODERS: list[_Decoder] = [_decode_unknown] * 256
_DECODERS[_T_NONE] = lambda buf, offset, depth: (None, offset)
_DECODERS[_T_FALSE] = lambda buf, offset, depth: (False, offset)
_DECODERS[_T_TRUE] = lambda buf, offset, depth: (True, offset)
_DECODERS[_T_INT] = _decode_int
_DECODERS[_T_FLOAT] = _decode_float
_DECODERS[_T_STR] = _blob_decoder(_U16, _text)
_DECODERS[_T_BYTES] = _blob_decoder(_U16, bytes)
_DECODERS[_T_TUPLE] = _decode_tuple
_DECODERS[_T_STR8] = _blob_decoder(_U8, _text)
_DECODERS[_T_BYTES8] = _blob_decoder(_U8, bytes)
_decode_opaque = _blob_decoder(_U16, WireSlice)

#: Wire tags that can fill a field of each concrete annotation (an int is
#: a legal float); anything else — ``Any`` above all — stays open.
_TAGS_OF_TYPE: dict[Any, frozenset[int]] = {
    int: frozenset({_T_INT}),
    float: frozenset({_T_FLOAT, _T_INT}),
    str: frozenset({_T_STR, _T_STR8}),
    bytes: frozenset({_T_BYTES, _T_BYTES8}),
    tuple: frozenset({_T_TUPLE}),
    type(None): frozenset({_T_NONE}),
    **{cls: frozenset({tag}) for cls, tag in _TAG_OF_CLASS.items()},
}


def _tags_for(annotation: Any) -> frozenset[int] | None:
    if get_origin(annotation) in (Union, UnionType):
        parts = [_tags_for(arm) for arm in get_args(annotation)]
        return None if None in parts else frozenset().union(*parts)
    return _TAGS_OF_TYPE.get(get_origin(annotation) or annotation)


def _planned(cls: type) -> tuple[_Encoder, _Decoder]:
    """The encoder and decoder of ``cls``, planned from its dataclass fields."""
    names = tuple(f.name for f in dataclass_fields(cls))
    hints = get_type_hints(cls)
    readers = []
    for name in names:
        allowed = _tags_for(hints[name])
        if (cls, name) in _OPAQUE:
            readers.append(_decode_opaque)
        elif allowed is None:  # Any, or a type the wire does not know
            readers.append(_decode_value)
        else:
            readers.append(_field_decoder(allowed, f"{cls.__name__}.{name}"))
    return _class_encoder(cls, names), _class_decoder(cls, names, tuple(readers))


for _cls in _WIRE_CLASSES:
    _ENCODERS[_cls], _DECODERS[_TAG_OF_CLASS[_cls]] = _planned(_cls)


# -- sealed values: encoded once -----------------------------------------------
#
# A sealed value is fixed once sealed, and an owner's onion blob outlives
# many sends (``reseal`` keeps it across sequence bumps).  Its first encode
# keeps the bytes on the frozen Envelope; every later encode splices them.

_encode_planned_envelope = _ENCODERS[Envelope]


def _encode_envelope(value: Envelope, out: bytearray) -> None:
    raw = value._wire
    if raw is None:
        start = len(out)
        _encode_planned_envelope(value, out)
        object.__setattr__(value, "_wire", bytes(out[start:]))
    else:
        out += raw


_ENCODERS[Envelope] = _encode_envelope


# -- the packet: the origin's case in one pass ---------------------------------
#
# An origin's packet is a built onion's blob and a message object; its
# fields are written in one pass.  Any other packet — a relay's, holding
# slices — goes to the planned encoder, which writes the same bytes.

_PACKET_TAG = _TAG_OF_CLASS[OnionPacket]
_TAGGED_F64 = struct.Struct(">Bd")
_encode_planned_packet = _ENCODERS[OnionPacket]


def _encode_packet(packet: OnionPacket, out: bytearray) -> None:
    blob, message = packet.blob, packet.message
    if type(blob) is not Envelope or type(message) is WireSlice:
        _encode_planned_packet(packet, out)
        return
    out.append(_PACKET_TAG)
    _encode_value(blob, out)
    _encode_opaque(message, out)
    category = packet.category
    raw = category.encode("utf-8") if type(category) is str else None
    if raw is not None and len(raw) <= 0xFF:
        out.append(_T_STR8)
        out.append(len(raw))
        out += raw
    else:
        _encode_value(category, out)
    sent_at = packet.sent_at
    if type(sent_at) is float:
        out += _TAGGED_F64.pack(_T_FLOAT, sent_at)
    else:
        _encode_value(sent_at, out)


_ENCODERS[OnionPacket] = _encode_packet


# -- a hop, read where its fields sit and spliced from the frame ---------------
#
# Nearly every frame on the live plane is a relay hop, an OnionPacket under
# one sealed layer: packet tag ▸ Envelope tag ▸ fingerprint (bytes8) ▸
# OnionLayer tag ▸ next_ip (int) ▸ inner slice ▸ message slice ▸ category
# (str8) ▸ sent_at (float).  A relay reads the hop header, peels the outer
# layer and forwards the rest; decoding that frame into objects only to
# encode them again writes the bytes it read: the onward body is the packet
# tag, then the inbound frame from the inner slice through sent_at.  So a
# live relay reads the layout's offsets once (read_hop) and splices the
# onward frame (relay_frame); an owner's frame is decoded from the same
# read.  A frame off the layout is read by the planned decoder.

def _hop_layout(buf: bytes, offset: int) -> tuple[int, ...] | None:
    """Where the fields of the packet at ``offset`` sit, read as the fixed
    layout; None off it.

    Returns ``(fingerprint_end, next_ip, inner_at, message_at, category_at,
    sent_at_at, sent_at)``: the fingerprint is ``buf[offset + 3 :
    fingerprint_end]``, the inner slice runs up to the message's length
    prefix, the message slice up to ``category_at``, the category's text
    up to ``sent_at_at``, and the packet ends 9 bytes after it.  Every
    slice ends where a later read starts, and that read raises IndexError
    / struct.error if the slice ran past the buffer.
    """
    if buf[offset] != _ENVELOPE_TAG or buf[offset + 1] != _T_BYTES8:
        return None
    fingerprint_end = at = offset + 3 + buf[offset + 2]
    if buf[at] != _LAYER_TAG or buf[at + 1] != _T_INT:
        return None
    ip_at = at + 3
    at = ip_at + buf[at + 2]
    next_ip = int.from_bytes(buf[ip_at:at], "big", signed=True)
    (n,) = _U16.unpack_from(buf, at)
    inner_at = at + _LEN_PREFIX
    at = inner_at + n
    (n,) = _U16.unpack_from(buf, at)
    message_at = at + _LEN_PREFIX
    category_at = message_at + n
    if buf[category_at] != _T_STR8:
        return None
    sent_at_at = category_at + 2 + buf[category_at + 1]
    tag, sent_at = _TAGGED_F64.unpack_from(buf, sent_at_at)
    if tag != _T_FLOAT:
        return None
    return fingerprint_end, next_ip, inner_at, message_at, category_at, sent_at_at, sent_at


class Hop(NamedTuple):
    """A frame whose whole body is one packet of the fixed hop layout:
    read, nothing built (:func:`read_hop`)."""

    frame: bytes
    layout: tuple[int, ...]  # _hop_layout's read of the packet
    fingerprint: bytes  # the key the outer layer is sealed to
    next_ip: int  # the hop the outer layer names
    category: str
    #: Whether the blob under the outer layer is sealed itself (the inner
    #: slice opens like an ``Envelope``: ``_SEALED_HEAD``), so the
    #: packet holds two layers or more and a relay may splice it.
    sealed: bool


_new_hop = tuple.__new__
_BODY_AT = FRAME_OVERHEAD + 1  # the packet after its tag
_PACKET_PREFIX = bytes([_PACKET_TAG])
#: The category text of the frames the protocol sends, by its bytes.
#: Only these: a category read off a frame is decoded, never added, so
#: hostile frames cannot grow the table.
_CATEGORY_OF = {
    value.encode("utf-8"): value
    for name, value in vars(Category).items()
    if not name.startswith("_") and type(value) is str
}


def read_hop(frame: bytes) -> Hop | None:
    """``frame`` read as one packet of the fixed hop layout.

    None when the frame is anything else — a bad header, another value,
    a field off the layout, trailing data: :func:`decode` reads those
    with the planned decoder, and raises as it does.  Of the blob under the
    outer layer only its first two bytes are read: whether it is sealed.
    """
    try:
        magic, version, body_len = _HEADER.unpack_from(frame)
        if magic != _MAGIC or version != WIRE_VERSION or frame[FRAME_OVERHEAD] != _PACKET_TAG:
            return None
        layout = _hop_layout(frame, _BODY_AT)
        if layout is None or layout[5] + _TAGGED_F64.size != FRAME_OVERHEAD + body_len:
            return None
        fingerprint_end, next_ip, inner_at, message_at, category_at, sent_at_at, _ = layout
        text = frame[category_at + 2 : sent_at_at]
        category = _CATEGORY_OF.get(text) or text.decode("utf-8")
    except (IndexError, struct.error, UnicodeDecodeError):
        return None
    # The inner slice ends at the message's length prefix.
    sealed = frame.startswith(_SEALED_HEAD, inner_at, message_at - _LEN_PREFIX)
    return _new_hop(
        Hop,
        (frame, layout, frame[_BODY_AT + 3 : fingerprint_end], next_ip, category, sealed),
    )


def relay_frame(hop: Hop) -> tuple[bytes, WireSlice]:
    """The frame a relay forwards for ``hop``, and its body as a slice.

    The bytes are those :func:`encode` writes for the packet
    ``OnionRouter.handle`` forwards — ``header | packet tag |
    frame[inner … sent_at] | zero pad`` — padded to the size
    :func:`onward_size` gives a packet whose inner slice is sealed itself
    (``hop.sealed``, the only hops a relay splices): the inbound frame
    less :data:`LAYER_STEP_BYTES`.
    """
    frame, layout = hop.frame, hop.layout
    end = layout[5] + _TAGGED_F64.size
    body_len = 1 + end - layout[2]
    pad = len(frame) - FRAME_OVERHEAD - LAYER_STEP_BYTES - body_len
    onward = b"".join(
        (
            _HEADER.pack(_MAGIC, WIRE_VERSION, body_len),
            _PACKET_PREFIX,
            frame[layout[2] : end],
            bytes(pad) if pad > 0 else b"",
        )
    )
    return onward, WireSlice(onward[FRAME_OVERHEAD : FRAME_OVERHEAD + body_len])


def encode(message: Any, size: int | None = None) -> bytes:
    """Serialize a protocol message into one framed byte string.

    The frame is ``magic(2) | version(1) | body_len(4, u32) | body | pad``
    where ``pad`` zero-fills the body up to ``wire_size(message)``: the
    frame length equals ``wire_size(message) + FRAME_OVERHEAD`` whenever
    the model's estimate covers the literal encoding (always true for the
    simulated crypto backend), so serving traffic reproduces the modelled
    byte counts exactly.  A caller that already holds ``wire_size(message)``
    passes it as ``size`` to spare the second computation.
    """
    out = bytearray(FRAME_OVERHEAD)
    _encode_value(message, out)
    body_len = len(out) - FRAME_OVERHEAD
    _HEADER.pack_into(out, 0, _MAGIC, WIRE_VERSION, body_len)
    pad = (wire_size(message) if size is None else size) - body_len
    if pad > 0:
        out += bytes(pad)
    return bytes(out)


def decode(frame: bytes | bytearray, hop: Hop | None = None) -> Any:
    """Deserialize one frame produced by :func:`encode`.

    Raises :class:`~repro.errors.WireError` — and nothing else — on bad
    magic, version, length, or any malformed field.  Opaque positions come
    back as :class:`WireSlice`; their contents are checked when unpacked.
    ``hop`` is :func:`read_hop`'s read of ``frame`` when the caller made
    one: the packet is built from it, not read again.  A packet's
    ``nbytes`` is its frame's body and pad: the frame was padded to the
    packet's wire size.
    """
    if hop is not None:
        buf = hop.frame
        _, next_ip, inner_at, message_at, category_at, _, sent_at = hop.layout
        # Envelope and OnionLayer built as _class_decoder builds them.
        layer = _new_object(OnionLayer)
        layer.__dict__.update(
            next_ip=next_ip, inner=WireSlice(buf[inner_at : message_at - _LEN_PREFIX])
        )
        envelope = _new_object(Envelope)
        envelope.__dict__.update(fingerprint=hop.fingerprint, payload=layer)
        value = OnionPacket(
            envelope, WireSlice(buf[message_at:category_at]), hop.category, sent_at
        )
    else:
        buf = bytes(frame)
        if len(buf) < FRAME_OVERHEAD:
            raise WireError(f"frame of {len(buf)} bytes is shorter than the header")
        magic, version, body_len = _HEADER.unpack_from(buf)
        if magic != _MAGIC:
            raise WireError("bad frame magic")
        if version != WIRE_VERSION:
            raise WireError(f"unsupported wire version {version}")
        if FRAME_OVERHEAD + body_len > len(buf):
            raise WireError("truncated frame: declared body exceeds frame length")
        value, end = _decode_value(buf[FRAME_OVERHEAD : FRAME_OVERHEAD + body_len], 0, 0)
        if end != body_len:
            raise WireError("malformed frame: body has trailing data")
        if type(value) is not OnionPacket:
            return value
    value.nbytes = len(buf) - FRAME_OVERHEAD
    return value
