"""The ``compact`` codec: a schema-tagged binary frame format.

Where the ``json`` codec spends ~95 bytes per message re-spelling envelope
field names and rendering integers as decimal text, ``compact`` packs the
envelope positionally behind a flags byte, writes integers as LEB128
varints (zigzag for signed values — RSA signature and token integers
shrink roughly 2x), and *interns* repeated strings: protocol vocabulary
(topic segments like ``Traces``, body keys like ``issued_ms``) hits a
static table shared by every frame, while strings repeated within one
frame hit a per-frame dynamic table.  docs/WIRE_FORMAT.md documents the
byte layout normatively; this module is the reference implementation.

Frame layout (all multi-byte integers are LEB128 varints unless noted)::

    frame   := MAGIC(0xC3) VERSION(0x01) KIND body
    KIND    := 0x01 message | 0x02 routed-frame | 0x03 plain value
    message := flags:u8 message_id:uvarint created_ms:f64be
               source:str-ref topic:(uvarint nsegs, nsegs * str-ref)
               [body:cval unless flags&0x08] [signature:cval if flags&0x02]
               [auth_token:cval if flags&0x04]
    routed-frame := message dest-part
    dest-part    := uvarint count, count * (uvarint len, utf8)   # never interned
    cval    := 0x00 None | 0x01 True | 0x02 False | 0x03 zigzag-varint
             | 0x04 f64be | 0x05 str-ref | 0x06 uvarint-len bytes
             | 0x07 cval* 0xFF (list) | 0x08 (str-ref cval)* 0xFF (dict)
    str-ref := 0x00 uvarint-len utf8 (literal; joins the dynamic table)
             | 0x01 uvarint (static-table index)
             | 0x02 uvarint (dynamic-table index)

Destinations are appended *after* the message body with no interning, so a
message encodes to identical bytes standalone and inside a routed frame —
that additivity is what lets ``repro.wire.codec`` size frames as
``memoized message size + frame_overhead`` without re-encoding.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import SerializationDecodeError, SerializationTypeError
from repro.messaging.message import Message, RoutedFrame
from repro.messaging.topics import Topic
from repro.util.serialization import Canonical

MAGIC = 0xC3
VERSION = 0x01

KIND_MESSAGE = 0x01
KIND_FRAME = 0x02
KIND_VALUE = 0x03

FLAG_ENCRYPTED = 0x01
FLAG_SIGNATURE = 0x02
FLAG_AUTH_TOKEN = 0x04
FLAG_BODY_NONE = 0x08

_REF_LITERAL = 0x00
_REF_STATIC = 0x01
_REF_DYNAMIC = 0x02

_CV_NONE = 0x00
_CV_TRUE = 0x01
_CV_FALSE = 0x02
_CV_INT = 0x03
_CV_FLOAT = 0x04
_CV_STR = 0x05
_CV_BYTES = 0x06
_CV_LIST = 0x07
_CV_DICT = 0x08
_CV_END = 0xFF

#: The static intern table: the protocol's topic segments and body/token
#: vocabulary.  APPEND ONLY — indexes are wire format; reordering or
#: removing entries breaks decode of previously captured frames.
STATIC_STRINGS: tuple[str, ...] = (
    # trace-topic segments (repro.tracing.topics, repro.tdn.query)
    "Availability",
    "Liveness",
    "Traces",
    "Broker",
    "Constrained",
    "Publish-Only",
    "Subscribe-Only",
    "Limited",
    "Registration",
    "Registration-Response",
    "ChangeNotifications",
    "AllUpdates",
    "StateTransitions",
    "Load",
    "NetworkMetrics",
    "Interest",
    "KeyDelivery",
    # ping / registration body keys and kinds (repro.tracing)
    "kind",
    "ping",
    "ping_response",
    "ping_batch",
    "pings",
    "number",
    "issued_ms",
    "entity_stamp_ms",
    "entity_id",
    "request_id",
    "session_id",
    "payload",
    "state",
    "sequence",
    "timestamp_ms",
    # gauge trace bodies (repro.tracing.traces)
    "cpu_utilization",
    "memory_used_mb",
    "memory_total_mb",
    "workload",
    "loss_rate",
    "mean_rtt_ms",
    "jitter_ms",
    "out_of_order_rate",
    "bandwidth_estimate_kbps",
    # authorization tokens and signature envelopes (repro.auth, repro.crypto)
    "advertisement",
    "trace_topic",
    "token_n",
    "token_e",
    "rights",
    "valid_from_ms",
    "valid_until_ms",
    "owner_signature",
    "signature",
    "signer_fingerprint",
    "algorithm",
    "padding",
    "ciphertext",
    "wrapped_key",
    "credentials",
    # session-control and key-management kinds (repro.tracing.entity,
    # repro.tracing.broker_ops, repro.security.keydist) — appended so every
    # produced message kind interns (WIRE01 checks this)
    "sym",
    "state_transition",
    "load",
    "disable_tracing",
    "token_delivery",
    "trace_key",
    "channel_key",
    "key_distribution",
)

_STATIC_INDEX: dict[str, int] = {s: i for i, s in enumerate(STATIC_STRINGS)}


def write_uvarint(value: int, out: bytearray) -> None:
    """Append an unsigned LEB128 varint (unbounded width)."""
    if value < 0:
        raise SerializationTypeError(f"uvarint cannot encode negative {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode an unsigned LEB128 varint; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise SerializationDecodeError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def zigzag(value: int) -> int:
    """Map a signed int to unsigned so small magnitudes stay small."""
    return value * 2 if value >= 0 else -value * 2 - 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return value // 2 if value % 2 == 0 else -(value + 1) // 2


class _InternContext:
    """Per-frame dynamic string table shared by encoder-side references."""

    __slots__ = ("table", "index")

    def __init__(self) -> None:
        self.table: list[str] = []
        self.index: dict[str, int] = {}

    def write_str(self, text: str, out: bytearray) -> None:
        static = _STATIC_INDEX.get(text)
        if static is not None:
            out.append(_REF_STATIC)
            write_uvarint(static, out)
            return
        dynamic = self.index.get(text)
        if dynamic is not None:
            out.append(_REF_DYNAMIC)
            write_uvarint(dynamic, out)
            return
        data = text.encode("utf-8")
        out.append(_REF_LITERAL)
        write_uvarint(len(data), out)
        out += data
        self.index[text] = len(self.table)
        self.table.append(text)


class _DecodeContext:
    """Decoder mirror of :class:`_InternContext`."""

    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table: list[str] = []

    def read_str(self, data: bytes, offset: int) -> tuple[str, int]:
        if offset >= len(data):
            raise SerializationDecodeError("truncated string reference")
        ref = data[offset]
        offset += 1
        if ref == _REF_LITERAL:
            length, offset = read_uvarint(data, offset)
            chunk = data[offset : offset + length]
            if len(chunk) != length:
                raise SerializationDecodeError("truncated string literal")
            text = chunk.decode("utf-8")
            self.table.append(text)
            return text, offset + length
        if ref == _REF_STATIC:
            index, offset = read_uvarint(data, offset)
            if index >= len(STATIC_STRINGS):
                raise SerializationDecodeError(f"static string index {index} out of range")
            return STATIC_STRINGS[index], offset
        if ref == _REF_DYNAMIC:
            index, offset = read_uvarint(data, offset)
            if index >= len(self.table):
                raise SerializationDecodeError(f"dynamic string index {index} out of range")
            return self.table[index], offset
        raise SerializationDecodeError(f"unknown string reference tag {ref:#x}")


def _encode_value(value: Any, ctx: _InternContext, out: bytearray) -> None:
    if value is None:
        out.append(_CV_NONE)
    elif value is True:
        out.append(_CV_TRUE)
    elif value is False:
        out.append(_CV_FALSE)
    elif isinstance(value, int):
        out.append(_CV_INT)
        write_uvarint(zigzag(value), out)
    elif isinstance(value, float):
        out.append(_CV_FLOAT)
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        out.append(_CV_STR)
        ctx.write_str(value, out)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(_CV_BYTES)
        write_uvarint(len(data), out)
        out += data
    elif isinstance(value, (list, tuple)):
        out.append(_CV_LIST)
        for item in value:
            _encode_value(item, ctx, out)
        out.append(_CV_END)
    elif isinstance(value, dict):
        out.append(_CV_DICT)
        keys = list(value.keys())
        for key in keys:
            if not isinstance(key, str):
                raise SerializationTypeError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
        for key in sorted(keys):
            ctx.write_str(key, out)
            _encode_value(value[key], ctx, out)
        out.append(_CV_END)
    else:
        raise SerializationTypeError(f"cannot compact-encode {type(value).__name__}")


def _decode_value(data: bytes, offset: int, ctx: _DecodeContext) -> tuple[Any, int]:
    if offset >= len(data):
        raise SerializationDecodeError("unexpected end of compact value")
    tag = data[offset]
    offset += 1
    if tag == _CV_NONE:
        return None, offset
    if tag == _CV_TRUE:
        return True, offset
    if tag == _CV_FALSE:
        return False, offset
    if tag == _CV_INT:
        raw, offset = read_uvarint(data, offset)
        return unzigzag(raw), offset
    if tag == _CV_FLOAT:
        chunk = data[offset : offset + 8]
        if len(chunk) != 8:
            raise SerializationDecodeError("truncated float")
        return struct.unpack(">d", chunk)[0], offset + 8
    if tag == _CV_STR:
        return ctx.read_str(data, offset)
    if tag == _CV_BYTES:
        length, offset = read_uvarint(data, offset)
        chunk = data[offset : offset + length]
        if len(chunk) != length:
            raise SerializationDecodeError("truncated bytes")
        return chunk, offset + length
    if tag == _CV_LIST:
        items: list[Any] = []
        while True:
            if offset >= len(data):
                raise SerializationDecodeError("unterminated list")
            if data[offset] == _CV_END:
                return items, offset + 1
            item, offset = _decode_value(data, offset, ctx)
            items.append(item)
    if tag == _CV_DICT:
        result: dict[str, Any] = {}
        while True:
            if offset >= len(data):
                raise SerializationDecodeError("unterminated dict")
            if data[offset] == _CV_END:
                return result, offset + 1
            key, offset = ctx.read_str(data, offset)
            value, offset = _decode_value(data, offset, ctx)
            result[key] = value
    raise SerializationDecodeError(f"unknown compact value tag {tag:#x}")


def _encode_message_body(message: Message, out: bytearray) -> None:
    """Append the flags byte and packed envelope fields (fresh context)."""
    ctx = _InternContext()
    flags = 0
    if message.encrypted:
        flags |= FLAG_ENCRYPTED
    if message.signature is not None:
        flags |= FLAG_SIGNATURE
    if message.auth_token is not None:
        flags |= FLAG_AUTH_TOKEN
    if message.body is None:
        flags |= FLAG_BODY_NONE
    out.append(flags)
    write_uvarint(message.message_id, out)
    out += struct.pack(">d", message.created_ms)
    ctx.write_str(message.source, out)
    segments = message.topic.segments
    write_uvarint(len(segments), out)
    for segment in segments:
        ctx.write_str(segment, out)
    if not flags & FLAG_BODY_NONE:
        _encode_value(message.body, ctx, out)
    if flags & FLAG_SIGNATURE:
        _encode_value(message.signature, ctx, out)
    if flags & FLAG_AUTH_TOKEN:
        # the value, not the held bytes: its strings intern against this frame
        _encode_value(message.auth_token.value, ctx, out)


def _decode_message_body(data: bytes, offset: int) -> tuple[Message, int]:
    ctx = _DecodeContext()
    if offset >= len(data):
        raise SerializationDecodeError("truncated message flags")
    flags = data[offset]
    offset += 1
    message_id, offset = read_uvarint(data, offset)
    chunk = data[offset : offset + 8]
    if len(chunk) != 8:
        raise SerializationDecodeError("truncated created_ms")
    created_ms = struct.unpack(">d", chunk)[0]
    offset += 8
    source, offset = ctx.read_str(data, offset)
    nsegs, offset = read_uvarint(data, offset)
    segments = []
    for _ in range(nsegs):
        segment, offset = ctx.read_str(data, offset)
        segments.append(segment)
    body: Any = None
    if not flags & FLAG_BODY_NONE:
        body, offset = _decode_value(data, offset, ctx)
    signature = None
    if flags & FLAG_SIGNATURE:
        signature, offset = _decode_value(data, offset, ctx)
    auth_token = None
    if flags & FLAG_AUTH_TOKEN:
        token_value, offset = _decode_value(data, offset, ctx)
        auth_token = Canonical.of(token_value)
    message = Message(
        topic=Topic("/".join(segments)),
        body=body,
        source=source,
        message_id=message_id,
        created_ms=created_ms,
        signature=signature,
        auth_token=auth_token,
        encrypted=bool(flags & FLAG_ENCRYPTED),
    )
    return message, offset


def _encode_dest_part(destinations: tuple[str, ...], out: bytearray) -> None:
    write_uvarint(len(destinations), out)
    for dest in destinations:
        data = dest.encode("utf-8")
        write_uvarint(len(data), out)
        out += data


class CompactCodec:
    """Binary codec with varints, interning, and flag-packed envelopes."""

    name = "compact"

    def encode(self, payload: Any) -> bytes:
        out = bytearray()
        self.encode_into(payload, out)
        return bytes(out)

    def encode_into(self, payload: Any, out: bytearray) -> int:
        """Append the compact frame to ``out``; returns bytes added."""
        before = len(out)
        out.append(MAGIC)
        out.append(VERSION)
        if isinstance(payload, RoutedFrame):
            out.append(KIND_FRAME)
            _encode_message_body(payload.message, out)
            _encode_dest_part(payload.destinations, out)
        elif isinstance(payload, Message):
            out.append(KIND_MESSAGE)
            _encode_message_body(payload, out)
        else:
            out.append(KIND_VALUE)
            _encode_value(payload, _InternContext(), out)
        return len(out) - before

    def decode(self, data: bytes) -> Any:
        if len(data) < 3:
            raise SerializationDecodeError("compact frame too short")
        if data[0] != MAGIC:
            raise SerializationDecodeError(f"bad magic byte {data[0]:#x}")
        if data[1] != VERSION:
            raise SerializationDecodeError(f"unsupported compact version {data[1]}")
        kind = data[2]
        offset = 3
        if kind == KIND_MESSAGE:
            message, offset = _decode_message_body(data, offset)
            value: Any = message
        elif kind == KIND_FRAME:
            message, offset = _decode_message_body(data, offset)
            count, offset = read_uvarint(data, offset)
            destinations = []
            for _ in range(count):
                length, offset = read_uvarint(data, offset)
                chunk = data[offset : offset + length]
                if len(chunk) != length:
                    raise SerializationDecodeError("truncated destination")
                destinations.append(chunk.decode("utf-8"))
                offset += length
            value = RoutedFrame(message=message, destinations=tuple(destinations))
        elif kind == KIND_VALUE:
            value, offset = _decode_value(data, offset, _DecodeContext())
        else:
            raise SerializationDecodeError(f"unknown frame kind {kind:#x}")
        if offset != len(data):
            raise SerializationDecodeError(f"trailing bytes after compact frame at {offset}")
        return value

    def frame_overhead(self, frame: RoutedFrame) -> int:
        """Bytes the destination part adds over the bare message frame.

        The destination part is deliberately interning-free and sits after
        the message body, so this is exact — not an estimate.
        """
        out = bytearray()
        _encode_dest_part(frame.destinations, out)
        return len(out)
