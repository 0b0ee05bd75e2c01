"""Canonical byte serialization for signing and encryption.

Digital signatures and message digests must be computed over a *stable* byte
rendering of a message: two structurally equal messages must serialize to
identical bytes regardless of dict insertion order.  JSON with sorted keys
would almost suffice, but we also need raw ``bytes`` payloads (ciphertexts,
key material) and tuple/int round-tripping, so we use a small self-describing
binary format (a deterministic subset of a bencoding-like scheme).

Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
``list``/``tuple`` (decoded as list), and ``dict`` with ``str`` keys (encoded
in sorted key order).
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.errors import SerializationDecodeError, SerializationTypeError

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_DICT = b"d"
_TAG_END = b"e"

#: Tag + decimal length + ``:`` of the three length-prefixed kinds, as one
#: bytes-``%`` format each.
_HEAD_INT = _TAG_INT + b"%d:"
_HEAD_STR = _TAG_STR + b"%d:"
_HEAD_BYTES = _TAG_BYTES + b"%d:"

#: The ``isinstance`` order that decides which arm encodes a value whose
#: type is not exactly a builtin (``OrderedDict``, ``bytearray``, an
#: ``IntEnum`` ...).  ``bool`` cannot be subclassed, so ``True`` / ``False``
#: never reach it.
_SUBCLASS_ORDER: tuple[tuple[Any, type], ...] = (
    (int, int),
    (float, float),
    (str, str),
    ((bytes, bytearray, memoryview), bytes),
    ((list, tuple), list),
    (dict, dict),
)


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` to its unique canonical byte string."""
    parts: list[bytes] = []
    _encode_into(value, parts.append, type(value))
    return b"".join(parts)


def canonical_encode_into(value: Any, out: bytearray) -> int:
    """Append the canonical encoding of ``value`` to ``out``.

    The streaming variant of :func:`canonical_encode`: callers that size
    many payloads (``repro.wire``) render into one pooled scratch buffer.
    The pieces are joined before they are appended, so an encode that
    raises leaves ``out`` as it was.  Returns the number of bytes
    appended.
    """
    # not through canonical_encode: benchmarks/perf/spans.py wraps both
    # public names, and a nested call would count every encode twice
    parts: list[bytes] = []
    _encode_into(value, parts.append, type(value))
    encoded = b"".join(parts)
    out += encoded
    return len(encoded)


def _encode_into(value: Any, emit: Callable[[bytes], None], kind: type) -> None:
    """Hand the pieces of ``value``'s encoding to ``emit``, in order.

    ``kind`` is ``type(value)``: the arms test it by identity, most
    frequent first (a token is mostly ``str`` keys and leaves), and each
    works on subclasses too.  A ``kind`` that is no arm's builtin type
    falls to the end, is resolved once through :data:`_SUBCLASS_ORDER`
    and re-enters under the builtin it stands for.
    """
    if kind is str:
        data = value.encode()
        emit(_HEAD_STR % len(data))
        emit(data)
    elif kind is dict:
        emit(_TAG_DICT)
        # before sorted(): mixed keys must not surface as its TypeError
        for key in value:
            if not isinstance(key, str):
                raise SerializationTypeError(f"dict keys must be str, got {type(key).__name__}")
        for key in sorted(value):
            data = key.encode()
            emit(_HEAD_STR % len(data))
            emit(data)
            item = value[key]
            _encode_into(item, emit, type(item))
        emit(_TAG_END)
    elif kind is int:
        rendered = str(value).encode("ascii")
        emit(_HEAD_INT % len(rendered))
        emit(rendered)
    elif kind is float:
        # Fixed 8-byte IEEE-754 big-endian: bit-exact round trip.
        emit(_TAG_FLOAT)
        emit(struct.pack(">d", value))
    elif kind is list or kind is tuple:
        emit(_TAG_LIST)
        for item in value:
            _encode_into(item, emit, type(item))
        emit(_TAG_END)
    elif value is None:
        emit(_TAG_NONE)
    elif value is True:
        emit(_TAG_TRUE)
    elif value is False:
        emit(_TAG_FALSE)
    elif kind is bytes:
        data = bytes(value)
        emit(_HEAD_BYTES % len(data))
        emit(data)
    else:
        for bases, builtin in _SUBCLASS_ORDER:
            if isinstance(value, bases):
                _encode_into(value, emit, builtin)
                return
        raise SerializationTypeError(f"cannot canonically encode {type(value).__name__}")


def canonical_decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`canonical_encode`.

    Raises ``ValueError`` on malformed or trailing data.
    """
    value, offset = _decode_from(data, 0)
    if offset != len(data):
        raise SerializationDecodeError(f"trailing bytes after canonical value at offset {offset}")
    return value


def _read_length(data: bytes, offset: int) -> tuple[int, int]:
    end = data.find(b":", offset)
    if end < 0:
        raise SerializationDecodeError("missing length delimiter")
    text = data[offset:end]
    if not text or not text.lstrip(b"-").isdigit():
        raise SerializationDecodeError(f"bad length field {text!r}")
    return int(text), end + 1


def _decode_from(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise SerializationDecodeError("unexpected end of canonical data")
    tag = data[offset : offset + 1]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        length, offset = _read_length(data, offset)
        chunk = data[offset : offset + length]
        if len(chunk) != length:
            raise SerializationDecodeError("truncated int")
        return int(chunk), offset + length
    if tag == _TAG_FLOAT:
        chunk = data[offset : offset + 8]
        if len(chunk) != 8:
            raise SerializationDecodeError("truncated float")
        return struct.unpack(">d", chunk)[0], offset + 8
    if tag == _TAG_STR:
        length, offset = _read_length(data, offset)
        chunk = data[offset : offset + length]
        if len(chunk) != length:
            raise SerializationDecodeError("truncated str")
        return chunk.decode("utf-8"), offset + length
    if tag == _TAG_BYTES:
        length, offset = _read_length(data, offset)
        chunk = data[offset : offset + length]
        if len(chunk) != length:
            raise SerializationDecodeError("truncated bytes")
        return chunk, offset + length
    if tag == _TAG_LIST:
        items: list[Any] = []
        while True:
            if offset >= len(data):
                raise SerializationDecodeError("unterminated list")
            if data[offset : offset + 1] == _TAG_END:
                return items, offset + 1
            item, offset = _decode_from(data, offset)
            items.append(item)
    if tag == _TAG_DICT:
        result: dict[str, Any] = {}
        previous_key: str | None = None
        while True:
            if offset >= len(data):
                raise SerializationDecodeError("unterminated dict")
            if data[offset : offset + 1] == _TAG_END:
                return result, offset + 1
            key, offset = _decode_from(data, offset)
            if not isinstance(key, str):
                raise SerializationDecodeError("dict key must decode to str")
            if previous_key is not None and key <= previous_key:
                raise SerializationDecodeError("dict keys not in canonical order")
            previous_key = key
            value, offset = _decode_from(data, offset)
            result[key] = value
    raise SerializationDecodeError(f"unknown tag {tag!r} at offset {offset - 1}")
