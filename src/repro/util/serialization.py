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

:class:`Canonical` holds a value as its encoded bytes: placed anywhere in
a container, it encodes to exactly the bytes the plain value would, so a
value encoded once (an authorization token, where it is issued) is spliced
into every frame that carries it instead of being re-encoded.

:class:`Fields` is the receiving side of the same type universe: the one
place a decoded mapping becomes typed values (docs/WIRE_FORMAT.md,
"Decoding").  :func:`wire_record` derives a record's ``to_dict`` /
``from_dict`` from its dataclass fields through the same reads.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import operator
import struct
import sys
import types
import typing
from dataclasses import dataclass
from typing import Annotated, Any, Callable

from repro.errors import (
    MalformedFrameError,
    ReproError,
    SerializationDecodeError,
    SerializationTypeError,
    ValidationError,
)
from repro.util.identifiers import UUID128, EntityId, RequestId, SessionId

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

    The streaming variant of :func:`canonical_encode`: a caller that only
    needs a size (``repro.wire``'s size memo) renders into a fresh
    ``bytearray`` and keeps the returned count.  The pieces are joined
    before they are appended, so an encode that raises leaves ``out`` as
    it was.  Returns the number of bytes appended.
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
    elif kind is Canonical:
        # after every builtin arm: only a container carrying one pays the test
        emit(value.data)
    else:
        for bases, builtin in _SUBCLASS_ORDER:
            if isinstance(value, bases):
                _encode_into(value, emit, builtin)
                return
        raise SerializationTypeError(f"cannot canonically encode {type(value).__name__}")


def canonical_decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`canonical_encode`.

    Raises :class:`SerializationDecodeError` (a ``ValueError``) on
    malformed or trailing data, and on containers nested deeper than
    :data:`MAX_DECODE_DEPTH`.
    """
    value, offset = _decode_from(data, 0, 0)
    if offset != len(data):
        raise SerializationDecodeError(f"trailing bytes after canonical value at offset {offset}")
    return value


#: Deepest container nesting :func:`canonical_decode` accepts; a token nests
#: four deep.  Received bytes must not be able to exhaust the call stack.
MAX_DECODE_DEPTH = 64

#: More digits than any buffer length has (and fewer than ``int``'s limit).
_MAX_LENGTH_DIGITS = 19


def _read_length(data: bytes, offset: int) -> tuple[int, int]:
    end = data.find(b":", offset)
    if end < 0:
        raise SerializationDecodeError("missing length delimiter")
    text = data[offset:end]
    if not text or len(text) > _MAX_LENGTH_DIGITS or not text.lstrip(b"-").isdigit():
        raise SerializationDecodeError(f"bad length field {text[:24]!r}")
    return int(text), end + 1


def _decode_from(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
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
        try:
            return int(chunk), offset + length
        except ValueError:
            raise SerializationDecodeError(f"bad int {chunk!r}") from None
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
        try:
            return chunk.decode("utf-8"), offset + length
        except UnicodeDecodeError:
            raise SerializationDecodeError("str is not UTF-8") from None
    if tag == _TAG_BYTES:
        length, offset = _read_length(data, offset)
        chunk = data[offset : offset + length]
        if len(chunk) != length:
            raise SerializationDecodeError("truncated bytes")
        return chunk, offset + length
    if (tag == _TAG_LIST or tag == _TAG_DICT) and depth >= MAX_DECODE_DEPTH:
        raise SerializationDecodeError(f"containers nested deeper than {MAX_DECODE_DEPTH}")
    depth += 1
    if tag == _TAG_LIST:
        items: list[Any] = []
        while True:
            if offset >= len(data):
                raise SerializationDecodeError("unterminated list")
            if data[offset : offset + 1] == _TAG_END:
                return items, offset + 1
            item, offset = _decode_from(data, offset, depth)
            items.append(item)
    if tag == _TAG_DICT:
        result: dict[str, Any] = {}
        previous_key: str | None = None
        while True:
            if offset >= len(data):
                raise SerializationDecodeError("unterminated dict")
            if data[offset : offset + 1] == _TAG_END:
                return result, offset + 1
            key, offset = _decode_from(data, offset, depth)
            if not isinstance(key, str):
                raise SerializationDecodeError("dict key must decode to str")
            if previous_key is not None and key <= previous_key:
                raise SerializationDecodeError("dict keys not in canonical order")
            previous_key = key
            value, offset = _decode_from(data, offset, depth)
            result[key] = value
    raise SerializationDecodeError(f"unknown tag {tag!r} at offset {offset - 1}")


@dataclass(frozen=True, slots=True)
class Canonical:
    """A canonical value held as its encoded bytes.

    :func:`canonical_encode` emits ``data`` verbatim wherever a
    ``Canonical`` sits, so a container holding ``Canonical.of(v)`` encodes
    to exactly the bytes of the same container holding ``v``.  Equal
    bytes are equal values; ``data`` is whatever was received, and
    :attr:`value` raises :class:`SerializationDecodeError` when it does
    not decode.
    """

    data: bytes

    def __post_init__(self) -> None:
        if type(self.data) is not bytes:
            raise SerializationTypeError(
                f"Canonical holds bytes, got {type(self.data).__name__}"
            )

    @classmethod
    def of(cls, value: Any) -> "Canonical":
        """Encode ``value`` once."""
        return cls(canonical_encode(value))

    @property
    def value(self) -> Any:
        """The held value, decoded afresh on every read."""
        return canonical_decode(self.data)


_REQUIRED: Any = object()
_FLOAT_MAX = sys.float_info.max


def _typed(kinds: tuple[type, ...], what: str) -> Callable[..., Any]:
    """The :class:`Fields` read of one kind: the exact type, or the default."""

    def read(self: "Fields", key: str, default: Any = _REQUIRED) -> Any:
        value = self._data.get(key)
        if value is None:
            if default is _REQUIRED:
                raise self._bad(key, "is missing")
            return default
        if type(value) not in kinds:
            raise self._bad(key, f"must be {what}, got {type(value).__name__}")
        return value

    return read


def _sequence(kind: type, what: str) -> Callable[..., Any]:
    """The :class:`Fields` read of a list whose every element is a ``kind``, as a tuple."""

    def read(self: "Fields", key: str, default: Any = _REQUIRED) -> Any:
        value = self.items(key, default)
        if value is default:
            return value
        if any(type(item) is not kind for item in value):
            raise self._bad(key, f"must be a list of {what}")
        return tuple(value)

    return read


class Fields:
    """Typed reads of one received mapping: a receiver never converts, it checks.

    Every read is by **exact type**: an int is never a ``bool``, ``str`` or
    ``float``; a number is an ``int`` or ``float`` that is finite; bytes
    are ``bytes`` / ``bytearray`` and never ``bytes(x)``, which turns an
    integer into an allocation of that size.  With a ``default``, a key
    that is absent or ``None`` reads as the default; without one it is
    malformed.  A failed read raises :class:`MalformedFrameError` naming
    ``owner`` (the class being decoded) and the key, and as a context
    manager the reader reports a well-typed value that the constructor
    inside the block refuses (a range, a key size, an empty id) as that
    same error.
    """

    __slots__ = ("_data", "_owner")

    def __init__(self, data: Any, owner: type | str) -> None:
        self._owner = owner if type(owner) is str else owner.__name__
        if type(data) is not dict:
            raise self._bad("mapping", f"expected, got {type(data).__name__}")
        self._data = data

    def _bad(self, key: str, problem: str) -> MalformedFrameError:
        return MalformedFrameError(f"{self._owner}: {key!r} {problem}")

    def __enter__(self) -> "Fields":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        named = isinstance(exc, ReproError) and isinstance(exc, ValueError)
        if named and not isinstance(exc, MalformedFrameError):
            raise MalformedFrameError(f"{self._owner}: {exc}") from exc

    def value(self, key: str, default: Any = _REQUIRED) -> Any:
        """Whatever canonical value ``key`` holds (``None`` included)."""
        if key in self._data:
            return self._data[key]
        if default is _REQUIRED:
            raise self._bad(key, "is missing")
        return default

    integer = _typed((int,), "an int")
    text = _typed((str,), "a str")
    mapping = _typed((dict,), "a mapping")
    items = _typed((list, tuple), "a list")
    _number = _typed((int, float), "a number")
    _octets = _typed((bytes, bytearray), "bytes")

    def number(self, key: str, default: Any = _REQUIRED, unbounded: bool = False) -> Any:
        """A finite int or float, as received, so a signed statement rebuilt
        from it encodes to the bytes its signer signed; ``unbounded`` admits
        the infinities too, for an expiry that means "never"."""
        value = self._number(key, default)
        if value is default:
            return value
        if not (-_FLOAT_MAX <= value <= _FLOAT_MAX or unbounded and abs(value) == math.inf):
            raise self._bad(key, "must be a finite number")
        return value

    def octets(self, key: str, default: Any = _REQUIRED) -> Any:
        value = self._octets(key, default)
        return value if value is default else bytes(value)

    texts = _sequence(str, "str")
    mappings = _sequence(dict, "mappings")

    def member(self, key: str, enum_class: Any, default: Any = _REQUIRED) -> Any:
        """The member of ``enum_class`` whose value is the str under ``key``."""
        value = self.text(key, default)
        if value is default:
            return value
        # what ``enum_class(value)`` looks up, without ~1 µs of call: every trace reads one
        member = enum_class._value2member_map_.get(value)
        if member is None:
            raise self._bad(key, f"names no {enum_class.__name__}: {value!r}")
        return member


#: The read of a field with a dataclass default whose key is absent: the
#: field is left out of the constructor call, so the class's default applies.
_OMIT: Any = object()

#: Annotations whose value goes on the wire as it is, with their read.
_PLAIN_READS: dict[Any, Callable[..., Any]] = {
    int: Fields.integer,
    float: Fields.number,
    str: Fields.text,
    bytes: Fields.octets,
    Any: Fields.value,
}

#: Identifiers, each written as its plain value: ``(the attribute that is
#: that value, its read, the identifier's parse of it)``.
_IDENTIFIERS: dict[type, tuple[str, Callable[..., Any], Callable[[Any], Any]]] = {
    EntityId: ("name", Fields.text, EntityId),
    RequestId: ("value", Fields.integer, RequestId),
    SessionId: ("value.hex", Fields.text, lambda text: SessionId(UUID128.from_hex(text))),
    UUID128: ("hex", Fields.text, UUID128.from_hex),
}


def _then(read: Callable[..., Any], convert: Callable[[Any], Any]) -> Callable[..., Any]:
    """``read``, then ``convert`` of a value that is not the default; a
    value ``convert`` refuses with a named ``ValueError`` is malformed."""

    def then(fields: Fields, key: str, default: Any) -> Any:
        value = read(fields, key, default)
        if value is default:
            return value
        with fields:
            return convert(value)

    return then


def _field_codec(annotation: Any, name: str) -> tuple[tuple, Callable[..., Any]]:
    """``(writers, read)`` of the field ``name``; a writer is ``(wire key, getter, write)``.

    ``Annotated`` states what the type alone cannot: the key prefix of an
    RSA public key, or that a ``float`` may be ``"unbounded"`` (infinite).
    """
    from repro.crypto.rsa import RSAPublicKey  # here: repro.crypto imports this module

    annotated = typing.get_origin(annotation) is Annotated
    hint, *extras = typing.get_args(annotation) if annotated else (annotation,)
    if hint is RSAPublicKey:
        n, e = (f"{extras[0] if extras else ''}{part}" for part in "ne")
        read = _then(
            lambda fields, key, default: (fields.integer(n), fields.integer(e)),
            lambda numbers: RSAPublicKey(*numbers),
        )
        return (
            (n, operator.attrgetter(f"{name}.n"), None),
            (e, operator.attrgetter(f"{name}.e"), None),
        ), read
    write, read = _value_codec(hint)
    if extras == ["unbounded"]:
        read = functools.partial(Fields.number, unbounded=True)
    return ((name, operator.attrgetter(name), write),), read


def _value_codec(annotation: Any) -> tuple[Callable[[Any], Any] | None, Callable[..., Any]]:
    """``(write, read)`` of a value under one key; a ``write`` of None sends it as it is."""
    if annotation in _PLAIN_READS:
        return None, _PLAIN_READS[annotation]
    if annotation in _IDENTIFIERS:
        attribute, read, parse = _IDENTIFIERS[annotation]
        return operator.attrgetter(attribute), _then(read, parse)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        write, read = _value_codec(inner)
        if write is None:
            return None, read
        return (lambda value: None if value is None else write(value)), read
    if annotation is dict:
        return dict, Fields.mapping
    if annotation is tuple:
        return list, _then(Fields.items, tuple)
    if origin is frozenset and args == (str,):
        return sorted, _then(Fields.texts, frozenset)
    if origin is tuple and args == (str, ...):
        return list, Fields.texts
    if origin is tuple and args == (dict, ...):
        return list, Fields.mappings
    if origin is tuple and len(args) == 2 and args[1] is ... and hasattr(args[0], "from_dict"):
        record = args[0]
        return (
            lambda values: [record.to_dict(value) for value in values],
            _then(Fields.items, lambda items: tuple(record.from_dict(item) for item in items)),
        )
    if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
        return operator.attrgetter("value"), (
            lambda fields, key, default: fields.member(key, annotation, default)
        )
    if hasattr(annotation, "from_dict"):
        return annotation.to_dict, _then(Fields.value, annotation.from_dict)
    raise SerializationTypeError(f"no wire form for the annotation {annotation!r}")


def _write_record(record: Any) -> dict:
    """The wire mapping of a :func:`wire_record` instance: its tag, then each field."""
    kind, writers, _ = record._wire
    data: dict = {} if kind is None else {"kind": kind}
    for key, get, write in writers:
        value = get(record)
        data[key] = value if write is None else write(value)
    return data


def read_record(cls: Any, data: Any) -> Any:
    """Decode a :func:`wire_record` class's mapping; raises :class:`MalformedFrameError`.

    A tagged record refuses any other ``kind``.  A value the constructor
    refuses with a :class:`ValidationError` is reported as malformed; any
    other error of the constructor passes through.
    """
    kind, _, readers = cls._wire
    fields = Fields(data, cls)
    if kind is not None and fields.text("kind") != kind:
        raise fields._bad("kind", f"must be {kind!r}")
    values = {}
    for name, read, default in readers:
        value = read(fields, name, default)
        if value is not _OMIT:
            values[name] = value
    try:
        return cls(**values)
    except ValidationError as exc:
        raise MalformedFrameError(f"{fields._owner}: {exc}") from exc


def wire_record(kind: str | None = None) -> Callable[[type], type]:
    """Make a class a frozen, slotted dataclass whose ``to_dict`` /
    ``from_dict`` derive from its fields.

    Each field goes on the wire under its own name, read back by the
    :class:`Fields` read its annotation names (docs/WIRE_FORMAT.md,
    "Declared records"); an RSA public key goes as two keys.  A field with
    a default is optional on the wire; one without is required; one the
    constructor does not take is not on the wire.  ``kind``, when given,
    is written first and checked on decode.  A ``from_dict`` the class
    body defines is kept; it can call :func:`read_record`.
    """

    def declare(cls: type) -> type:
        cls = dataclass(frozen=True, slots=True)(cls)
        hints = typing.get_type_hints(cls, include_extras=True)
        writers, readers = [], []
        for field in dataclasses.fields(cls):
            if not field.init:
                continue
            field_writers, read = _field_codec(hints[field.name], field.name)
            writers.extend(field_writers)
            has_default = (
                field.default is not dataclasses.MISSING
                or field.default_factory is not dataclasses.MISSING
            )
            readers.append((field.name, read, _OMIT if has_default else _REQUIRED))
        cls._wire = (kind, tuple(writers), tuple(readers))
        cls.to_dict = _write_record
        if "from_dict" not in vars(cls):
            cls.from_dict = classmethod(read_record)
        return cls

    return declare
