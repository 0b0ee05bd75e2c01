"""The two wire codecs and memoized frame sizing — the wire hot path.

Every simulated send must know how many bytes the payload occupies on the
wire (latency is size-dependent).  Before this package, each send rendered
the full envelope through ``canonical_encode`` — once per link, so a
message forwarded along an N-broker path was encoded N times.  This module
fixes that hot path two ways:

* a fixed table of two :class:`Codec` implementations (``json`` — the
  legacy canonical rendering — and ``compact`` — the binary format of
  :mod:`repro.wire.compact`), selected per link;
* a bounded :class:`SizeMemo`, one per
  :class:`~repro.messaging.broker_network.BrokerNetwork`:
  :class:`~repro.messaging.message.Message` is a frozen dataclass and
  ``hops`` never rides the wire, so the encoded size of a message is
  immutable — it is computed once per (codec, message) and reused by every
  forward, with :class:`RoutedFrame` sizes derived additively from the
  memoized message size plus the codec's exact destination overhead,
  itself memoized per (codec, destination tuple).

Instruments (see docs/OBSERVABILITY.md): ``codec.encode.ms`` and
``codec.encode.memo.hit`` / ``codec.encode.memo.miss``.  The encode-time
histogram observes a *modeled, deterministic* cost (a linear function of
the encoded size) — never the host's wall clock — so committed metric
snapshots stay machine-stable.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.messaging.message import Message, RoutedFrame
from repro.wire.compact import CompactCodec
from repro.wire.json_codec import JsonCodec

#: Environment variable consulted by :func:`codec_name_from_env`; the CI
#: test matrix sets it to run the tier-1 suite under each codec.
CODEC_ENV_VAR = "REPRO_CODEC"

#: Modeled serialization cost observed into ``codec.encode.ms``: a fixed
#: dispatch cost plus a per-KB scan cost.  Deterministic by construction
#: (a function of the encoded size only) so snapshots never depend on the
#: machine running the simulation.
ENCODE_BASE_MS = 0.004
ENCODE_MS_PER_KB = {"json": 0.020, "compact": 0.012}
_ENCODE_MS_PER_KB_DEFAULT = 0.020

#: Bound on a memo's (codec, message_id) -> size table; LRU beyond this.
SIZE_MEMO_CAPACITY = 4096

#: Bound on a memo's (codec, destination tuple) -> overhead table; oldest out.
OVERHEAD_MEMO_CAPACITY = 1024


@runtime_checkable
class Codec(Protocol):
    """What a wire codec provides."""

    name: str

    def encode(self, payload: Any) -> bytes:
        """Render a payload (envelope or plain value) to wire bytes."""
        ...

    def encode_into(self, payload: Any, out: bytearray) -> int:
        """Append the rendering to ``out``; return bytes appended."""
        ...

    def decode(self, data: bytes) -> Any:
        """Inverse of :meth:`encode`."""
        ...

    def frame_overhead(self, frame: RoutedFrame) -> int:
        """Exact bytes a routed frame adds over its bare message."""
        ...


_CODECS: dict[str, Codec] = {"json": JsonCodec(), "compact": CompactCodec()}


def get_codec(name: str) -> Codec:
    """One of the two codecs, by name."""
    try:
        return _CODECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown wire codec {name!r}; known: {codec_names()}"
        ) from None


def codec_names() -> tuple[str, ...]:
    """The codec names, sorted."""
    return tuple(sorted(_CODECS))


def resolve_codec(spec: str | Codec | None) -> Codec:
    """Normalize a codec spec (name, instance, or ``None`` -> ``json``)."""
    if spec is None:
        return _CODECS["json"]
    if isinstance(spec, str):
        return get_codec(spec)
    return spec


def codec_name_from_env() -> str | None:
    """``$REPRO_CODEC`` validated against the codec names; ``None`` when unset.

    The one reader of the variable, called by
    :func:`repro.deployment.build_deployment` when no codec is passed.
    """
    name = os.environ.get(CODEC_ENV_VAR, "").strip()
    if not name:
        return None
    if name not in _CODECS:
        raise ConfigurationError(
            f"{CODEC_ENV_VAR}={name!r} is not a known codec: {codec_names()}"
        )
    return name


def modeled_encode_ms(codec_name: str, size_bytes: int) -> float:
    """Deterministic serialization cost for one encode of ``size_bytes``."""
    per_kb = ENCODE_MS_PER_KB.get(codec_name, _ENCODE_MS_PER_KB_DEFAULT)
    return ENCODE_BASE_MS + per_kb * (size_bytes / 1024.0)


def _encode_size(payload: Any, codec: Codec, metrics: Any) -> int:
    """Render ``payload`` into a scratch buffer and return its byte length."""
    size = codec.encode_into(payload, bytearray())
    if metrics is not None:
        metrics.histogram("codec.encode.ms").observe(
            modeled_encode_ms(codec.name, size)
        )
    return size


class SizeMemo:
    """The encoded sizes one network has computed, reused by later sends.

    Message sizes are keyed by (codec name, message id), which is sound
    because a network draws every id it carries from its own counter; a
    message that never entered a network (id 0) is sized but not kept.
    Destination overheads are a pure function of (codec, destinations).
    """

    __slots__ = ("sizes", "overheads")

    def __init__(self) -> None:
        self.sizes: OrderedDict[tuple[str, int], int] = OrderedDict()
        self.overheads: dict[tuple[Codec, tuple[str, ...]], int] = {}

    def message_size(self, message: Message, codec: Codec, metrics: Any) -> int:
        """``message``'s encoded size under ``codec``, encoded on a miss only."""
        sizes = self.sizes
        key = (codec.name, message.message_id)
        size = sizes.get(key)
        if size is not None:
            sizes.move_to_end(key)
            if metrics is not None:
                metrics.counter("codec.encode.memo.hit").inc()
            return size
        size = _encode_size(message, codec, metrics)
        if metrics is not None:
            metrics.counter("codec.encode.memo.miss").inc()
        if message.message_id:
            sizes[key] = size
            if len(sizes) > SIZE_MEMO_CAPACITY:
                sizes.popitem(last=False)
        return size

    def frame_overhead(self, frame: RoutedFrame, codec: Codec) -> int:
        """``codec.frame_overhead(frame)``, computed once per destination tuple.

        The overhead is a pure function of the destinations
        (docs/WIRE_FORMAT.md), and a frame crossing N brokers towards one
        destination set carries an equal tuple at every hop.
        """
        destinations = frame.destinations
        if type(destinations) is not tuple:
            destinations = tuple(destinations)
        overheads = self.overheads
        key = (codec, destinations)
        overhead = overheads.get(key)
        if overhead is None:
            overhead = codec.frame_overhead(frame)
            if len(overheads) >= OVERHEAD_MEMO_CAPACITY:
                del overheads[next(iter(overheads))]
            overheads[key] = overhead
        return overhead


def frame_size(
    payload: Any,
    codec: str | Codec | None = None,
    metrics: Any = None,
    memo: SizeMemo | None = None,
) -> int:
    """Bytes ``payload`` occupies on the wire under ``codec``.

    Messages are sized once per (codec, message) in ``memo``; routed
    frames reuse the memoized message size plus the codec's exact
    destination overhead (memoized per destination tuple), so broker
    forwarding re-renders neither.  Without a ``memo`` nothing is kept
    between calls.  Plain values are encoded directly (uncached — they
    carry no identity to key a memo on).
    """
    resolved = resolve_codec(codec)
    if memo is None:
        memo = SizeMemo()
    if isinstance(payload, RoutedFrame):
        return memo.message_size(payload.message, resolved, metrics) + memo.frame_overhead(
            payload, resolved
        )
    if isinstance(payload, Message):
        return memo.message_size(payload, resolved, metrics)
    return _encode_size(payload, resolved, metrics)
