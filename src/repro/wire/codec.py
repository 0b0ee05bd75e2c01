"""Codec registry and memoized frame sizing — the wire hot path.

Every simulated send must know how many bytes the payload occupies on the
wire (latency is size-dependent).  Before this package, each send rendered
the full envelope through ``canonical_encode`` — once per link, so a
message forwarded along an N-broker path was encoded N times.  This module
fixes that hot path three ways:

* a **registry** of named :class:`Codec` implementations (``json`` — the
  legacy canonical rendering — and ``compact`` — the binary format of
  :mod:`repro.wire.compact`), selected per link / transport profile;
* a bounded **size memo**: :class:`~repro.messaging.message.Message` is a
  frozen dataclass and ``hops`` never rides the wire, so the encoded size
  of a message is immutable — it is computed once per (codec, message) and
  reused by every forward, with :class:`RoutedFrame` sizes derived
  additively from the memoized message size plus the codec's exact
  destination overhead, itself memoized per (codec, destination tuple);
* a **frame pool**: the encode that does happen renders into a pooled
  scratch buffer (:class:`repro.wire.pool.FramePool`) instead of
  allocating per send.

Instruments (see docs/OBSERVABILITY.md): ``codec.encode.ms``,
``codec.encode.memo.hit`` / ``codec.encode.memo.miss``, and
``frame.pool.hit`` / ``frame.pool.miss``.  The encode-time histogram
observes a *modeled, deterministic* cost (a linear function of the encoded
size) — never the host's wall clock — so committed metric snapshots stay
machine-stable.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.messaging.message import Message, RoutedFrame, register_reset_hook
from repro.wire.compact import CompactCodec
from repro.wire.json_codec import JsonCodec
from repro.wire.pool import FramePool

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

#: Bound on the (codec, message_id) -> size memo; LRU beyond this.
SIZE_MEMO_CAPACITY = 4096

#: Bound on the (codec, destination tuple) -> overhead memo; oldest out.
OVERHEAD_MEMO_CAPACITY = 1024


@runtime_checkable
class Codec(Protocol):
    """What a wire codec must provide to plug into the registry."""

    name: str

    def encode(self, payload: Any) -> bytes:
        """Render a payload (envelope or plain value) to wire bytes."""
        ...

    def encode_into(self, payload: Any, out: bytearray) -> int:
        """Append the rendering to a pooled buffer; return bytes appended."""
        ...

    def decode(self, data: bytes) -> Any:
        """Inverse of :meth:`encode`."""
        ...

    def frame_overhead(self, frame: RoutedFrame) -> int:
        """Exact bytes a routed frame adds over its bare message."""
        ...


_REGISTRY: dict[str, Codec] = {}


def register_codec(codec: Codec) -> None:
    """Add a codec to the registry; re-registering a name replaces it."""
    _REGISTRY[codec.name] = codec


def get_codec(name: str) -> Codec:
    """Look up a registered codec by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown wire codec {name!r}; registered: {codec_names()}"
        ) from None


def codec_names() -> tuple[str, ...]:
    """Registered codec names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_codec(spec: str | Codec | None) -> Codec:
    """Normalize a codec spec (name, instance, or ``None`` -> ``json``)."""
    if spec is None:
        return _REGISTRY["json"]
    if isinstance(spec, str):
        return get_codec(spec)
    return spec


def codec_name_from_env() -> str | None:
    """``$REPRO_CODEC`` validated against the registry; ``None`` when unset.

    The one reader of the variable.  :func:`repro.deployment.build_deployment`
    needs ``None`` (not ``"json"``) when the environment is silent, so a
    transport profile's own codec still applies as the next fallback tier.
    """
    name = os.environ.get(CODEC_ENV_VAR, "").strip()
    if not name:
        return None
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"{CODEC_ENV_VAR}={name!r} is not a registered codec: {codec_names()}"
        )
    return name


def default_codec_name() -> str:
    """The deployment-level default codec: ``$REPRO_CODEC`` or ``json``.

    The CI matrix flips the whole suite to ``compact`` through the
    variable, while harnesses that compare against committed seed
    snapshots pin ``codec="json"`` explicitly and stay immune to it.
    """
    return codec_name_from_env() or "json"


register_codec(JsonCodec())
register_codec(CompactCodec())


#: Shared scratch-buffer pool for all sizing encodes (single-threaded sim).
_POOL = FramePool()

#: (codec name, message id) -> encoded size of the bare message frame.
_SIZE_MEMO: OrderedDict[tuple[str, int], int] = OrderedDict()

#: (codec instance, destination tuple) -> bytes the destinations add to a
#: routed frame.  Keyed by instance, not name, so re-registering a name
#: can never serve the replaced codec's overhead.
_OVERHEAD_MEMO: dict[tuple[Codec, tuple[str, ...]], int] = {}

#: Actual encode invocations per codec name — the "encode at most once per
#: (codec, message)" assertion in the test suite reads this.
_ENCODE_COUNTS: dict[str, int] = {}


def clear_size_memo() -> None:
    """Drop every memoized size (fired by ``reset_message_ids``)."""
    _SIZE_MEMO.clear()
    _OVERHEAD_MEMO.clear()


register_reset_hook(clear_size_memo)


def size_memo_stats() -> dict[str, int]:
    """Current memo occupancy and lifetime encode counts per codec."""
    stats = {"entries": len(_SIZE_MEMO)}
    for name in sorted(_ENCODE_COUNTS):
        stats[f"encodes.{name}"] = _ENCODE_COUNTS[name]
    return stats


def frame_pool() -> FramePool:
    """The process-wide scratch-buffer pool (exposed for tests/metrics)."""
    return _POOL


def modeled_encode_ms(codec_name: str, size_bytes: int) -> float:
    """Deterministic serialization cost for one encode of ``size_bytes``."""
    per_kb = ENCODE_MS_PER_KB.get(codec_name, _ENCODE_MS_PER_KB_DEFAULT)
    return ENCODE_BASE_MS + per_kb * (size_bytes / 1024.0)


def _encode_size(payload: Any, codec: Codec, metrics: Any) -> int:
    """Render ``payload`` into a pooled buffer and return its byte length."""
    hits_before = _POOL.hits
    buffer = _POOL.acquire()
    try:
        size = codec.encode_into(payload, buffer)
    finally:
        _POOL.release(buffer)
    _ENCODE_COUNTS[codec.name] = _ENCODE_COUNTS.get(codec.name, 0) + 1
    if metrics is not None:
        if _POOL.hits > hits_before:
            metrics.counter("frame.pool.hit").inc()
        else:
            metrics.counter("frame.pool.miss").inc()
        metrics.histogram("codec.encode.ms").observe(
            modeled_encode_ms(codec.name, size)
        )
    return size


def _message_size(message: Message, codec: Codec, metrics: Any) -> int:
    key = (codec.name, message.message_id)
    size = _SIZE_MEMO.get(key)
    if size is not None:
        _SIZE_MEMO.move_to_end(key)
        if metrics is not None:
            metrics.counter("codec.encode.memo.hit").inc()
        return size
    size = _encode_size(message, codec, metrics)
    if metrics is not None:
        metrics.counter("codec.encode.memo.miss").inc()
    _SIZE_MEMO[key] = size
    if len(_SIZE_MEMO) > SIZE_MEMO_CAPACITY:
        _SIZE_MEMO.popitem(last=False)
    return size


def _frame_overhead(frame: RoutedFrame, codec: Codec) -> int:
    """``codec.frame_overhead(frame)``, computed once per destination tuple.

    The overhead is a pure function of the destinations
    (docs/WIRE_FORMAT.md), and a frame crossing N brokers towards one
    destination set carries an equal tuple at every hop.
    """
    destinations = frame.destinations
    if type(destinations) is not tuple:
        destinations = tuple(destinations)
    key = (codec, destinations)
    overhead = _OVERHEAD_MEMO.get(key)
    if overhead is None:
        overhead = codec.frame_overhead(frame)
        if len(_OVERHEAD_MEMO) >= OVERHEAD_MEMO_CAPACITY:
            del _OVERHEAD_MEMO[next(iter(_OVERHEAD_MEMO))]
        _OVERHEAD_MEMO[key] = overhead
    return overhead


def frame_size(payload: Any, codec: str | Codec | None = None, metrics: Any = None) -> int:
    """Bytes ``payload`` occupies on the wire under ``codec``.

    Messages are sized once per (codec, message) and memoized; routed
    frames reuse the memoized message size plus the codec's exact
    destination overhead (memoized per destination tuple), so broker
    forwarding re-renders neither.  Plain values are encoded directly
    (uncached — they carry no identity to key a memo on).
    """
    resolved = resolve_codec(codec)
    if isinstance(payload, RoutedFrame):
        return _message_size(payload.message, resolved, metrics) + _frame_overhead(
            payload, resolved
        )
    if isinstance(payload, Message):
        return _message_size(payload, resolved, metrics)
    return _encode_size(payload, resolved, metrics)
