"""The two wire codecs and memoized frame sizing — the wire hot path.

Every simulated send must know how many bytes the payload occupies on the
wire (latency is size-dependent).  Before this package, each send rendered
the full envelope through ``canonical_encode`` — once per link, so a
message forwarded along an N-broker path was encoded N times.  This module
fixes that hot path two ways:

* a fixed table of two :class:`Codec` implementations (``json`` — the
  legacy canonical rendering — and ``compact`` — the binary format of
  :mod:`repro.wire.compact`), chosen once per network by name;
* a bounded :class:`SizeMemo`, one per
  :class:`~repro.messaging.broker_network.BrokerNetwork`, holding that
  network's codec and registry:
  :class:`~repro.messaging.message.Message` is a frozen dataclass and
  ``hops`` never rides the wire, so the encoded size of a message is
  immutable — it is computed once per message and reused by every
  forward, with :class:`RoutedFrame` sizes derived additively from the
  memoized message size plus the codec's exact destination overhead,
  itself memoized per destination tuple.

Instruments (see docs/OBSERVABILITY.md): ``codec.encode.ms`` and
``codec.encode.memo.hit`` / ``codec.encode.memo.miss``.  The encode-time
histogram observes a *modeled, deterministic* cost (a linear function of
the encoded size) — never the host's wall clock — so committed metric
snapshots stay machine-stable.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property
from typing import Any, Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.messaging.message import Message, RoutedFrame
from repro.obs import Counter, Histogram, MetricsRegistry
from repro.wire.compact import CompactCodec
from repro.wire.json_codec import JsonCodec

#: Modeled serialization cost observed into ``codec.encode.ms``: a fixed
#: dispatch cost plus a per-KB scan cost.  Deterministic by construction
#: (a function of the encoded size only) so snapshots never depend on the
#: machine running the simulation.
ENCODE_BASE_MS = 0.004
ENCODE_MS_PER_KB = {"json": 0.020, "compact": 0.012}

#: Bound on a memo's message_id -> size table; LRU beyond this.
SIZE_MEMO_CAPACITY = 4096

#: Bound on a memo's destination tuple -> overhead table; oldest out.
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
            f"unknown wire codec {name!r}; known: {tuple(sorted(_CODECS))}"
        ) from None


def modeled_encode_ms(codec_name: str, size_bytes: int) -> float:
    """Deterministic serialization cost for one encode of ``size_bytes``."""
    return ENCODE_BASE_MS + ENCODE_MS_PER_KB[codec_name] * (size_bytes / 1024.0)


class SizeMemo:
    """The encoded sizes one network has computed, reused by later sends.

    A network builds one memo for its codec and its registry and hands it
    to every link it creates.  Message sizes are keyed by message id,
    which is sound because a network draws every id it carries from its
    own counter; a message that never entered a network (id 0) is sized
    but not kept.  Destination overheads are a pure function of the
    destinations.  The three instruments are resolved on first use, so a
    registry only ever shows the names a run touched
    (docs/OBSERVABILITY.md "Adding an instrument").
    """

    def __init__(self, metrics: MetricsRegistry, codec: str = "json") -> None:
        self.codec = get_codec(codec)
        self.metrics = metrics
        self.sizes: OrderedDict[int, int] = OrderedDict()
        self.overheads: dict[tuple[str, ...], int] = {}

    @cached_property
    def _hit(self) -> Counter:
        return self.metrics.counter("codec.encode.memo.hit")

    @cached_property
    def _miss(self) -> Counter:
        return self.metrics.counter("codec.encode.memo.miss")

    @cached_property
    def _encode_ms(self) -> Histogram:
        return self.metrics.histogram("codec.encode.ms")

    def _encode_size(self, payload: Any) -> int:
        """Render ``payload`` into a scratch buffer and return its byte length."""
        codec = self.codec
        size = codec.encode_into(payload, bytearray())
        self._encode_ms.observe(modeled_encode_ms(codec.name, size))
        return size


def frame_size(payload: Any, memo: SizeMemo) -> int:
    """Bytes ``payload`` occupies on the wire under ``memo``'s codec.

    A message is encoded on its first send only and its size kept in
    ``memo.sizes``; a routed frame adds the codec's exact destination
    overhead (docs/WIRE_FORMAT.md), a pure function of the destinations
    computed once per destination tuple into ``memo.overheads``, since a
    frame crossing N brokers towards one destination set carries an equal
    tuple at every hop.  So broker forwarding re-renders neither.  Plain
    values are encoded directly (uncached: they carry no identity to key
    a memo on).
    """
    if isinstance(payload, RoutedFrame):
        message = payload.message
    elif isinstance(payload, Message):
        message = payload
    else:
        return memo._encode_size(payload)
    sizes = memo.sizes
    key = message.message_id
    size = sizes.get(key)
    if size is not None:
        sizes.move_to_end(key)
        memo._hit.inc()
    else:
        size = memo._encode_size(message)
        memo._miss.inc()
        if key:
            sizes[key] = size
            if len(sizes) > SIZE_MEMO_CAPACITY:
                sizes.popitem(last=False)
    if message is payload:
        return size
    destinations = payload.destinations
    if type(destinations) is not tuple:
        destinations = tuple(destinations)
    overheads = memo.overheads
    overhead = overheads.get(destinations)
    if overhead is None:
        overhead = memo.codec.frame_overhead(payload)
        if len(overheads) >= OVERHEAD_MEMO_CAPACITY:
            del overheads[next(iter(overheads))]
        overheads[destinations] = overhead
    return size + overhead
