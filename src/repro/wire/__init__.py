"""Pluggable wire codecs and memoized frame sizing.

The codec seam the 64-broker federation scenario will ride: every link
sizes (and can round-trip) its payloads through one of two :class:`Codec`
implementations, named once per network — ``json`` (the legacy canonical
rendering, byte compatible with every committed seed snapshot) or
``compact`` (the binary format of docs/WIRE_FORMAT.md).  See :mod:`repro.wire.codec` for the hot
path design (a per-network size memo).
"""

from repro.wire.codec import (
    Codec,
    SizeMemo,
    frame_size,
    get_codec,
    modeled_encode_ms,
)
from repro.wire.compact import CompactCodec
from repro.wire.json_codec import JsonCodec

__all__ = [
    "Codec",
    "CompactCodec",
    "JsonCodec",
    "SizeMemo",
    "frame_size",
    "get_codec",
    "modeled_encode_ms",
]
