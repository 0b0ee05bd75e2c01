"""Foundational utilities: identifiers, clocks, statistics, serialization."""

from repro.util.identifiers import UUID128, EntityId, RequestId, SessionId, SequenceCounter
from repro.util.clock import Clock, VirtualClock, SkewedClock, NTPSkewModel
from repro.util.stats import RunningStats, StatSummary, summarize
from repro.util.serialization import canonical_encode, canonical_decode

__all__ = [
    "UUID128",
    "EntityId",
    "RequestId",
    "SessionId",
    "SequenceCounter",
    "Clock",
    "VirtualClock",
    "SkewedClock",
    "NTPSkewModel",
    "RunningStats",
    "StatSummary",
    "summarize",
    "canonical_encode",
    "canonical_decode",
]
