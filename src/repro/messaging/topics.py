"""Topic strings and subscription matching.

Topics are '/'-separated strings, e.g. ``StockQuotes/Companies/Adobe``
(section 2.1).  Subscriptions may use two wildcards:

* ``*`` matches exactly one segment,
* ``>`` as the final segment matches one or more remaining segments
  (JMS-style), which lets a tracker subscribe to every trace type of a
  traced entity at once.

A leading '/' is tolerated on input and stripped in the canonical form,
since the paper writes topics both ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import TopicError

WILDCARD_ONE = "*"
WILDCARD_MANY = ">"


class TopicValidationError(TopicError):
    """A topic string violates the syntax rules."""


def split_topic(topic: str) -> list[str]:
    """Split into segments, tolerating a single leading '/'."""
    if not isinstance(topic, str) or not topic:
        raise TopicValidationError(f"topic must be a non-empty string: {topic!r}")
    text = topic[1:] if topic.startswith("/") else topic
    if not text:
        raise TopicValidationError(f"topic has no segments: {topic!r}")
    segments = text.split("/")
    for segment in segments:
        if not segment:
            raise TopicValidationError(f"empty segment in topic {topic!r}")
    return segments


def validate_topic(topic: str, allow_wildcards: bool = False) -> list[str]:
    """Validate and return segments; wildcards only if ``allow_wildcards``."""
    segments = split_topic(topic)
    for index, segment in enumerate(segments):
        if segment in (WILDCARD_ONE, WILDCARD_MANY):
            if not allow_wildcards:
                raise TopicValidationError(
                    f"wildcard {segment!r} not allowed in publish topic {topic!r}"
                )
            if segment == WILDCARD_MANY and index != len(segments) - 1:
                raise TopicValidationError(
                    f"'>' must be the final segment: {topic!r}"
                )
    return segments


@lru_cache(maxsize=4096)
def _cached_segments(topic: str) -> tuple[str, ...]:
    return tuple(split_topic(topic))


def topic_matches(pattern: str, topic: str) -> bool:
    """True if subscription ``pattern`` matches concrete ``topic``."""
    pattern_segments = _cached_segments(pattern)
    topic_segments = _cached_segments(topic)
    for index, pat in enumerate(pattern_segments):
        if pat == WILDCARD_MANY:
            if index != len(pattern_segments) - 1:
                raise TopicValidationError(f"'>' must be final in {pattern!r}")
            return len(topic_segments) > index
        if index >= len(topic_segments):
            return False
        if pat != WILDCARD_ONE and pat != topic_segments[index]:
            return False
    return len(pattern_segments) == len(topic_segments)


@dataclass(frozen=True, slots=True)
class Topic:
    """A validated, canonicalized topic value object."""

    canonical: str

    @classmethod
    def parse(cls, text: str, allow_wildcards: bool = False) -> "Topic":
        """Validate and canonicalize a topic string."""
        segments = validate_topic(text, allow_wildcards)
        return cls("/".join(segments))

    @classmethod
    def of(cls, *segments: str) -> "Topic":
        """Build from segments: ``Topic.of("Availability", "Traces", eid)``."""
        return cls.parse("/".join(segments))

    @property
    def segments(self) -> tuple[str, ...]:
        """The canonical form split into its path segments."""
        return _cached_segments(self.canonical)

    def __str__(self) -> str:
        return self.canonical
