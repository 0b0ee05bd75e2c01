"""The ``json`` codec: the repo's canonical encoding, unchanged.

"json" names the *role* this codec plays — the self-describing,
schema-free rendering every deployment can fall back to — not the text
format: bytes are produced by :func:`repro.util.serialization.canonical_encode`
over ``wire_dict()``, exactly the rendering ``wire_size`` used before the
codec seam existed.  That byte-for-byte equivalence is a hard requirement:
every committed seed snapshot (``benchmarks/results/*.json``) pins wire
sizes produced by this encoding, so the default codec must never change
them.  An authorization token rides as a
:class:`~repro.util.serialization.Canonical`, whose bytes are spliced into
the frame unchanged: the same bytes its plain dict would encode to.
"""

from __future__ import annotations

from typing import Any

from repro.messaging.message import Message, RoutedFrame
from repro.messaging.topics import Topic
from repro.util.serialization import (
    Canonical,
    canonical_decode,
    canonical_encode,
    canonical_encode_into,
)

#: Keys of :meth:`Message.wire_dict`, used to recognize envelopes on decode.
_MESSAGE_KEYS = frozenset(
    {
        "topic",
        "body",
        "source",
        "message_id",
        "created_ms",
        "signature",
        "auth_token",
        "encrypted",
    }
)
_FRAME_KEYS = _MESSAGE_KEYS | {"destinations"}

#: Encoded size of the one dict key a :class:`RoutedFrame` adds.
_DESTINATIONS_KEY_SIZE = len(canonical_encode("destinations"))


def message_from_wire_dict(data: dict) -> Message:
    """Rebuild a :class:`Message` from its ``wire_dict()`` rendering.

    ``hops`` never rides the wire (it is link-local diagnostics), so the
    reconstructed message always carries ``hops=0``.  The token comes back
    in the form it travelled in: its canonical bytes.
    """
    auth_token = data["auth_token"]
    return Message(
        topic=Topic(data["topic"]),
        body=data["body"],
        source=data["source"],
        message_id=data["message_id"],
        created_ms=data["created_ms"],
        signature=data["signature"],
        auth_token=None if auth_token is None else Canonical.of(auth_token),
        encrypted=data["encrypted"],
    )


class JsonCodec:
    """Canonical self-describing encoding (the legacy wire rendering)."""

    name = "json"

    def encode(self, payload: Any) -> bytes:
        """Render ``payload`` (envelope or plain value) to canonical bytes."""
        wire_dict = getattr(payload, "wire_dict", None)
        if callable(wire_dict):
            return canonical_encode(wire_dict())
        return canonical_encode(payload)

    def encode_into(self, payload: Any, out: bytearray) -> int:
        """Append the encoding to ``out``; returns bytes appended."""
        wire_dict = getattr(payload, "wire_dict", None)
        if callable(wire_dict):
            return canonical_encode_into(wire_dict(), out)
        return canonical_encode_into(payload, out)

    def decode(self, data: bytes) -> Any:
        """Inverse of :meth:`encode`.

        Dicts whose keys are exactly a message/frame envelope come back as
        :class:`Message` / :class:`RoutedFrame`; anything else is returned
        as the decoded plain value.
        """
        value = canonical_decode(data)
        if isinstance(value, dict):
            keys = frozenset(value)
            if keys == _FRAME_KEYS:
                return RoutedFrame(
                    message=message_from_wire_dict(value),
                    destinations=tuple(value["destinations"]),
                )
            if keys == _MESSAGE_KEYS:
                return message_from_wire_dict(value)
        return value

    def frame_overhead(self, frame: RoutedFrame) -> int:
        """Extra bytes a :class:`RoutedFrame` adds over its bare message.

        Canonical dict encodings are key-order independent, so adding the
        ``destinations`` entry costs exactly the encoded key plus encoded
        value — which makes frame sizing additive over the memoized
        message size.
        """
        return _DESTINATIONS_KEY_SIZE + len(canonical_encode(list(frame.destinations)))
