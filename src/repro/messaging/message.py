"""The message envelope routed by the broker network.

All messages contain topic information, which forms the basis of routing
(section 2).  The envelope additionally carries the security artifacts the
tracing scheme attaches: an optional signature envelope (section 4.2), an
optional authorization token (section 4.3), and an encrypted-body flag
(section 5.1).

The broker-to-broker forwarding envelope (:class:`RoutedFrame`) lives here
too: it is pure wire vocabulary — a message plus its remaining explicit
destinations — shared by the broker (which splits it per next hop) and the
``repro.wire`` codecs (which put it on the wire).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.messaging.topics import Topic
from repro.util.serialization import Canonical


def reset_message_ids() -> None:
    """Does nothing; ``benchmarks/perf/workloads.py`` still calls it.

    Message ids are drawn from a counter each
    :class:`~repro.messaging.broker_network.BrokerNetwork` owns, so every
    deployment starts at 1 and there is nothing to rewind.
    """


@dataclass(frozen=True, slots=True)
class Message:
    """One routable message.

    ``body`` is the application payload (canonically encodable, or raw
    ``bytes`` when encrypted).  ``signature`` holds a serialized
    :class:`~repro.crypto.signing.SignedEnvelope` dict covering the body;
    ``auth_token`` holds an authorization token's canonical bytes
    (:attr:`AuthorizationToken.wire <repro.auth.tokens.AuthorizationToken.wire>`),
    encoded once where the token was issued.  ``hops`` counts
    broker-to-broker forwards for diagnostics.

    ``message_id`` is 0 until the message enters a network:
    ``BrokerClient.publish`` and ``Broker.publish_from_broker`` draw it
    from the network's counter, so ids are unique per deployment.
    """

    topic: Topic
    body: Any
    source: str
    message_id: int = 0
    created_ms: float = 0.0
    signature: dict | None = None
    auth_token: Canonical | None = None
    encrypted: bool = False
    hops: int = 0

    def wire_dict(self) -> dict:
        """Canonical rendering used for wire-size accounting.

        ``hops`` is deliberately absent: it is link-local diagnostics, not
        payload, so a forwarded copy (:meth:`with_hop`) encodes to exactly
        the same bytes — which is what makes the per-message encoded-size
        memo in ``repro.wire`` safe.
        """
        return {
            "topic": self.topic.canonical,
            "body": self.body,
            "source": self.source,
            "message_id": self.message_id,
            "created_ms": self.created_ms,
            "signature": self.signature,
            "auth_token": self.auth_token,
            "encrypted": self.encrypted,
        }

    def with_hop(self) -> "Message":
        """Copy with the hop counter incremented (broker forward).

        One positional call in field order: this runs once per forwarded
        frame, and the generic dataclass copy costs several times as much.
        """
        return Message(
            self.topic,
            self.body,
            self.source,
            self.message_id,
            self.created_ms,
            self.signature,
            self.auth_token,
            self.encrypted,
            self.hops + 1,
        )

    def describe(self) -> str:
        """Compact id/topic/source/hops summary for logs."""
        return (
            f"Message(id={self.message_id}, topic={self.topic}, "
            f"source={self.source!r}, hops={self.hops})"
        )


@dataclass(frozen=True, slots=True)
class RoutedFrame:
    """Broker-to-broker envelope: a message plus remaining destinations."""

    message: Message
    destinations: tuple[str, ...]

    def wire_dict(self) -> dict:
        """The message's wire form plus the destination list."""
        frame = self.message.wire_dict()
        frame["destinations"] = list(self.destinations)
        return frame
