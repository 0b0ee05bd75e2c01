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

from dataclasses import dataclass, fields
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

        This runs once per forwarded frame, so the copy's slots are filled
        through their descriptors: the generated ``__init__`` pays an
        ``object.__setattr__`` per field, at twice the cost.  The copy is
        as frozen as any other message.
        """
        hopped = object.__new__(Message)
        _set_topic(hopped, self.topic)
        _set_body(hopped, self.body)
        _set_source(hopped, self.source)
        _set_message_id(hopped, self.message_id)
        _set_created_ms(hopped, self.created_ms)
        _set_signature(hopped, self.signature)
        _set_auth_token(hopped, self.auth_token)
        _set_encrypted(hopped, self.encrypted)
        _set_hops(hopped, self.hops + 1)
        return hopped

    def with_message_id(self, message_id: int) -> "Message":
        """Copy stamped with ``message_id`` (a broker's own publication),
        filled through the slot setters like :meth:`with_hop`."""
        stamped = object.__new__(Message)
        _set_topic(stamped, self.topic)
        _set_body(stamped, self.body)
        _set_source(stamped, self.source)
        _set_message_id(stamped, message_id)
        _set_created_ms(stamped, self.created_ms)
        _set_signature(stamped, self.signature)
        _set_auth_token(stamped, self.auth_token)
        _set_encrypted(stamped, self.encrypted)
        _set_hops(stamped, self.hops)
        return stamped


#: Every field's slot setter, in declaration order (``with_hop``); a field
#: added to :class:`Message` without one here fails at import.
(
    _set_topic,
    _set_body,
    _set_source,
    _set_message_id,
    _set_created_ms,
    _set_signature,
    _set_auth_token,
    _set_encrypted,
    _set_hops,
) = (Message.__dict__[field.name].__set__ for field in fields(Message))


@dataclass(frozen=True, slots=True, init=False)
class RoutedFrame:
    """Broker-to-broker envelope: a message plus remaining destinations."""

    message: Message
    destinations: tuple[str, ...]

    def __init__(self, message: Message, destinations: tuple[str, ...]) -> None:
        # one frame per hop: slot descriptors, not object.__setattr__ (see
        # Message.with_hop); still frozen
        _set_frame_message(self, message)
        _set_frame_destinations(self, destinations)

    def wire_dict(self) -> dict:
        """The message's wire form plus the destination list."""
        frame = self.message.wire_dict()
        frame["destinations"] = list(self.destinations)
        return frame


_set_frame_message = RoutedFrame.__dict__["message"].__set__
_set_frame_destinations = RoutedFrame.__dict__["destinations"].__set__
