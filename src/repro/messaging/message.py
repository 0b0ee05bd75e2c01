"""The message envelope routed by the broker network.

All messages contain topic information, which forms the basis of routing
(section 2).  The envelope additionally carries the security artifacts the
tracing scheme attaches: an optional signature envelope (section 4.2), an
optional authorization token (section 4.3), and an encrypted-body flag
(section 5.1).

The broker-to-broker forwarding envelope (:class:`RoutedFrame`) lives here
too: it is pure wire vocabulary — a message plus its remaining explicit
destinations and its hop count — shared by the broker (which splits it per next hop) and the
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
    ``bytes`` when encrypted); a signed body is the
    :class:`~repro.util.serialization.Canonical` its signer signed, so it
    is encoded once.  ``signature`` holds a serialized
    :class:`~repro.crypto.signing.SignedEnvelope` dict covering the body;
    ``auth_token`` holds an authorization token's canonical bytes
    (:attr:`AuthorizationToken.wire <repro.auth.tokens.AuthorizationToken.wire>`),
    encoded once where the token was issued.  ``hops`` counts the
    broker-to-broker links the message crossed, for diagnostics: a
    forward carries it on its :class:`RoutedFrame`, and the receiving
    broker stamps it here once.

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
        payload, so a stamped copy (:meth:`with_hops`) encodes to exactly
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

    def with_hops(self, hops: int) -> "Message":
        """Copy stamped with ``hops`` (the broker that receives a frame
        stamps the frame's hop count)."""
        return _copy(self, self.message_id, hops)

    def with_message_id(self, message_id: int) -> "Message":
        """Copy stamped with ``message_id`` (a broker's own publication)."""
        return _copy(self, message_id, self.hops)


#: Every field's slot setter, in declaration order (``_copy``); a field
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


def _copy(message: Message, message_id: int, hops: int) -> Message:
    """``message`` with ``message_id`` and ``hops`` replaced.

    The copy's slots are filled through their descriptors: the generated
    ``__init__`` pays an ``object.__setattr__`` per field, at twice the
    cost.  The copy is as frozen as any other message.
    """
    copy = object.__new__(Message)
    _set_topic(copy, message.topic)
    _set_body(copy, message.body)
    _set_source(copy, message.source)
    _set_message_id(copy, message_id)
    _set_created_ms(copy, message.created_ms)
    _set_signature(copy, message.signature)
    _set_auth_token(copy, message.auth_token)
    _set_encrypted(copy, message.encrypted)
    _set_hops(copy, hops)
    return copy


@dataclass(frozen=True, slots=True, init=False)
class RoutedFrame:
    """Broker-to-broker envelope: a message plus remaining destinations.

    ``hops`` counts the broker-to-broker links the frame has crossed,
    the one it is on included.  Like :attr:`Message.hops` it never rides
    the wire, so a decoded frame carries 0.  A broker that guards or
    delivers the frame's message stamps it there (:meth:`Message.with_hops`);
    a broker the frame only crosses forwards the same message.
    """

    message: Message
    destinations: tuple[str, ...]
    hops: int = 0

    def __init__(
        self, message: Message, destinations: tuple[str, ...], hops: int = 0
    ) -> None:
        # one frame per hop: slot descriptors, not object.__setattr__ (see
        # _copy); still frozen
        _set_frame_message(self, message)
        _set_frame_destinations(self, destinations)
        _set_frame_hops(self, hops)

    def wire_dict(self) -> dict:
        """The message's wire form plus the destination list."""
        frame = self.message.wire_dict()
        frame["destinations"] = list(self.destinations)
        return frame


_set_frame_message = RoutedFrame.__dict__["message"].__set__
_set_frame_destinations = RoutedFrame.__dict__["destinations"].__set__
_set_frame_hops = RoutedFrame.__dict__["hops"].__set__
