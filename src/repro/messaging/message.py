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

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.messaging.topics import Topic
from repro.util.serialization import Canonical

_message_ids = itertools.count(1)

#: Callbacks invoked by :func:`reset_message_ids`.  Caches keyed by message
#: id (the ``repro.wire`` encoded-size memo) register here so a rewound id
#: counter can never alias a stale entry onto a fresh message.
_reset_hooks: list[Callable[[], None]] = []


def register_reset_hook(hook: Callable[[], None]) -> None:
    """Run ``hook`` whenever the message-id counter is rewound.

    Message ids are unique per process *until* a deterministic-replay
    harness calls :func:`reset_message_ids`; any cache keyed by message id
    must be dropped at that moment.  Registering the same hook twice is a
    no-op.
    """
    if hook not in _reset_hooks:
        _reset_hooks.append(hook)


def reset_message_ids(start: int = 1) -> None:
    """Rewind the process-global message-id counter.

    Message ids appear in :meth:`Message.wire_dict`, so their *digit width*
    feeds into wire-size accounting and therefore into sampled virtual
    latencies.  Harnesses that promise bit-identical replays at a fixed seed
    (``repro.faults.run_scenario``) must rewind the counter before each run;
    otherwise the timeline depends on how many messages earlier deployments
    in the same process happened to create.

    Also fires every :func:`register_reset_hook` callback, which clears the
    message-id-keyed encoded-size memo in ``repro.wire``.
    """
    global _message_ids
    _message_ids = itertools.count(start)
    for hook in _reset_hooks:
        hook()


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
    """

    topic: Topic
    body: Any
    source: str
    message_id: int = field(default_factory=lambda: next(_message_ids))
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
