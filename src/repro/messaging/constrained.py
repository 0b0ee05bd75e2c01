"""Constrained topics (section 3.1).

Structure::

    /Constrained/{Event Type}/{Constrainer}/{Allowed Actions}/{Distribution}/{suffixes...}

with defaults ``RealTime`` / ``Broker`` / ``PublishSubscribe`` /
``Disseminate``.  Elements may be omitted; parsing resolves a token to the
earliest position it can legally fill, applying defaults for skipped
positions.  That rule makes the paper's two example spellings equivalent::

    /Constrained/Traces/Broker/PublishSubscribe/Limited
    /Constrained/Traces/Limited

Semantics enforced by brokers (see :mod:`repro.messaging.broker`):

* **Allowed actions** restrict who may perform them — only the constrainer
  may perform the listed action(s).  ``Publish-Only``: only the constrainer
  publishes, anyone may subscribe.  ``Subscribe-Only``: only the constrainer
  subscribes, anyone may publish (this is how entities funnel registrations
  and ping responses to their broker).  ``PublishSubscribe``: both actions
  reserved to the constrainer (administrative topics).
* **Distribution** restricts propagation: ``Suppress`` (and the paper's
  ``Limited`` alias used throughout its examples) keeps the constrainer's
  traffic from propagating past the local broker; ``Disseminate`` (default)
  imposes no restriction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import TopicError
from repro.messaging.topics import Topic, split_topic

CONSTRAINED_KEYWORD = "Constrained"
DEFAULT_EVENT_TYPE = "RealTime"
BROKER_CONSTRAINER = "Broker"


class AllowedActions(enum.Enum):
    """Actions reserved to the constrainer on a constrained topic."""

    PUBLISH_ONLY = "Publish-Only"
    SUBSCRIBE_ONLY = "Subscribe-Only"
    PUBLISH_SUBSCRIBE = "PublishSubscribe"

    @classmethod
    def parse(cls, token: str) -> "AllowedActions | None":
        """Recognize an action token (several spellings appear in the paper)."""
        normalized = token.replace("_", "-").lower()
        if normalized in ("publish-only", "publishonly", "publish"):
            return cls.PUBLISH_ONLY
        if normalized in ("subscribe-only", "subscribeonly", "subscribe"):
            return cls.SUBSCRIBE_ONLY
        if normalized in ("publishsubscribe", "publish-subscribe"):
            return cls.PUBLISH_SUBSCRIBE
        return None


class Distribution(enum.Enum):
    """Propagation restriction of constrainer actions."""

    DISSEMINATE = "Disseminate"
    SUPPRESS = "Suppress"

    @classmethod
    def parse(cls, token: str) -> "Distribution | None":
        """Parse a distribution slot token, or None if unrecognized."""
        normalized = token.lower()
        if normalized == "disseminate":
            return cls.DISSEMINATE
        # The paper's prose names Suppress/Disseminate but its example topics
        # use "Limited" in the distribution slot; we accept it as an alias.
        if normalized in ("suppress", "limited"):
            return cls.SUPPRESS
        return None


def is_constrained(topic: str | Topic) -> bool:
    """True if the topic's first segment is the Constrained keyword."""
    text = topic.canonical if isinstance(topic, Topic) else topic
    try:
        return split_topic(text)[0] == CONSTRAINED_KEYWORD
    except TopicError:
        return False


@dataclass(frozen=True, slots=True)
class ConstrainedTopic:
    """A parsed constrained topic."""

    event_type: str
    constrainer: str
    allowed_actions: AllowedActions
    distribution: Distribution
    suffixes: tuple[str, ...]

    # -- construction ----------------------------------------------------------

    @classmethod
    def parse(cls, topic: str | Topic) -> "ConstrainedTopic":
        """Parse a constrained topic string, resolving omitted elements.

        Resolution: after the ``Constrained`` keyword, each token fills the
        earliest unfilled position it can legally occupy.  Free-form
        positions (event type, constrainer) refuse tokens that are keywords
        of later positions, so that omitted elements take their defaults.
        """
        text = topic.canonical if isinstance(topic, Topic) else topic
        segments = split_topic(text)
        if segments[0] != CONSTRAINED_KEYWORD:
            raise TopicError(f"not a constrained topic: {text!r}")
        rest = segments[1:]
        index = 0

        def current() -> str | None:
            return rest[index] if index < len(rest) else None

        def is_later_keyword(token: str) -> bool:
            return (
                AllowedActions.parse(token) is not None
                or Distribution.parse(token) is not None
            )

        # {Event Type}
        token = current()
        if token is not None and not is_later_keyword(token):
            event_type = token
            index += 1
        else:
            event_type = DEFAULT_EVENT_TYPE

        # {Constrainer}
        token = current()
        if token is not None and not is_later_keyword(token):
            constrainer = token
            index += 1
        else:
            constrainer = BROKER_CONSTRAINER

        # {Allowed Actions}
        token = current()
        parsed_action = AllowedActions.parse(token) if token is not None else None
        if parsed_action is not None:
            allowed = parsed_action
            index += 1
        else:
            allowed = AllowedActions.PUBLISH_SUBSCRIBE

        # {Distribution}
        token = current()
        parsed_dist = Distribution.parse(token) if token is not None else None
        if parsed_dist is not None:
            distribution = parsed_dist
            index += 1
        else:
            distribution = Distribution.DISSEMINATE

        return cls(
            event_type=event_type,
            constrainer=constrainer,
            allowed_actions=allowed,
            distribution=distribution,
            suffixes=tuple(rest[index:]),
        )

    # -- rendering ---------------------------------------------------------------

    def topic(self) -> Topic:
        """The fully-elaborated canonical topic (all elements present)."""
        return Topic.of(
            CONSTRAINED_KEYWORD,
            self.event_type,
            self.constrainer,
            self.allowed_actions.value,
            self.distribution.value,
            *self.suffixes,
        )

    @property
    def canonical(self) -> str:
        """The full canonical topic string for this constrained topic."""
        return self.topic().canonical

    # -- semantics ---------------------------------------------------------------

    def broker_constrained(self) -> bool:
        """True if the constrainer is the broker (vs. a named entity)."""
        return self.constrainer == BROKER_CONSTRAINER

    def may_publish(self, principal: str, *, is_broker: bool) -> bool:
        """May ``principal`` publish on this topic?

        For Publish-Only and PublishSubscribe, publishing is reserved to
        the constrainer.  For Subscribe-Only, anyone may publish (the topic
        funnels messages *to* the constrainer).
        """
        if self.allowed_actions is AllowedActions.SUBSCRIBE_ONLY:
            return True
        return self._is_constrainer(principal, is_broker=is_broker)

    def may_subscribe(self, principal: str, *, is_broker: bool) -> bool:
        """May ``principal`` subscribe to this topic?

        For Subscribe-Only and PublishSubscribe, subscribing is reserved to
        the constrainer.  For Publish-Only, anyone may subscribe (trackers
        consume the constrainer's publications).
        """
        if self.allowed_actions is AllowedActions.PUBLISH_ONLY:
            return True
        return self._is_constrainer(principal, is_broker=is_broker)

    def _is_constrainer(self, principal: str, *, is_broker: bool) -> bool:
        if self.broker_constrained():
            return is_broker
        return principal == self.constrainer

    def suppressed(self) -> bool:
        """True if constrainer traffic must not leave the local broker."""
        return self.distribution is Distribution.SUPPRESS

    def __str__(self) -> str:
        return self.canonical
