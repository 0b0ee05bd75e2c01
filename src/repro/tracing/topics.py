"""Derived trace topics (Table 2 and sections 3.1-3.2, 3.5).

All derivative topics combine static prefixes/suffixes with the entity's
UUID trace topic.  Because the UUID is unguessable and its discovery is
TDN-restricted, knowing these topic strings *is* the capability to interact
with the trace stream (section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.messaging.topics import Topic
from repro.tracing.interest import InterestCategory
from repro.tracing.traces import TRACE_CATEGORY, TraceType
from repro.util.identifiers import EntityId, SessionId, UUID128

#: The topic every traced entity uses to register with a broker (§3.2).
REGISTRATION_TOPIC = Topic.parse(
    "Constrained/Traces/Broker/Subscribe-Only/Registration"
)


#: Suffixes of the broker's Publish-Only topics (Table 2 and §3.5).
_PUBLISH_SUFFIXES = (
    "ChangeNotifications", "AllUpdates", "StateTransitions", "Load",
    "NetworkMetrics", "Interest",
)

#: Sessions whose two topics a topic set holds; the oldest is dropped
#: beyond this (an entity re-registers a few times at most).
SESSION_TOPICS_BOUND = 16


@dataclass(frozen=True, slots=True)
class TraceTopicSet:
    """All derived topics for one traced entity's trace topic.

    Equality and hash cover the two identifying fields only.  The
    publication topics are built once, in ``__post_init__``; each
    session's two topics on first use, held per session up to
    :data:`SESSION_TOPICS_BOUND` sessions.
    """

    trace_topic: UUID128
    entity_id: EntityId
    _published: dict[str, Topic] = field(init=False, repr=False, compare=False)
    _session_topics: dict[tuple[bool, SessionId], Topic] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        published = {
            suffix: Topic.of(
                "Constrained", "Traces", "Broker", "Publish-Only",
                self.trace_topic.hex, suffix,
            )
            for suffix in _PUBLISH_SUFFIXES
        }
        object.__setattr__(self, "_published", published)
        object.__setattr__(self, "_session_topics", {})

    # ---- broker -> trackers publication topics (Table 2) ----------------------

    def _publish_topic(self, suffix: str) -> Topic:
        return self._published[suffix]

    @property
    def change_notifications(self) -> Topic:
        """JOIN, FAILURE_SUSPICION, FAILED, DISCONNECT, REVERTING_TO_SILENT_MODE."""
        return self._publish_topic("ChangeNotifications")

    @property
    def all_updates(self) -> Topic:
        """ALLS_WELL heartbeats."""
        return self._publish_topic("AllUpdates")

    @property
    def state_transitions(self) -> Topic:
        """INITIALIZING / RECOVERING / READY / SHUTDOWN reports."""
        return self._publish_topic("StateTransitions")

    @property
    def load(self) -> Topic:
        """LOAD_INFORMATION reports."""
        return self._publish_topic("Load")

    @property
    def network_metrics(self) -> Topic:
        """NETWORK_METRICS reports."""
        return self._publish_topic("NetworkMetrics")

    # ---- interest gauging (§3.5) ------------------------------------------------

    @property
    def interest_request(self) -> Topic:
        """Broker publishes GUAGE_INTEREST here."""
        return self._publish_topic("Interest")

    @property
    def interest_response(self) -> Topic:
        """Trackers publish their interest sets here (broker subscribes)."""
        return Topic.of(
            "Constrained", "Traces", "Broker", "Subscribe-Only",
            self.trace_topic.hex, "Interest",
        )

    # ---- session topics (§3.2) ----------------------------------------------------

    def entity_to_broker(self, session: SessionId) -> Topic:
        """Entity-initiated traffic (ping responses, state reports, keys).

        ``Limited`` distribution keeps the hosting broker's subscription
        local — no other broker learns which broker hosts the entity.
        """
        topic = self._session_topics.get((True, session))
        if topic is None:
            topic = self._hold_session_topic(True, session, Topic.of(
                "Constrained", "Traces", "Broker", "Subscribe-Only", "Limited",
                self.trace_topic.hex, session.topic_segment,
            ))
        return topic

    def broker_to_entity(self, session: SessionId) -> Topic:
        """Broker-initiated traffic to the entity (pings)."""
        topic = self._session_topics.get((False, session))
        if topic is None:
            topic = self._hold_session_topic(False, session, Topic.of(
                "Constrained", "Traces", str(self.entity_id), "Subscribe-Only",
                self.trace_topic.hex, session.topic_segment,
            ))
        return topic

    def _hold_session_topic(self, to_broker: bool, session: SessionId, topic: Topic) -> Topic:
        held = self._session_topics
        if len(held) >= 2 * SESSION_TOPICS_BOUND:
            del held[next(iter(held))]
        held[(to_broker, session)] = topic
        return topic

    # ---- registration response (per request) ------------------------------------

    def registration_response(self, entity_id: EntityId, request_value: int) -> Topic:
        """Where the broker sends the (sealed) registration response."""
        return Topic.of(
            "Constrained", "Traces", str(entity_id), "Subscribe-Only",
            "Registration-Response", str(request_value),
        )

    # ---- tracker key distribution (§5.1) -------------------------------------------

    def key_delivery(self, tracker_id: str) -> Topic:
        """Per-tracker topic for secure trace-key payloads."""
        return Topic.of(
            "Constrained", "Traces", tracker_id, "Subscribe-Only",
            self.trace_topic.hex, "KeyDelivery",
        )

    # ---- lookup helpers -----------------------------------------------------------

    def topic_for_trace(self, trace_type: TraceType) -> Topic:
        """The publication topic Table 2 assigns to a trace type."""
        category = TRACE_CATEGORY[trace_type]
        if category is None:
            return self.interest_request
        return self.topic_for_category(category)

    def topic_for_category(self, category: InterestCategory) -> Topic:
        # the five stream properties above are named after the category values
        return getattr(self, category.value)
