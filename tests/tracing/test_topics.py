"""Tests for derived trace-topic construction (Table 2)."""

import pytest

from repro.messaging.constrained import AllowedActions, ConstrainedTopic, Distribution
from repro.tracing.interest import InterestCategory
from repro.tracing.topics import REGISTRATION_TOPIC, TraceTopicSet
from repro.tracing.traces import TraceType, category_of
from repro.util.identifiers import EntityId, SessionId, UUID128


@pytest.fixture
def topics():
    return TraceTopicSet(trace_topic=UUID128(0xABCD), entity_id=EntityId("svc-1"))


SESSION = SessionId(UUID128(0x1234))


class TestPublicationTopics:
    def test_table2_topic_shapes(self, topics):
        hexval = UUID128(0xABCD).hex
        assert topics.change_notifications.canonical == (
            f"Constrained/Traces/Broker/Publish-Only/{hexval}/ChangeNotifications"
        )
        assert topics.all_updates.canonical.endswith("/AllUpdates")
        assert topics.state_transitions.canonical.endswith("/StateTransitions")
        assert topics.load.canonical.endswith("/Load")
        assert topics.network_metrics.canonical.endswith("/NetworkMetrics")

    def test_all_publication_topics_are_broker_publish_only(self, topics):
        for topic in topics.all_publication_topics():
            ct = ConstrainedTopic.parse(topic.canonical)
            assert ct.event_type == "Traces"
            assert ct.broker_constrained()
            assert ct.allowed_actions is AllowedActions.PUBLISH_ONLY

    def test_topics_embed_unguessable_uuid(self, topics):
        """Knowing the entity id is not enough; the UUID segment is needed."""
        for topic in topics.all_publication_topics():
            assert UUID128(0xABCD).hex in topic.canonical
            assert "svc-1" not in topic.canonical

    def test_topic_for_trace_mapping(self, topics):
        assert topics.topic_for_trace(TraceType.JOIN) == topics.change_notifications
        assert topics.topic_for_trace(TraceType.FAILED) == topics.change_notifications
        assert topics.topic_for_trace(TraceType.READY) == topics.state_transitions
        assert topics.topic_for_trace(TraceType.ALLS_WELL) == topics.all_updates
        assert topics.topic_for_trace(TraceType.LOAD_INFORMATION) == topics.load
        assert (
            topics.topic_for_trace(TraceType.NETWORK_METRICS)
            == topics.network_metrics
        )
        assert (
            topics.topic_for_trace(TraceType.GUAGE_INTEREST)
            == topics.interest_request
        )
        # Table 2 is total: every trace type goes out on exactly one topic,
        # a category's publication topic or (GUAGE_INTEREST alone) the
        # interest-request topic
        streams = topics.all_publication_topics()
        assert len(set(streams)) == len(InterestCategory)
        for trace_type in TraceType:
            topic = topics.topic_for_trace(trace_type)
            if trace_type is TraceType.GUAGE_INTEREST:
                assert topic not in streams
            else:
                assert topic == topics.topic_for_category(category_of(trace_type))

    def test_topic_for_category_mapping(self, topics):
        assert (
            topics.topic_for_category(InterestCategory.ALL_UPDATES)
            == topics.all_updates
        )


class TestSessionTopics:
    def test_entity_to_broker_is_limited(self, topics):
        ct = ConstrainedTopic.parse(topics.entity_to_broker(SESSION).canonical)
        assert ct.broker_constrained()
        assert ct.allowed_actions is AllowedActions.SUBSCRIBE_ONLY
        assert ct.distribution is Distribution.SUPPRESS
        assert ct.suffixes == (UUID128(0xABCD).hex, SESSION.topic_segment)

    def test_broker_to_entity_constrained_to_entity(self, topics):
        ct = ConstrainedTopic.parse(topics.broker_to_entity(SESSION).canonical)
        assert ct.constrainer == "svc-1"
        assert ct.allowed_actions is AllowedActions.SUBSCRIBE_ONLY

    def test_session_topics_differ_per_session(self, topics):
        other = SessionId(UUID128(0x9999))
        assert topics.entity_to_broker(SESSION) != topics.entity_to_broker(other)


class TestInterestTopics:
    def test_request_is_publish_only(self, topics):
        ct = ConstrainedTopic.parse(topics.interest_request.canonical)
        assert ct.allowed_actions is AllowedActions.PUBLISH_ONLY
        assert ct.suffixes[-1] == "Interest"

    def test_response_is_subscribe_only(self, topics):
        ct = ConstrainedTopic.parse(topics.interest_response.canonical)
        assert ct.allowed_actions is AllowedActions.SUBSCRIBE_ONLY


class TestRegistrationTopic:
    def test_shape(self):
        ct = ConstrainedTopic.parse(REGISTRATION_TOPIC.canonical)
        assert ct.event_type == "Traces"
        assert ct.allowed_actions is AllowedActions.SUBSCRIBE_ONLY
        assert ct.suffixes == ("Registration",)

    def test_response_topic_per_request(self, topics):
        a = topics.registration_response(EntityId("svc-1"), 1)
        b = topics.registration_response(EntityId("svc-1"), 2)
        assert a != b
        ct = ConstrainedTopic.parse(a.canonical)
        assert ct.constrainer == "svc-1"


class TestKeyDelivery:
    def test_per_tracker(self, topics):
        a = topics.key_delivery("tracker-1")
        b = topics.key_delivery("tracker-2")
        assert a != b
        ct = ConstrainedTopic.parse(a.canonical)
        assert ct.constrainer == "tracker-1"
        assert ct.allowed_actions is AllowedActions.SUBSCRIBE_ONLY
