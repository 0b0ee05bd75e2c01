"""Tests for constrained-topic parsing and semantics (section 3.1)."""

import pytest

from repro.errors import TopicError
from repro.messaging.constrained import (
    AllowedActions,
    ConstrainedTopic,
    Distribution,
    is_constrained,
)


class TestParsing:
    def test_full_form(self):
        ct = ConstrainedTopic.parse(
            "/Constrained/Traces/Broker/Subscribe-Only/Limited/Trace-Topic/SessionId"
        )
        assert ct.event_type == "Traces"
        assert ct.constrainer == "Broker"
        assert ct.allowed_actions is AllowedActions.SUBSCRIBE_ONLY
        assert ct.distribution is Distribution.SUPPRESS
        assert ct.suffixes == ("Trace-Topic", "SessionId")

    def test_paper_equivalence_example(self):
        """The paper's two spellings parse identically."""
        a = ConstrainedTopic.parse("/Constrained/Traces/Broker/PublishSubscribe/Limited")
        b = ConstrainedTopic.parse("/Constrained/Traces/Limited")
        assert a == b

    def test_defaults(self):
        ct = ConstrainedTopic.parse("Constrained")
        assert ct.event_type == "RealTime"
        assert ct.constrainer == "Broker"
        assert ct.allowed_actions is AllowedActions.PUBLISH_SUBSCRIBE
        assert ct.distribution is Distribution.DISSEMINATE
        assert ct.suffixes == ()

    def test_entity_constrainer(self):
        ct = ConstrainedTopic.parse(
            "Constrained/Traces/svc-1/Subscribe-Only/abc123/def456"
        )
        assert ct.constrainer == "svc-1"
        assert not ct.broker_constrained()
        assert ct.suffixes == ("abc123", "def456")

    def test_registration_topic(self):
        ct = ConstrainedTopic.parse(
            "Constrained/Traces/Broker/Subscribe-Only/Registration"
        )
        assert ct.allowed_actions is AllowedActions.SUBSCRIBE_ONLY
        assert ct.distribution is Distribution.DISSEMINATE
        assert ct.suffixes == ("Registration",)

    def test_publish_only_spellings(self):
        for spelling in ("Publish-Only", "Publish_Only", "PublishOnly"):
            ct = ConstrainedTopic.parse(f"Constrained/Traces/Broker/{spelling}/x")
            assert ct.allowed_actions is AllowedActions.PUBLISH_ONLY

    def test_not_constrained_raises(self):
        with pytest.raises(TopicError):
            ConstrainedTopic.parse("Traces/whatever")

    def test_suffix_keywords_not_reinterpreted(self):
        ct = ConstrainedTopic.parse(
            "Constrained/Traces/Broker/Publish-Only/Disseminate/Suppress/Broker"
        )
        assert ct.distribution is Distribution.DISSEMINATE
        assert ct.suffixes == ("Suppress", "Broker")

    def test_canonical_roundtrip(self):
        ct = ConstrainedTopic.parse("Constrained/Traces/Limited")
        assert ConstrainedTopic.parse(ct.canonical) == ct

    def test_build(self):
        ct = ConstrainedTopic(
            "Traces", "Broker", AllowedActions.PUBLISH_ONLY,
            Distribution.DISSEMINATE, ("topic-hex", "Load"),
        )
        assert ct.canonical == (
            "Constrained/Traces/Broker/Publish-Only/Disseminate/topic-hex/Load"
        )


class TestIsConstrained:
    def test_positive(self):
        assert is_constrained("Constrained/Traces")
        assert is_constrained("/Constrained/X")

    def test_negative(self):
        assert not is_constrained("Traces/Constrained")
        assert not is_constrained("News/Sports")
        assert not is_constrained("")


class TestActionSemantics:
    """The paper's rules: Publish-Only lets entities subscribe; Subscribe-
    Only forbids entity subscription; PublishSubscribe forbids both."""

    def test_publish_only(self):
        ct = ConstrainedTopic.parse("Constrained/Traces/Broker/Publish-Only/x")
        assert ct.may_publish("broker-1", is_broker=True)
        assert not ct.may_publish("entity-1", is_broker=False)
        assert ct.may_subscribe("entity-1", is_broker=False)  # anyone subscribes

    def test_subscribe_only(self):
        ct = ConstrainedTopic.parse("Constrained/Traces/Broker/Subscribe-Only/x")
        assert ct.may_subscribe("b", is_broker=True)
        assert not ct.may_subscribe("entity-1", is_broker=False)
        assert ct.may_publish("entity-1", is_broker=False)  # funnel to constrainer

    def test_publish_subscribe_reserved(self):
        ct = ConstrainedTopic.parse("Constrained/Traces/Broker/PublishSubscribe/x")
        assert not ct.may_publish("entity-1", is_broker=False)
        assert not ct.may_subscribe("entity-1", is_broker=False)
        assert ct.may_publish("b", is_broker=True)
        assert ct.may_subscribe("b", is_broker=True)

    def test_entity_constrainer_semantics(self):
        ct = ConstrainedTopic.parse("Constrained/Traces/svc-1/Subscribe-Only/x")
        assert ct.may_subscribe("svc-1", is_broker=False)
        assert not ct.may_subscribe("svc-2", is_broker=False)
        # a broker is not the constrainer here
        assert not ct.may_subscribe("b0", is_broker=True)

    def test_suppressed(self):
        assert ConstrainedTopic.parse("Constrained/Traces/Limited").suppressed()
        assert ConstrainedTopic.parse("Constrained/Traces/Suppress").suppressed()
        assert not ConstrainedTopic.parse("Constrained/Traces/Disseminate").suppressed()
        assert not ConstrainedTopic.parse("Constrained/Traces").suppressed()
