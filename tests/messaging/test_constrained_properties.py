"""Property-based tests for constrained-topic parsing."""

from hypothesis import given, strategies as st

from repro.messaging.constrained import (
    AllowedActions,
    ConstrainedTopic,
    Distribution,
)

# free-form element values that are not action/distribution keywords
_keywordish = {
    "publish-only", "publishonly", "publish", "subscribe-only",
    "subscribeonly", "subscribe", "publishsubscribe", "publish-subscribe",
    "disseminate", "suppress", "limited",
}
free_element = (
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7A),
        min_size=1,
        max_size=10,
    )
    .filter(lambda s: s.replace("_", "-").lower() not in _keywordish)
)
actions = st.sampled_from(list(AllowedActions))
distributions = st.sampled_from(list(Distribution))
suffixes = st.lists(free_element, max_size=4)

# a *named* constrainer: "Broker" is the grammar's sentinel for
# broker-constrained topics, where no principal string is the constrainer
named_constrainer = free_element.filter(lambda s: s != "Broker")


class TestRoundTripProperties:
    @given(free_element, free_element, actions, distributions, suffixes)
    def test_build_parse_roundtrip(self, event_type, constrainer, action, dist, sfx):
        """A fully-specified constrained topic reparses identically."""
        built = ConstrainedTopic(event_type, constrainer, action, dist, tuple(sfx))
        reparsed = ConstrainedTopic.parse(built.canonical)
        assert reparsed == built

    @given(free_element, actions, distributions, suffixes)
    def test_canonicalization_idempotent(self, event_type, action, dist, sfx):
        built = ConstrainedTopic(event_type, "Broker", action, dist, tuple(sfx))
        once = ConstrainedTopic.parse(built.canonical)
        twice = ConstrainedTopic.parse(once.canonical)
        assert once == twice
        assert once.canonical == twice.canonical

    @given(free_element, named_constrainer, actions, distributions)
    def test_exactly_one_constrainer_may_do_reserved_action(
        self, event_type, constrainer, action, dist
    ):
        """The constrainer, and only the constrainer, performs the
        reserved action(s)."""
        topic = ConstrainedTopic(event_type, constrainer, action, dist, ())
        other = constrainer + "x"
        if action is AllowedActions.PUBLISH_ONLY:
            assert topic.may_publish(constrainer, is_broker=False)
            assert not topic.may_publish(other, is_broker=False)
            assert topic.may_subscribe(other, is_broker=False)
        elif action is AllowedActions.SUBSCRIBE_ONLY:
            assert topic.may_subscribe(constrainer, is_broker=False)
            assert not topic.may_subscribe(other, is_broker=False)
            assert topic.may_publish(other, is_broker=False)
        else:
            assert not topic.may_publish(other, is_broker=False)
            assert not topic.may_subscribe(other, is_broker=False)

    @given(free_element)
    def test_event_type_alone_defaults_rest(self, event_type):
        parsed = ConstrainedTopic.parse(f"Constrained/{event_type}")
        assert parsed.event_type == event_type
        assert parsed.constrainer == "Broker"
        assert parsed.allowed_actions is AllowedActions.PUBLISH_SUBSCRIBE
        assert parsed.distribution is Distribution.DISSEMINATE
        assert parsed.suffixes == ()

    @given(free_element, free_element, suffixes)
    def test_free_tokens_fill_earliest_position(self, event_type, constrainer, sfx):
        """The resolution rule: a free-form token fills the earliest open
        free-form position — so the token after the event type is always
        the constrainer, never a suffix (the paper's format is ambiguous
        here; this is the documented disambiguation)."""
        text = "/".join(["Constrained", event_type, constrainer, *sfx])
        parsed = ConstrainedTopic.parse(text)
        assert parsed.event_type == event_type
        assert parsed.constrainer == constrainer
        assert parsed.suffixes == tuple(sfx)

    @given(free_element, distributions, suffixes)
    def test_keyword_skips_free_positions(self, event_type, dist, sfx):
        """A distribution keyword right after the event type leaves the
        constrainer and actions at their defaults (the paper's
        '/Constrained/Traces/Limited' example, generalized)."""
        text = "/".join(["Constrained", event_type, dist.value, *sfx])
        parsed = ConstrainedTopic.parse(text)
        assert parsed.event_type == event_type
        assert parsed.constrainer == "Broker"
        assert parsed.allowed_actions is AllowedActions.PUBLISH_SUBSCRIBE
        assert parsed.distribution is dist
        assert parsed.suffixes == tuple(sfx)
