"""Tests for topic syntax and matching."""

import pytest
from hypothesis import given, strategies as st

from repro.messaging.topics import (
    Topic,
    TopicValidationError,
    topic_matches,
    validate_topic,
)

segment = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=8,
)
concrete_topic = st.lists(segment, min_size=1, max_size=6).map("/".join)


class TestValidation:
    def test_paper_example(self):
        assert validate_topic("StockQuotes/Companies/Adobe") == [
            "StockQuotes", "Companies", "Adobe",
        ]

    def test_leading_slash_tolerated(self):
        assert validate_topic("/a/b") == ["a", "b"]
        assert Topic.parse("/a/b").canonical == "a/b"

    @pytest.mark.parametrize("bad", ["", "/", "a//b", "a/b/", "//"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(TopicValidationError):
            validate_topic(bad)

    def test_rejects_non_string(self):
        with pytest.raises(TopicValidationError):
            validate_topic(None)  # type: ignore[arg-type]

    def test_wildcards_rejected_for_publish(self):
        with pytest.raises(TopicValidationError):
            validate_topic("a/*/c")
        with pytest.raises(TopicValidationError):
            validate_topic("a/>")

    def test_wildcards_allowed_for_subscription(self):
        assert validate_topic("a/*/c", allow_wildcards=True) == ["a", "*", "c"]
        assert validate_topic("a/>", allow_wildcards=True) == ["a", ">"]

    def test_multi_wildcard_must_be_last(self):
        with pytest.raises(TopicValidationError):
            validate_topic("a/>/b", allow_wildcards=True)


class TestMatching:
    @pytest.mark.parametrize(
        "pattern,topic,expected",
        [
            ("a/b/c", "a/b/c", True),
            ("a/b/c", "a/b/d", False),
            ("a/b/c", "a/b", False),
            ("a/b", "a/b/c", False),
            ("a/*/c", "a/b/c", True),
            ("a/*/c", "a/x/c", True),
            ("a/*/c", "a/b/d", False),
            ("*", "anything", True),
            ("*", "two/segments", False),
            ("a/>", "a/b", True),
            ("a/>", "a/b/c/d", True),
            ("a/>", "a", False),
            (">", "a", True),
            (">", "a/b/c", True),
            ("a/*/>", "a/b/c", True),
            ("a/*/>", "a/b", False),
        ],
    )
    def test_cases(self, pattern, topic, expected):
        assert topic_matches(pattern, topic) is expected

    @given(concrete_topic)
    def test_identity_always_matches(self, topic):
        assert topic_matches(topic, topic)

    @given(concrete_topic)
    def test_multi_wildcard_matches_everything(self, topic):
        assert topic_matches(">", topic)

    @given(st.lists(segment, min_size=2, max_size=6))
    def test_prefix_plus_wildcard(self, segments):
        topic = "/".join(segments)
        pattern = segments[0] + "/>"
        assert topic_matches(pattern, topic)


class TestTopicObject:
    def test_of(self):
        assert Topic.of("a", "b", "c").canonical == "a/b/c"

    def test_segments(self):
        assert Topic.parse("x/y").segments == ("x", "y")

    def test_matches_method(self):
        pattern = Topic.parse("a/*", allow_wildcards=True)
        assert topic_matches(pattern.canonical, "a/b")
        assert topic_matches(pattern.canonical, Topic.parse("/a/b").canonical)

    def test_value_semantics(self):
        assert Topic.parse("/a/b") == Topic.parse("a/b")
        assert len({Topic.parse("a"), Topic.parse("a")}) == 1

    def test_str(self):
        assert str(Topic.parse("a/b")) == "a/b"
