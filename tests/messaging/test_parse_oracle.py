"""``Broker._parse_pattern`` and the broker's held topic facts against
the uncached forms they replaced.

The broker recognises a literal subscription pattern by string tests
alone (``matching.canonical_pattern``).  The oracle below is the previous
parse, which validated every pattern with one ``validate_topic`` split.
On any input both must agree: the same canonical string and the same
constrained-or-not outcome for a valid pattern, the same exception type
and message for an invalid one.

``Broker.constrained_form`` holds each topic string's parsed constrained
form; its oracle is a fresh ``is_constrained`` plus
``ConstrainedTopic.parse`` per call.  The trace guard's verdict on the
held form is checked against the ``applies_to`` it replaced, and the
topics a ``TraceTopicSet`` holds against building them afresh.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.auth.verification import TraceAuthorizationGuard
from repro.messaging.broker import TOPIC_MEMO_BOUND, Broker
from repro.messaging.constrained import (
    CONSTRAINED_KEYWORD,
    AllowedActions,
    ConstrainedTopic,
    is_constrained,
)
from repro.messaging.topics import Topic, validate_topic
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.monitor import Monitor
from repro.tracing.topics import SESSION_TOPICS_BOUND, TraceTopicSet
from repro.util.identifiers import EntityId, SessionId, UUID128
from tests.support import free_cost_model


def bare_broker() -> Broker:
    sim = Simulator()
    machine = Machine(sim, "m", free_cost_model(), random.Random(0))
    return Broker(sim, "b", machine, iter(()), Monitor())


#: one broker for every example, so later examples read what earlier ones held
BROKER = bare_broker()


def split_parse_pattern(pattern):
    """The oracle: validate with one split, then read the first segment."""
    segments = validate_topic(pattern, allow_wildcards=True)
    canonical = pattern[1:] if pattern[0] == "/" else pattern
    if segments[0] != CONSTRAINED_KEYWORD:
        return canonical, None
    return canonical, ConstrainedTopic.parse(canonical)


def outcome(parse, value):
    try:
        return "parsed", parse(value)
    except Exception as error:  # the type and message are what is compared
        return "raised", type(error), str(error)


TOKENS = ("a", "b", "/", "*", ">", "Constrained", "Limited", "Suppress")
#: any run of tokens: leading, trailing and doubled slashes, "a*" or ">b" segments
token_runs = st.lists(st.sampled_from(TOKENS), max_size=10).map("".join)
#: whole segments between an optional leading "/" (or "//") and trailing "/",
#: the first drawn on its own so "Constrained" often leads; an empty segment
#: is a doubled slash
segment_runs = st.builds(
    lambda lead, first, rest, trail: lead + "/".join((first, *rest)) + trail,
    st.sampled_from(("", "/", "//")),
    st.sampled_from(("Constrained", "a", "*", ">", "")),
    st.lists(st.sampled_from((*(t for t in TOKENS if t != "/"), "", "a*", ">b")), max_size=5),
    st.sampled_from(("", "", "/")),
)
not_strings = st.one_of(
    st.none(), st.integers(), st.binary(max_size=4), st.lists(st.sampled_from(TOKENS), max_size=3),
)
inputs = st.one_of(token_runs, segment_runs, not_strings)


def _agrees_with_the_split_parse(examples: int):
    @settings(max_examples=examples, deadline=None)
    @given(inputs)
    def test(value):
        assert outcome(BROKER._parse_pattern, value) == outcome(split_parse_pattern, value)

    return test


def test_examples_cover_every_outcome():
    parsed = bare_broker()._parse_pattern
    assert parsed("/a/b") == ("a/b", None)
    assert parsed("a/*/>") == ("a/*/>", None)
    assert parsed("/Constrained/Traces/Limited") == (
        "Constrained/Traces/Limited",
        ConstrainedTopic.parse("Constrained/Traces/Limited"),
    )
    for bad in ("", "/", "//a", "a//b", "a/", "a/>/b", None, b"a"):
        assert outcome(parsed, bad)[0] == "raised"
        assert outcome(parsed, bad) == outcome(split_parse_pattern, bad)


test_parse_agrees_with_the_split_parse = _agrees_with_the_split_parse(200)
#: the deep budget (``-m deep``; CI's "Deep example budgets" step)
test_parse_agrees_with_the_split_parse_deep = pytest.mark.deep(_agrees_with_the_split_parse(5_000))


# -- held constrained forms -----------------------------------------------------


def fresh_constrained_form(topic):
    """The oracle: what ``_ingress`` computed per message before."""
    if not is_constrained(topic):
        return None
    return ConstrainedTopic.parse(topic)


def old_applies_to(topic):
    """``TraceAuthorizationGuard.applies_to`` as it was, on the topic string."""
    if not is_constrained(topic):
        return False
    constrained = ConstrainedTopic.parse(topic)
    return (
        constrained.event_type == "Traces"
        and constrained.allowed_actions is AllowedActions.PUBLISH_ONLY
        and constrained.broker_constrained()
    )


FORM_TOKENS = (
    "Constrained", "ConstrainedX", "Traces", "Broker", "svc", "Publish-Only",
    "Subscribe-Only", "PublishSubscribe", "Limited", "Disseminate", "a", "*", ">", "",
)
#: whole topics behind "", "/" or "//"; "Constrained" alone and
#: "ConstrainedX/..." are drawn as often as the keyword itself
form_topics = st.builds(
    lambda lead, first, rest: lead + "/".join((first, *rest)),
    st.sampled_from(("", "/", "//")),
    st.sampled_from(("Constrained", "Constrained", "ConstrainedX", "Constrainedx", "a", "")),
    st.lists(st.sampled_from(FORM_TOKENS), max_size=6),
)
form_inputs = st.one_of(form_topics, token_runs, not_strings)


def _form_agrees_with_a_fresh_parse(examples: int):
    @settings(max_examples=examples, deadline=None)
    @given(form_inputs)
    def test(value):
        expected = outcome(fresh_constrained_form, value)
        # first sight, then the held answer
        assert outcome(BROKER.constrained_form, value) == expected
        assert outcome(BROKER.constrained_form, value) == expected
        if isinstance(value, str):
            verdict = TraceAuthorizationGuard.applies_to(BROKER.constrained_form(value))
            assert verdict == old_applies_to(value)

    return test


test_form_agrees_with_a_fresh_parse = _form_agrees_with_a_fresh_parse(300)
test_form_agrees_with_a_fresh_parse_deep = pytest.mark.deep(_form_agrees_with_a_fresh_parse(5_000))


def test_form_examples():
    broker = bare_broker()
    form = broker.constrained_form("/Constrained/Traces/Limited")
    assert form == ConstrainedTopic.parse("Constrained/Traces/Limited")
    assert broker.constrained_form("Constrained") == ConstrainedTopic.parse("Constrained")
    for unconstrained in ("ConstrainedX/a", "//Constrained/a", "Constrained//a", "a/b", "", None, 7, b"Constrained"):
        assert broker.constrained_form(unconstrained) is None
    # only strings that can start with the keyword are held
    assert sorted(broker._constrained_forms) == [
        "/Constrained/Traces/Limited", "Constrained", "Constrained//a", "ConstrainedX/a",
    ]


def test_guard_verdicts_on_table_2_topics():
    topics = TraceTopicSet(UUID128(5), EntityId("svc"))
    session = SessionId(UUID128(9))
    broker = bare_broker()
    for topic in (
        topics.all_updates, topics.interest_request, topics.interest_response,
        topics.entity_to_broker(session), topics.broker_to_entity(session),
        topics.key_delivery("w"), Topic.parse("News/Sports"),
    ):
        verdict = TraceAuthorizationGuard.applies_to(broker.constrained_form(topic.canonical))
        assert verdict == old_applies_to(topic.canonical)
    assert TraceAuthorizationGuard.applies_to(broker.constrained_form(topics.load.canonical))


def test_more_topics_than_the_bound_keep_the_memo_bounded():
    broker = bare_broker()
    topics = [f"Constrained/Traces/Broker/Publish-Only/{n}/Load" for n in range(TOPIC_MEMO_BOUND + 50)]
    topics += [f"Constrained/e{n}" for n in range(50)]
    for topic in topics + topics[:100]:
        assert broker.constrained_form(topic) == fresh_constrained_form(topic)
        assert len(broker._constrained_forms) <= TOPIC_MEMO_BOUND
    assert len(broker._constrained_forms) == TOPIC_MEMO_BOUND


# -- held trace topics --------------------------------------------------------------


def uncached_publish_topic(topics, suffix):
    return Topic.of("Constrained", "Traces", "Broker", "Publish-Only", topics.trace_topic.hex, suffix)


def test_held_trace_topics_equal_the_uncached_construction():
    topics = TraceTopicSet(UUID128(5), EntityId("svc"))
    for name, suffix in (
        ("change_notifications", "ChangeNotifications"),
        ("all_updates", "AllUpdates"),
        ("state_transitions", "StateTransitions"),
        ("load", "Load"),
        ("network_metrics", "NetworkMetrics"),
        ("interest_request", "Interest"),
    ):
        assert getattr(topics, name) == uncached_publish_topic(topics, suffix)
        assert getattr(topics, name) is getattr(topics, name)
    hexed = topics.trace_topic.hex
    for n in range(SESSION_TOPICS_BOUND + 3):
        session = SessionId(UUID128(100 + n))
        assert topics.entity_to_broker(session) == Topic.of(
            "Constrained", "Traces", "Broker", "Subscribe-Only", "Limited", hexed, session.topic_segment,
        )
        assert topics.broker_to_entity(session) == Topic.of(
            "Constrained", "Traces", "svc", "Subscribe-Only", hexed, session.topic_segment,
        )
        assert len(topics._session_topics) <= 2 * SESSION_TOPICS_BOUND


def test_trace_topic_set_equality_and_hash_ignore_what_it_holds():
    first = TraceTopicSet(UUID128(5), EntityId("svc"))
    second = TraceTopicSet(UUID128(5), EntityId("svc"))
    first.entity_to_broker(SessionId(UUID128(9)))
    assert first == second and hash(first) == hash(second)
    assert hash(first) == hash((UUID128(5), EntityId("svc")))
    assert first != TraceTopicSet(UUID128(6), EntityId("svc"))
    assert repr(first) == f"TraceTopicSet(trace_topic={UUID128(5)!r}, entity_id={EntityId('svc')!r})"
