"""``Broker._parse_pattern`` against the split-based parse it replaced.

The broker recognises a literal subscription pattern by string tests
alone (``matching.canonical_pattern``).  The oracle below is the previous
parse, which validated every pattern with one ``validate_topic`` split.
On any input both must agree: the same canonical string and the same
constrained-or-not outcome for a valid pattern, the same exception type
and message for an invalid one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.messaging.broker import Broker
from repro.messaging.constrained import CONSTRAINED_KEYWORD, ConstrainedTopic
from repro.messaging.topics import validate_topic


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
        assert outcome(Broker._parse_pattern, value) == outcome(split_parse_pattern, value)

    return test


def test_examples_cover_every_outcome():
    parsed = Broker._parse_pattern
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
