"""Unit tests for the summarized-interest federation plane.

The contract under test (``repro.messaging.federation``): summaries are
exact below the hot-set limit, lossy-but-false-negative-free above it,
and control traffic is batched per epoch — one ``control.floods`` per
changed summary, never one per pattern.
"""

import gc
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.messaging.federation import (
    DEFAULT_DIGEST_BITS,
    FederatedInterestPlane,
    FederationConfig,
    TopicProbe,
    _digest_bits,
    pattern_digest_keys,
)
from repro.messaging.topics import topic_matches
from repro.sim.monitor import Monitor
from tests.support import BrokerViews, flushed_summary


@pytest.fixture
def monitor():
    return Monitor()


def make_plane(monitor, hot_set_limit=4, digest_bits=1024, brokers=("b1", "b2")):
    """A plane, and stand-in brokers that announce and retract on it."""
    plane = FederatedInterestPlane(
        monitor=monitor,
        config=FederationConfig(hot_set_limit=hot_set_limit, digest_bits=digest_bits),
    )
    views = BrokerViews(plane)
    for broker_id in brokers:
        views.register(broker_id)
    return plane, views


class TestConfig:
    def test_defaults_validate(self):
        FederationConfig().validated()

    def test_hot_set_limit_floor(self):
        with pytest.raises(ConfigurationError):
            FederationConfig(hot_set_limit=0).validated()

    @pytest.mark.parametrize("bits", [512, 1000, 1025])
    def test_digest_bits_power_of_two(self, bits):
        with pytest.raises(ConfigurationError):
            FederationConfig(digest_bits=bits).validated()

    def test_plane_validates_config(self, monitor):
        with pytest.raises(ConfigurationError):
            FederatedInterestPlane(
                monitor=monitor, config=FederationConfig(hot_set_limit=-1)
            )


class TestDigestKeys:
    def test_literal_pattern_digests_full_text(self):
        assert pattern_digest_keys("a/b/c") == ("e:a/b/c",)

    def test_wildcard_pattern_digests_literal_prefix(self):
        assert pattern_digest_keys("a/b/*") == ("p:a/b",)
        assert pattern_digest_keys("a/>") == ("p:a",)
        assert pattern_digest_keys("a/*/c") == ("p:a",)

    def test_wildcard_characters_inside_a_segment_are_literal(self):
        assert pattern_digest_keys("a*b/c>") == ("e:a*b/c>",)

    def test_rootless_wildcard_has_no_keys(self):
        """``>`` and ``*/...`` can only be covered by match_all."""
        assert pattern_digest_keys(">") == ()
        assert pattern_digest_keys("*/b") == ()


class TestSummaryModes:
    def test_exact_below_hot_set_limit(self, monitor):
        plane, views = make_plane(monitor, hot_set_limit=4)
        for i in range(4):
            views.announce(f"t/{i}", "b1")
        summary = flushed_summary(plane, "b1")
        assert summary.exact
        assert summary.hot == tuple(sorted(f"t/{i}" for i in range(4)))
        assert summary.pattern_count == 4
        assert plane.is_exact("b1")

    def test_digest_above_hot_set_limit(self, monitor):
        plane, views = make_plane(monitor, hot_set_limit=4)
        for i in range(5):
            views.announce(f"t/{i}", "b1")
        summary = flushed_summary(plane, "b1")
        assert not summary.exact
        assert summary.hot == ()
        assert any(summary.digest)
        assert summary.pattern_count == 5
        assert not plane.is_exact("b1")
        assert monitor.metrics.gauge_value("fed.summary.overflowed") == 1

    def test_retraction_returns_to_exact(self, monitor):
        plane, views = make_plane(monitor, hot_set_limit=4)
        for i in range(5):
            views.announce(f"t/{i}", "b1")
        assert not plane.is_exact("b1")
        views.retract("t/4", "b1")
        assert plane.is_exact("b1")
        assert monitor.metrics.gauge_value("fed.summary.overflowed") == 0

    def test_retraction_clears_digest_bits_exactly(self, monitor):
        """Counting-bloom removal: retracting all but one pattern leaves
        exactly that pattern's bits set (no residue, no over-clearing)."""
        plane, views = make_plane(monitor, hot_set_limit=1)
        for i in range(10):
            views.announce(f"t/{i}", "b1")
        for i in range(1, 10):
            views.retract(f"t/{i}", "b1")
        views.announce("u/other", "b1")  # force past limit: digest mode
        assert not flushed_summary(plane, "b1").exact
        assert plane.interested("t/0") == {"b1"}
        # all retracted patterns must have had their bits cleared; their
        # topics may only match via chance collisions with the 2 live ones
        false_hits = sum(
            1 for i in range(1, 10) if plane.interested(f"t/{i}")
        )
        assert false_hits <= 2


class TestNoFalseNegatives:
    """The property routing correctness rests on: a digest summary must
    match every topic a stored pattern matches."""

    PATTERNS = [
        "a/b/c",
        "a/b/*",
        "a/>",
        "x/*/z",
        ">",
        "*/tail",
        "Constrained/Traces/Broker/Publish-Only/deadbeef/Change",
    ]
    TOPICS = [
        ("a/b/c", {"a/b/c", "a/b/*", "a/>", ">"}),
        ("a/b/q", {"a/b/*", "a/>", ">"}),
        ("a/solo", {"a/>", ">"}),
        ("x/y/z", {"x/*/z", ">"}),
        ("q/tail", {"*/tail", ">"}),
        (
            "Constrained/Traces/Broker/Publish-Only/deadbeef/Change",
            {"Constrained/Traces/Broker/Publish-Only/deadbeef/Change", ">"},
        ),
    ]

    @pytest.mark.parametrize("hot_set_limit", [1, 100])
    def test_matches_superset_of_true_interest(self, monitor, hot_set_limit):
        plane, views = make_plane(monitor, hot_set_limit=hot_set_limit)
        for pattern in self.PATTERNS:
            views.announce(pattern, "b1")
        for topic, expected in self.TOPICS:
            if expected:
                assert plane.interested(topic) == {"b1"}, topic

    def test_no_interest_no_match_in_exact_mode(self, monitor):
        plane, views = make_plane(monitor, hot_set_limit=100)
        views.announce("a/b", "b1")
        assert plane.interested("zzz/unrelated") == set()


class TestIncrementalDigest:
    """The digest bytes are updated in place and never recomputed, so a
    missed set or clear would be permanent: after any interleaving of
    announcements and retractions the flushed state must equal what a
    fresh plane builds from the surviving patterns alone."""

    BROKERS = ("b1", "b2")
    # a/*, a/> and a/*/c share one digest key; > and */b have none
    ALPHABET = ("a", "a/b", "a/b/c", "b/c", "x/y/z", "a/*", "a/>", "a/*/c", ">", "*/b")
    TOPICS = ("a", "a/b", "a/b/c", "a/x/c", "b/c", "q/b", "x/y/z", "q")

    @staticmethod
    def content(summary):
        if summary is None:  # never dirtied: nothing was ever broadcast
            return ((), b"", False, True)
        return (summary.hot, summary.digest, summary.match_all, summary.exact)

    def check_against_fresh_plane(self, plane, surviving, broadcast):
        plane.flush()
        fresh, views = make_plane(Monitor(), hot_set_limit=plane.config.hot_set_limit)
        for broker_id, patterns in surviving.items():
            for pattern in sorted(patterns):
                views.announce(pattern, broker_id)
        for broker_id, patterns in surviving.items():
            summary = flushed_summary(plane, broker_id)
            assert self.content(summary) == self.content(flushed_summary(fresh, broker_id))
            if summary is not None and summary is not broadcast.get(broker_id):
                # this flush re-broadcast it.  A change that leaves the content
                # equal (a/> joining a/*) is not re-broadcast, so peers keep
                # the count they were last sent.
                broadcast[broker_id] = summary
                assert summary.pattern_count == len(patterns)
        for topic in self.TOPICS:
            interested = plane.interested(topic)
            for broker_id, patterns in surviving.items():
                if any(topic_matches(pattern, topic) for pattern in patterns):
                    assert broker_id in interested, (topic, broker_id)

    @given(
        hot_set_limit=st.sampled_from((1, 4)),
        steps=st.lists(
            st.tuples(
                st.sampled_from(("announce", "announce", "retract", "flush")),
                st.sampled_from(BROKERS),
                st.sampled_from(ALPHABET),
            ),
            max_size=40,
        ),
    )
    @example(  # a content-equal change between two flushes
        hot_set_limit=1,
        steps=[
            ("announce", "b1", "a/*"),
            ("announce", "b1", "x/y/z"),
            ("flush", "b1", "a"),
            ("announce", "b1", "a/>"),
        ],
    )
    @settings(max_examples=100, deadline=None)
    def test_any_interleaving_equals_a_fresh_plane(self, hot_set_limit, steps):
        """Only the steps a broker takes reach the plane: a pattern's
        first announce, and the retract of an announced one."""
        plane, views = make_plane(Monitor(), hot_set_limit=hot_set_limit)
        surviving = views.announced
        broadcast = {}
        for action, broker_id, pattern in steps:
            held = pattern in surviving[broker_id]
            if action == "announce" and not held:
                views.announce(pattern, broker_id)
            elif action == "retract" and held:
                views.retract(pattern, broker_id)
            elif action == "flush":
                self.check_against_fresh_plane(plane, surviving, broadcast)
        self.check_against_fresh_plane(plane, surviving, broadcast)

        for broker_id, patterns in surviving.items():
            for pattern in sorted(patterns):
                views.retract(pattern, broker_id)
        self.check_against_fresh_plane(plane, surviving, broadcast)
        for broker_id in self.BROKERS:
            assert plane.is_exact(broker_id)
            # hot-set summaries carry no digest, so look at the state behind them
            accumulator = plane._accumulators[broker_id]
            assert not any(accumulator.digest)
            assert accumulator.count == 0 and not accumulator.bit_counts
            assert not any(column & accumulator.lane for column in accumulator.table.columns)


class TestEpochBatching:
    def floods(self, monitor):
        return monitor.count("control.floods")

    def test_burst_costs_one_flood(self, monitor):
        """N announcements then one query: one summary broadcast, not N."""
        plane, views = make_plane(monitor, hot_set_limit=100)
        for i in range(50):
            views.announce(f"t/{i}", "b1")
        assert self.floods(monitor) == 0  # nothing flushed yet
        plane.interested("t/0")
        assert self.floods(monitor) == 1
        assert monitor.metrics.counter_value("fed.summary.updates") == 1

    def test_unchanged_summary_not_rebroadcast(self, monitor):
        """A change that leaves the content equal costs no flood."""
        plane, views = make_plane(monitor, hot_set_limit=1)
        for pattern in ("a/*", "x/y"):
            views.announce(pattern, "b1")
        plane.interested("t/1")
        before = self.floods(monitor)
        views.announce("a/>", "b1")  # the digest key a/* already set
        plane.interested("t/1")
        assert self.floods(monitor) == before

    def test_flush_covers_multiple_dirty_brokers(self, monitor):
        plane, views = make_plane(monitor)
        views.announce("a/x", "b1")
        views.announce("b/y", "b2")
        assert plane.flush() == 2
        assert self.floods(monitor) == 2

    def test_memo_hits_between_changes(self, monitor):
        plane, views = make_plane(monitor)
        views.announce("t/1", "b1")
        plane.interested("t/1")
        plane.interested("t/1")
        assert monitor.metrics.counter_value("fed.match.memo.hit") == 1
        views.announce("t/2", "b1")  # dirties -> memo invalidated on flush
        plane.interested("t/1")
        assert monitor.metrics.counter_value("fed.match.memo.miss") == 2


class TestMembership:
    def test_late_joiner_replays_one_summary_per_active_peer(self, monitor):
        plane, views = make_plane(monitor, brokers=("b1", "b2", "b3"))
        views.announce("a/x", "b1")
        views.announce("b/y", "b2")
        views.register("b9")
        assert monitor.metrics.counter_value("fed.summary.replays") == 2

    def test_register_is_idempotent(self, monitor):
        plane, views = make_plane(monitor)
        views.announce("a/x", "b1")
        plane.register_broker("b1", lambda: ())
        assert plane._accumulators["b1"].count == 1
        assert flushed_summary(plane, "b1").hot == ("a/x",)

    def test_unregistered_broker_rejected(self, monitor):
        plane, views = make_plane(monitor)
        with pytest.raises(ConfigurationError):
            plane.announce("a/x", "ghost")

    def test_interest_gauge_tracks_live_patterns(self, monitor):
        plane, views = make_plane(monitor)
        views.announce("a/x", "b1")
        views.announce("a/y", "b1")
        assert monitor.metrics.gauge_value("fed.interest.patterns") == 2
        views.retract("a/x", "b1")
        assert monitor.metrics.gauge_value("fed.interest.patterns") == 1

    def test_exclusion(self, monitor):
        plane, views = make_plane(monitor)
        views.announce("a/x", "b1")
        assert plane.interested("a/x", exclude="b1") == set()
        assert not plane.has_interest("a/x", exclude="b1")
        assert plane.has_interest("a/x")


class TestProbeAndSummaryInternals:
    def test_probe_prefix_depths_are_proper(self):
        probe = TopicProbe("a/b/c", DEFAULT_DIGEST_BITS)
        pairs = {
            key: _digest_bits(key, DEFAULT_DIGEST_BITS)
            for key in ("e:a/b/c", "p:a", "p:a/b", "p:a/b/c")
        }
        # the full text, then "a" and "a/b", never "a/b/c"
        assert probe.pairs == (pairs["e:a/b/c"], pairs["p:a"], pairs["p:a/b"])
        assert pairs["p:a/b/c"] not in probe.pairs


class TestWindowState:
    """5 000 distinct topics queried against two digest-mode brokers."""

    @staticmethod
    def traced_bytes_per_topic(monitor, prefix):
        plane, views = make_plane(monitor, hot_set_limit=4, digest_bits=DEFAULT_DIGEST_BITS)
        for broker_id in ("b1", "b2"):
            for i in range(8):
                views.announce(f"Traces/{broker_id}-{i}/Change", broker_id)
        plane.interested(f"{prefix}/warm/Change")
        assert not plane._hot_sets  # no topic_matches, so no segment cache
        topics = [f"{prefix}/{i:06x}/Change" for i in range(5_000)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for topic in topics:
                plane.interested(topic)
            gc.collect()
            return (tracemalloc.get_traced_memory()[0] - before) / len(topics)
        finally:
            tracemalloc.stop()

    def test_a_published_topic_retains_at_most_400_traced_bytes(self, monitor):
        """The plane keeps each topic's memo entry and nothing else (no probe)."""
        per_topic = self.traced_bytes_per_topic(monitor, "Traces")
        assert per_topic <= 400, f"{per_topic:.0f} traced bytes per published topic"

    def test_a_topic_nobody_wants_retains_at_most_64_traced_bytes(self, monitor):
        """A memo entry for a topic no broker wants holds the one shared
        empty answer, not an empty set of its own."""
        per_topic = self.traced_bytes_per_topic(monitor, "Untracked")
        assert per_topic <= 64, f"{per_topic:.0f} traced bytes per unwanted topic"
