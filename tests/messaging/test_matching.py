"""Tests for the SubscriptionIndex (messaging/matching.py)."""

import gc
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import TopicError
from repro.messaging import topics
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.matching import SubscriptionIndex
from repro.messaging.topics import topic_matches
from repro.obs import MetricsRegistry
from repro.sim.engine import Simulator
from tests.support import (
    build_chain,
    empty_kinds,
    index_clients,
    index_patterns,
    shard_count,
    trie_nodes,
)


def linear_match_patterns(patterns, topic):
    """The oracle: a linear scan testing every pattern against ``topic``."""
    return sorted(p for p in patterns if topic_matches(p, topic))


def index_with_clients(patterns):
    index = SubscriptionIndex()
    for i, pattern in enumerate(patterns):
        index.add_client(pattern, f"c{i}")
    return index


class TestBasicMatching:
    def test_exact_match(self):
        index = index_with_clients(["a/b/c"])
        assert index.match_patterns("a/b/c") == ["a/b/c"]
        assert index.match_patterns("a/b") == []
        assert index.match_patterns("a/b/c/d") == []

    def test_star_matches_exactly_one_segment(self):
        index = index_with_clients(["a/*/c"])
        assert index.match_patterns("a/b/c") == ["a/*/c"]
        assert index.match_patterns("a/x/c") == ["a/*/c"]
        assert index.match_patterns("a/c") == []
        assert index.match_patterns("a/b/b/c") == []

    def test_trailing_many_matches_one_or_more(self):
        index = index_with_clients(["a/>"])
        assert index.match_patterns("a/b") == ["a/>"]
        assert index.match_patterns("a/b/c/d") == ["a/>"]
        assert index.match_patterns("a") == []
        assert index.match_patterns("b/c") == []

    def test_bare_many_matches_everything(self):
        index = index_with_clients([">"])
        assert index.match_patterns("a") == [">"]
        assert index.match_patterns("a/b/c") == [">"]

    def test_overlapping_patterns_all_reported_sorted(self):
        index = index_with_clients(["a/b", "a/*", "a/>", "*/b"])
        assert index.match_patterns("a/b") == ["*/b", "a/*", "a/>", "a/b"]

    def test_leading_slash_canonicalized(self):
        index = SubscriptionIndex()
        index.add_client("/a/b", "c1")
        index.add_client("a/b", "c2")
        assert index_patterns(index) == ["a/b"]
        assert index_clients(index, "/a/b") == ["c1", "c2"]

    def test_invalid_pattern_rejected(self):
        index = SubscriptionIndex()
        with pytest.raises(TopicError):
            index.add_client("a/>/b", "c1")
        with pytest.raises(TopicError):
            index.add_client("", "c1")


class TestLifecycle:
    def test_remove_client_prunes_entry_and_nodes(self):
        index = SubscriptionIndex()
        index.add_client("a/b/*", "c1")
        assert trie_nodes(index) == 3
        assert index.remove_client("a/b/*", "c1")
        assert len(index) == 0
        assert trie_nodes(index) == 0
        assert index.match_patterns("a/b/c") == []

    def test_remove_client_keeps_shared_prefix(self):
        index = SubscriptionIndex()
        index.add_client("a/b/*", "c1")
        index.add_client("a/b/>", "c2")
        index.remove_client("a/b/*", "c1")
        assert index_patterns(index) == ["a/b/>"]
        assert trie_nodes(index) == 3  # a, a/b, a/b/>

    def test_literal_patterns_allocate_no_trie_nodes(self):
        index = SubscriptionIndex()
        index.add_client("a/b/c", "c1")
        index.add_handler("a/b/d", lambda m: None)
        index.add_remote("a/b/e", "b2")
        assert len(index) == 3
        assert trie_nodes(index) == 0
        assert index.match_patterns("a/b/c") == ["a/b/c"]

    def test_remove_unknown_is_false(self):
        index = SubscriptionIndex()
        assert not index.remove_client("a/b", "nobody")
        index.add_client("a/b", "c1")
        assert not index.remove_client("a/b", "other")
        assert len(index) == 1

    def test_remove_client_everywhere_reports_orphaned_patterns(self):
        index = SubscriptionIndex()
        index.add_client("solo/topic", "c1")
        index.add_client("shared/topic", "c1")
        index.add_client("shared/topic", "c2")
        index.add_client("handled/topic", "c1")
        index.add_handler("handled/topic", lambda m: None)
        orphaned = index.remove_client_everywhere("c1")
        # only the pattern where c1 was the last local subscriber
        assert orphaned == ["solo/topic"]
        assert index_patterns(index) == ["handled/topic", "shared/topic"]

    def test_remote_retraction_prunes_empty_entries(self):
        index = SubscriptionIndex()
        index.add_remote("remote/topic", "b2")
        assert "remote/topic" in index
        assert index.remove_remote("remote/topic", "b2")
        assert "remote/topic" not in index
        assert trie_nodes(index) == 0

    def test_handler_removal_prunes(self):
        index = SubscriptionIndex()
        handler = lambda m: None
        index.add_handler("x/y", handler)
        assert index.has_local("x/y")
        assert index.remove_handler("x/y", handler)
        assert not index.has_local("x/y")
        assert len(index) == 0

    def test_patterns_gauge_tracks_live_entries(self):
        registry = MetricsRegistry()
        index = SubscriptionIndex(metrics=registry)
        index.add_client("a/b", "c1")
        index.add_remote("a/c", "b2")
        assert registry.gauge_value("broker.interest.patterns") == 2
        index.remove_client("a/b", "c1")
        index.remove_remote("a/c", "b2")
        assert registry.gauge_value("broker.interest.patterns") == 0


class TestQueries:
    def test_client_count_sums_matching_patterns(self):
        index = SubscriptionIndex()
        index.add_client("m/>", "c1")
        index.add_client("m/cpu", "c2")
        index.add_client("m/cpu", "c3")
        index.add_client("other/x", "c4")
        assert sum(len(clients) for _, clients in index.match_clients("m/cpu")) == 3

    def test_match_remote_excludes_self(self):
        index = SubscriptionIndex()
        index.add_remote("t/x", "b1")
        index.add_remote("t/*", "b2")
        assert index.match_remote("t/x") == {"b1", "b2"}
        assert index.match_remote("t/x", exclude="b1") == {"b2"}

    def test_has_any_match_modes(self):
        index = SubscriptionIndex()
        assert not index.has_any_match("a/b")
        index.add_remote("a/b", "b9")
        assert index.has_any_match("a/b")
        assert not index.has_any_match("a/b", exclude_remote="b9")
        assert not index.has_local_match("a/b")
        index.add_client("a/*", "c1")
        assert index.has_local_match("a/b")


SEGMENTS = ["alpha", "beta", "gamma", "delta", "x"]


class TestSharding:
    """First-segment shards: creation, probing and pruning."""

    def test_shard_per_distinct_first_segment(self):
        index = index_with_clients(["a/x", "a/y", "b/z", "*/w", ">"])
        assert shard_count(index) == 4  # a, b, *, >

    def test_bare_many_shard_matches_any_topic(self):
        index = index_with_clients([">"])
        assert index.match_patterns("solo") == [">"]
        assert index.match_patterns("deep/topic/path") == [">"]

    def test_star_first_shard_probed(self):
        index = index_with_clients(["*/tail"])
        assert index.match_patterns("any/tail") == ["*/tail"]
        assert index.match_patterns("any/other") == []

    def test_shard_pruned_with_last_pattern(self):
        index = SubscriptionIndex()
        index.add_client("a/x", "c1")
        index.add_client("b/y", "c1")
        assert shard_count(index) == 2
        index.remove_client("a/x", "c1")
        assert shard_count(index) == 1
        assert index.match_patterns("a/x") == []
        index.remove_client("b/y", "c1")
        assert shard_count(index) == 0
        assert trie_nodes(index) == 0

    def test_single_segment_pattern_lives_on_shard_node(self):
        index = SubscriptionIndex()
        index.add_client("*", "c1")
        assert shard_count(index) == 1
        assert trie_nodes(index) == 1
        assert index.match_patterns("root") == ["*"]
        index.remove_client("*", "c1")
        assert shard_count(index) == 0
        assert trie_nodes(index) == 0

    def test_literal_and_wildcard_patterns_share_a_shard(self):
        index = SubscriptionIndex()
        index.add_client("a/x", "c1")
        index.add_client("a/*", "c1")
        assert shard_count(index) == 1
        index.remove_client("a/*", "c1")
        assert shard_count(index) == 1  # a/x still starts with a
        index.remove_client("a/x", "c1")
        assert shard_count(index) == 0

    def test_shards_gauge_tracks_lifecycle(self):
        metrics = MetricsRegistry()
        index = SubscriptionIndex(metrics=metrics)
        index.add_client("a/x", "c1")
        index.add_client("a/y", "c1")
        index.add_client("b/z", "c1")
        assert metrics.gauge_value("broker.interest.shards") == 2
        index.remove_client_everywhere("c1")
        assert metrics.gauge_value("broker.interest.shards") == 0

    def test_segments_are_interned(self):
        """Shared trie segment strings collapse to one object per process."""
        index = SubscriptionIndex()
        index.add_client("Constrained/Traces/one/>", "c1")
        index.add_client("Constrained/Traces/two/*", "c2")
        (first,) = index._trie.children.values()
        (key,) = first.children.keys()
        assert key is sys.intern("Traces")

    def test_canonical_pattern_string_is_stored_as_given(self):
        """A canonical pattern is kept as the caller's string, not a copy."""
        index = SubscriptionIndex()
        pattern = "/".join(["Traces", "e1", "Change"])
        index.add_handler(pattern, lambda m: None)
        (stored,) = index._handlers
        assert stored is pattern


def random_pattern(rng: random.Random) -> str:
    depth = rng.randint(1, 4)
    parts = [rng.choice(SEGMENTS) for _ in range(depth)]
    for i in range(depth - 1):
        if rng.random() < 0.25:
            parts[i] = "*"
    roll = rng.random()
    if roll < 0.2:
        parts[-1] = ">"
        if depth == 1:
            parts = [rng.choice(SEGMENTS), ">"]
    elif roll < 0.4:
        parts[-1] = "*"
    return "/".join(parts)


def random_topic(rng: random.Random) -> str:
    depth = rng.randint(1, 5)
    return "/".join(rng.choice(SEGMENTS) for _ in range(depth))


class TestEquivalenceWithLinearScan:
    """The trie must answer exactly like the old per-pattern linear scan."""

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_corpus(self, seed):
        rng = random.Random(seed)
        patterns = {random_pattern(rng) for _ in range(rng.randint(5, 60))}
        index = index_with_clients(sorted(patterns))
        for _ in range(200):
            topic = random_topic(rng)
            assert index.match_patterns(topic) == linear_match_patterns(
                patterns, topic
            ), f"divergence on topic {topic!r} with patterns {sorted(patterns)}"

    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_survives_random_removals(self, seed):
        rng = random.Random(1000 + seed)
        patterns = sorted({random_pattern(rng) for _ in range(40)})
        index = SubscriptionIndex()
        for i, pattern in enumerate(patterns):
            index.add_client(pattern, f"c{i}")
        alive = dict(enumerate(patterns))
        while alive:
            victims = rng.sample(sorted(alive), k=min(5, len(alive)))
            for i in victims:
                assert index.remove_client(alive[i], f"c{i}")
                del alive[i]
            for _ in range(50):
                topic = random_topic(rng)
                assert index.match_patterns(topic) == linear_match_patterns(
                    alive.values(), topic
                )
        assert trie_nodes(index) == 0


# ------------------------------------------------------------ stateful model

MACHINE_SEGMENTS = ("a", "b", "c")

#: every concrete topic of depth 1..3 over the machine's segments
MACHINE_TOPICS = tuple(
    "/".join(parts)
    for depth in (1, 2, 3)
    for parts in itertools.product(MACHINE_SEGMENTS, repeat=depth)
)

literal_patterns = st.lists(
    st.sampled_from(MACHINE_SEGMENTS), min_size=1, max_size=3
).map("/".join)
wildcard_patterns = st.builds(
    lambda head, tail: "/".join([*head, tail]),
    st.lists(st.sampled_from((*MACHINE_SEGMENTS, "*")), max_size=2),
    st.sampled_from(("*", ">")),
)
# a tolerated leading '/' must land on the same entry
machine_patterns = st.builds(
    lambda slash, pattern: "/" + pattern if slash else pattern,
    st.booleans(),
    st.one_of(literal_patterns, wildcard_patterns),
)
machine_ids = st.sampled_from(("x1", "x2", "x3"))


def _handler(name):
    def handler(message):
        return name

    return handler


MACHINE_HANDLERS = tuple(_handler(name) for name in ("h1", "h2"))


class IndexMachine(RuleBasedStateMachine):
    """Interleaved add/remove of literal and wildcard patterns against a
    plain-dict model; the linear scan is the match oracle."""

    def __init__(self):
        super().__init__()
        self.metrics = MetricsRegistry()
        self.index = SubscriptionIndex(metrics=self.metrics)
        self.clients: dict[str, set[str]] = {}
        self.handlers: dict[str, list] = {}
        self.remote: dict[str, set[str]] = {}

    @staticmethod
    def canonical(pattern):
        return pattern[1:] if pattern.startswith("/") else pattern

    def live(self):
        return {
            pattern
            for table in (self.clients, self.handlers, self.remote)
            for pattern, held in table.items()
            if held
        }

    @rule(pattern=machine_patterns, client=machine_ids)
    def add_client(self, pattern, client):
        self.index.add_client(pattern, client)
        self.clients.setdefault(self.canonical(pattern), set()).add(client)

    @rule(pattern=machine_patterns, client=machine_ids)
    def remove_client(self, pattern, client):
        held = self.clients.get(self.canonical(pattern), set())
        assert self.index.remove_client(pattern, client) == (client in held)
        held.discard(client)

    @rule(client=machine_ids)
    def remove_client_everywhere(self, client):
        orphaned = []
        for pattern, held in self.clients.items():
            if client in held:
                held.discard(client)
                if not held and not self.handlers.get(pattern):
                    orphaned.append(pattern)
        assert self.index.remove_client_everywhere(client) == sorted(orphaned)

    @rule(pattern=machine_patterns, handler=st.sampled_from(MACHINE_HANDLERS))
    def add_handler(self, pattern, handler):
        self.index.add_handler(pattern, handler)
        self.handlers.setdefault(self.canonical(pattern), []).append(handler)

    @rule(pattern=machine_patterns, handler=st.sampled_from(MACHINE_HANDLERS))
    def remove_handler(self, pattern, handler):
        held = self.handlers.get(self.canonical(pattern), [])
        assert self.index.remove_handler(pattern, handler) == (handler in held)
        if handler in held:
            held.remove(handler)

    @rule(pattern=machine_patterns, broker=machine_ids)
    def add_remote(self, pattern, broker):
        self.index.add_remote(pattern, broker)
        self.remote.setdefault(self.canonical(pattern), set()).add(broker)

    @rule(pattern=machine_patterns, broker=machine_ids)
    def remove_remote(self, pattern, broker):
        held = self.remote.get(self.canonical(pattern), set())
        assert self.index.remove_remote(pattern, broker) == (broker in held)
        held.discard(broker)

    @invariant()
    def matches_the_linear_scan(self):
        live = self.live()
        for topic in MACHINE_TOPICS:
            assert self.index.match_patterns(topic) == linear_match_patterns(live, topic)

    @invariant()
    def counts_and_gauges_follow_the_model(self):
        live = self.live()
        assert len(self.index) == len(live)
        assert index_patterns(self.index) == sorted(live)
        assert self.metrics.gauge_value("broker.interest.patterns") == len(live)
        shards = {pattern.split("/")[0] for pattern in live}
        assert shard_count(self.index) == len(shards)
        assert self.metrics.gauge_value("broker.interest.shards") == len(shards)
        if not live:
            assert trie_nodes(self.index) == 0

    @invariant()
    def no_kind_holds_an_empty_key(self):
        assert empty_kinds(self.index) == []
        if not self.live():
            index = self.index
            assert not (index._clients or index._handlers or index._remote)
            assert not index._shards
            assert not index._trie.children and index._trie.pattern is None

    @invariant()
    def handlers_keep_registration_order(self):
        for pattern, held in self.handlers.items():
            assert self.index.handlers_for(pattern) == held


TestIndexMachine = IndexMachine.TestCase
TestIndexMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)


@pytest.mark.deep
class TestIndexMachineDeep(IndexMachine.TestCase):
    settings = settings(max_examples=500, stateful_step_count=50, deadline=None)


# ------------------------------------------------------- the subscribe path


def federated_brokers(count):
    network = BrokerNetwork(Simulator(), seed=3, federation=True)
    ids = [f"b{i}" for i in range(count)]
    build_chain(network, ids)
    return network, [network.broker(broker_id) for broker_id in ids]


class TestLiteralSubscribePath:
    def test_literal_subscribe_and_unsubscribe_split_nothing(self, monkeypatch):
        """Broker, index and federation plane recognise a literal by string
        tests alone, on the way in and on the way out, and hold one string."""
        network, (broker, _peer) = federated_brokers(2)
        calls = []
        original = topics.split_topic

        def counted(topic):
            calls.append(topic)
            return original(topic)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") and (
                getattr(module, "split_topic", None) is original
            ):
                monkeypatch.setattr(module, "split_topic", counted)
        pattern = "/".join(["Traces", "e1", "Change"])
        handler = MACHINE_HANDLERS[0]
        broker.subscribe_local(pattern, handler)
        assert calls == []
        # and the three layers hold that one string
        (stored,) = broker._subs._handlers
        accumulator = network.federation._accumulators[broker.broker_id]
        (announced,) = accumulator.patterns
        assert stored is pattern and announced is pattern
        # the tolerated leading "/" is stripped by string tests too
        broker.unsubscribe_local("/" + pattern, handler)
        assert calls == []
        assert not index_patterns(broker._subs) and not accumulator.patterns

    def test_literal_pattern_costs_at_most_200_traced_bytes(self):
        """20 000 literal broker subscriptions on a federated net: the
        string, one handler-dict slot and its tuple, one pattern entry
        on the plane each, no trie, and digest counts only for the few
        bits two patterns share."""
        _network, (broker,) = federated_brokers(1)
        handler = MACHINE_HANDLERS[0]
        broker.subscribe_local("Traces/warm/Change", handler)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(20_000):
                broker.subscribe_local(f"Traces/{i:06x}/Change", handler)
            gc.collect()
            per_pattern = (tracemalloc.get_traced_memory()[0] - before) / 20_000
        finally:
            tracemalloc.stop()
        assert trie_nodes(broker._subs) == 0
        assert per_pattern <= 200, f"{per_pattern:.0f} traced bytes per pattern"
