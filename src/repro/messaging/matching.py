"""Indexed subscription matching: the segment-trie ``SubscriptionIndex``.

A broker answers "who is interested in this concrete topic?" for every
message it routes (section 2).  The naive answer — re-testing every
subscription pattern with :func:`~repro.messaging.topics.topic_matches` —
costs O(patterns) per message and dominated broker CPU once deployments
grew past a handful of subscriptions.  This module replaces those linear
scans with a trie keyed by topic segments, answering match queries in
O(topic depth) independent of how many patterns are stored.

One index instance holds all three kinds of interest a broker tracks:

* **client subscriptions** — connected entities, delivered over links,
* **broker-local handlers** — the broker's own subscriptions (sessions),
* **remote interest** — peer brokers with subscribers for a pattern.

A :class:`~repro.messaging.client.BrokerClient` holds an index of its own
too, using only the handler kind: a tracker of N entities subscribes to
O(N) exact topics, and each delivered message must find its handlers in
O(topic depth) there for the same reason it must at the broker.  Client
indexes are built without a registry, so the deployment-wide
``broker.interest.*`` gauges count broker-side entries only.

Wildcards follow the topic grammar: ``*`` matches exactly one segment and
a trailing ``>`` matches one or more remaining segments.  Patterns are
canonicalized on insertion (a tolerated leading ``/`` is stripped), so
``/a/b`` and ``a/b`` share one entry.

Lifecycle correctness is part of the contract: every removal prunes
entries and trie nodes that became empty, so a retracted pattern costs
nothing on later messages, and :meth:`SubscriptionIndex.remove_client`
/ :meth:`remove_client_everywhere` report exactly which patterns lost
their last subscriber so the broker can retract interest from its peers.

Determinism: match results are returned in sorted-pattern order and
subscriber lists are sorted, so routing never depends on hash order
(the DET02 contract); callers that want unbiased fan-out shuffle with a
seeded stream, as :meth:`Broker._deliver_local` does.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable

from repro.messaging.topics import (
    WILDCARD_MANY,
    WILDCARD_ONE,
    split_topic,
    validate_topic,
)
from repro.obs.registry import MetricsRegistry

#: Registry gauge tracking live pattern entries (deployment-wide total).
PATTERNS_GAUGE = "broker.interest.patterns"

#: Registry gauge tracking live first-segment shards (deployment-wide).
SHARDS_GAUGE = "broker.interest.shards"


class PatternEntry:
    """Everything stored for one subscription pattern."""

    __slots__ = ("pattern", "clients", "handlers", "remote")

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self.clients: dict[str, bool] = {}
        self.handlers: list[Callable] = []
        self.remote: set[str] = set()

    def is_empty(self) -> bool:
        """No clients, handlers, or remote interest left at all."""
        return not (self.clients or self.handlers or self.remote)

    def has_local(self) -> bool:
        """Any client subscription or broker-local handler?"""
        return bool(self.clients or self.handlers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PatternEntry {self.pattern} clients={sorted(self.clients)} "
            f"handlers={len(self.handlers)} remote={sorted(self.remote)}>"
        )


class _TrieNode:
    """One trie level; children keyed by segment (including ``*``/``>``)."""

    __slots__ = ("children", "entry")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.entry: PatternEntry | None = None


class SubscriptionIndex:
    """Segment trie over subscription patterns with pruning removals.

    The trie is **sharded by first topic segment**: each first segment
    (including the ``*`` and ``>`` wildcards) owns an independent subtrie,
    so a match query touches at most three shards — the topic's literal
    root, ``*`` and ``>`` — regardless of how many root segments exist,
    and a shard whose last pattern is retracted frees its whole subtrie
    at once.  Segment strings are interned on insertion
    (:func:`sys.intern`): at the 100k-entity scale most segments are
    shared constants (``Constrained``, ``Traces``, trace-type suffixes),
    and interning keeps one copy per process instead of one per pattern.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._shards: dict[str, _TrieNode] = {}
        self._by_pattern: dict[str, PatternEntry] = {}
        self._metrics = metrics

    # ------------------------------------------------------------ entry access

    @staticmethod
    def canonical(pattern: str) -> str:
        """Canonical spelling of a pattern (leading ``/`` stripped)."""
        return "/".join(split_topic(pattern))

    def _get_or_create(self, pattern: str) -> PatternEntry:
        segments = [sys.intern(s) for s in validate_topic(pattern, allow_wildcards=True)]
        canonical = sys.intern("/".join(segments))
        entry = self._by_pattern.get(canonical)
        if entry is not None:
            return entry
        node = self._shards.get(segments[0])
        if node is None:
            node = self._shards[segments[0]] = _TrieNode()
            if self._metrics is not None:
                self._metrics.gauge(SHARDS_GAUGE).inc()
        for segment in segments[1:]:
            node = node.children.setdefault(segment, _TrieNode())
        entry = PatternEntry(canonical)
        node.entry = entry
        self._by_pattern[canonical] = entry
        if self._metrics is not None:
            self._metrics.gauge(PATTERNS_GAUGE).inc()
        return entry

    def _lookup(self, pattern: str) -> PatternEntry | None:
        return self._by_pattern.get(self.canonical(pattern))

    def _prune_if_empty(self, entry: PatternEntry) -> None:
        """Drop an empty entry and every trie node it leaves childless."""
        if not entry.is_empty():
            return
        del self._by_pattern[entry.pattern]
        if self._metrics is not None:
            self._metrics.gauge(PATTERNS_GAUGE).dec()
        segments = entry.pattern.split("/")
        path = [self._shards[segments[0]]]
        for segment in segments[1:]:
            path.append(path[-1].children[segment])
        path[-1].entry = None
        for depth in range(len(segments) - 1, 0, -1):
            child = path[depth]
            if child.entry is None and not child.children:
                del path[depth - 1].children[segments[depth]]
            else:
                break
        shard = path[0]
        if shard.entry is None and not shard.children:
            del self._shards[segments[0]]
            if self._metrics is not None:
                self._metrics.gauge(SHARDS_GAUGE).dec()

    # --------------------------------------------------------------- mutation

    def add_client(self, pattern: str, client_id: str) -> None:
        """Record a client subscription on ``pattern``."""
        self._get_or_create(pattern).clients[client_id] = True

    def remove_client(self, pattern: str, client_id: str) -> bool:
        """Remove one client subscription; True if it was present."""
        entry = self._lookup(pattern)
        if entry is None or entry.clients.pop(client_id, None) is None:
            return False
        self._prune_if_empty(entry)
        return True

    def remove_client_everywhere(self, client_id: str) -> list[str]:
        """Drop every subscription of ``client_id``.

        Returns the (sorted) patterns that thereby lost their **last**
        local subscriber — exactly the set the broker must retract
        interest for when a client detaches or is terminated.
        """
        orphaned: list[str] = []
        for entry in list(self._by_pattern.values()):
            if entry.clients.pop(client_id, None) is None:
                continue
            if not entry.has_local():
                orphaned.append(entry.pattern)
            self._prune_if_empty(entry)
        return sorted(orphaned)

    def add_handler(self, pattern: str, handler: Callable) -> None:
        """Record a broker-local handler subscription on ``pattern``."""
        self._get_or_create(pattern).handlers.append(handler)

    def remove_handler(self, pattern: str, handler: Callable) -> bool:
        """Remove one handler; True if it was present."""
        entry = self._lookup(pattern)
        if entry is None or handler not in entry.handlers:
            return False
        entry.handlers.remove(handler)
        self._prune_if_empty(entry)
        return True

    def add_remote(self, pattern: str, broker_id: str) -> None:
        """Record a peer broker's interest in ``pattern``."""
        self._get_or_create(pattern).remote.add(broker_id)

    def remove_remote(self, pattern: str, broker_id: str) -> bool:
        """Retract one peer's interest, pruning the entry if it empties."""
        entry = self._lookup(pattern)
        if entry is None or broker_id not in entry.remote:
            return False
        entry.remote.discard(broker_id)
        self._prune_if_empty(entry)
        return True

    # ---------------------------------------------------------------- queries

    def _matching_entries(self, topic: str) -> list[PatternEntry]:
        """Entries whose pattern matches the concrete ``topic``.

        Probes at most three shards — the topic's literal first segment,
        ``*`` and ``>`` — then walks each subtrie once (literal child,
        ``*`` child and a terminal ``>`` child per level), so the cost is
        O(topic depth), not O(stored patterns).  Results come back in
        sorted-pattern order.
        """
        segments = split_topic(topic)
        found: list[PatternEntry] = []

        def collect(node: _TrieNode, index: int) -> None:
            many = node.children.get(WILDCARD_MANY)
            if many is not None and many.entry is not None and index < len(segments):
                found.append(many.entry)
            if index == len(segments):
                if node.entry is not None:
                    found.append(node.entry)
                return
            literal = node.children.get(segments[index])
            if literal is not None:
                collect(literal, index + 1)
            star = node.children.get(WILDCARD_ONE)
            if star is not None:
                collect(star, index + 1)

        # A bare ``>`` pattern lives in its own shard and matches any
        # (non-empty) topic; the grammar keeps ``>`` terminal, so that
        # shard is a single node probed without descending.
        many_shard = self._shards.get(WILDCARD_MANY)
        if many_shard is not None and many_shard.entry is not None and segments:
            found.append(many_shard.entry)
        literal_shard = self._shards.get(segments[0]) if segments else None
        if literal_shard is not None:
            collect(literal_shard, 1)
        star_shard = self._shards.get(WILDCARD_ONE)
        if star_shard is not None and segments:
            collect(star_shard, 1)
        found.sort(key=lambda entry: entry.pattern)
        return found

    def match_patterns(self, topic: str) -> list[str]:
        """Sorted patterns matching ``topic`` (tests / introspection)."""
        return [entry.pattern for entry in self._matching_entries(topic)]

    def match_clients(self, topic: str) -> list[tuple[str, list[str]]]:
        """``(pattern, sorted client ids)`` per matching pattern."""
        return [
            (entry.pattern, sorted(entry.clients))
            for entry in self._matching_entries(topic)
            if entry.clients
        ]

    def match_handlers(self, topic: str) -> list[tuple[str, list[Callable]]]:
        """``(pattern, handlers)`` per matching pattern, handlers in
        registration order; the list is a copy, safe to mutate under."""
        return [
            (entry.pattern, list(entry.handlers))
            for entry in self._matching_entries(topic)
            if entry.handlers
        ]

    def match_remote(self, topic: str, exclude: str | None = None) -> set[str]:
        """Peer brokers with interest in ``topic``."""
        interested: set[str] = set()
        for entry in self._matching_entries(topic):
            interested |= entry.remote
        if exclude is not None:
            interested.discard(exclude)
        return interested

    def client_count(self, topic: str) -> int:
        """Total client subscriptions matching ``topic``."""
        return sum(
            len(entry.clients) for entry in self._matching_entries(topic)
        )

    def has_local_match(self, topic: str) -> bool:
        """Any local consumer (client or handler) for ``topic``?"""
        return any(
            entry.has_local() for entry in self._matching_entries(topic)
        )

    def has_any_match(self, topic: str, exclude_remote: str | None = None) -> bool:
        """Anyone at all — local or a (non-excluded) peer — for ``topic``?"""
        for entry in self._matching_entries(topic):
            if entry.has_local():
                return True
            remote = entry.remote
            if exclude_remote is not None:
                remote = remote - {exclude_remote}
            if remote:
                return True
        return False

    # ----------------------------------------------------------- introspection

    def has_local(self, pattern: str) -> bool:
        """Does this exact pattern still have a local subscriber?"""
        entry = self._lookup(pattern)
        return entry is not None and entry.has_local()

    def clients_for(self, pattern: str) -> list[str]:
        """Client ids subscribed to exactly ``pattern``, sorted."""
        entry = self._lookup(pattern)
        return sorted(entry.clients) if entry is not None else []

    def handlers_for(self, pattern: str) -> list[Callable]:
        """Handlers registered on exactly ``pattern``, in registration
        order; the list is a copy."""
        entry = self._lookup(pattern)
        return list(entry.handlers) if entry is not None else []

    def patterns(self) -> list[str]:
        """Every live pattern in the index, sorted."""
        return sorted(self._by_pattern)

    @property
    def pattern_count(self) -> int:
        """Number of live pattern entries."""
        return len(self._by_pattern)

    @property
    def shard_count(self) -> int:
        """Live first-segment shards (tests assert shard pruning)."""
        return len(self._shards)

    def node_count(self) -> int:
        """Trie nodes currently allocated (shard roots included); tests
        use this to assert that retraction actually prunes."""
        total = len(self._shards)
        stack = list(self._shards.values())
        while stack:
            node = stack.pop()
            total += len(node.children)
            stack.extend(node.children.values())
        return total

    def __len__(self) -> int:
        return len(self._by_pattern)

    def __contains__(self, pattern: str) -> bool:
        return self._lookup(pattern) is not None


def linear_match_patterns(patterns: Iterable[str], topic: str) -> list[str]:
    """Reference implementation: the old linear scan over every pattern.

    Kept for the equivalence test suite, which checks the trie against
    this oracle over randomized corpora.
    """
    from repro.messaging.topics import topic_matches

    return sorted(p for p in patterns if topic_matches(p, topic))
