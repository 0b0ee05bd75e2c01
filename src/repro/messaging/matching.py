"""Indexed subscription matching: the ``SubscriptionIndex``.

A broker answers "who is interested in this concrete topic?" for every
message it routes (section 2).  The naive answer — re-testing every
subscription pattern with :func:`~repro.messaging.topics.topic_matches` —
costs O(patterns) per message and dominated broker CPU once deployments
grew past a handful of subscriptions.  This module answers match queries
in O(topic depth) independent of how many patterns are stored:

* a **literal** (wildcard-free) pattern matches only the identical
  topic, so it lives in one dict keyed by its canonical text and a query
  finds it with one exact lookup;
* a **wildcard** pattern also lives in a trie keyed by topic segments,
  which a query walks once per topic.

At the 100k-entity scale nearly every pattern is literal (one exact
topic per traced entity), so nearly every pattern costs one dict entry
and no trie node.

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
``/a/b`` and ``a/b`` share one entry.  A pattern that arrives canonical
is stored as the very string it arrived as, so the broker, this index
and the federation plane share one string per pattern.

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
from functools import cached_property
from typing import AbstractSet, Callable

from repro.messaging.topics import (
    WILDCARD_MANY,
    WILDCARD_ONE,
    split_topic,
    validate_topic,
)
from repro.obs import Gauge
from repro.obs.registry import MetricsRegistry

#: Registry gauge tracking live pattern entries (deployment-wide total).
PATTERNS_GAUGE = "broker.interest.patterns"

#: Registry gauge tracking live first-segment shards (deployment-wide).
SHARDS_GAUGE = "broker.interest.shards"

#: The ``clients`` / ``remote`` of an entry nobody has written to yet:
#: shared and immutable, replaced by the entry's own set on first write.
_NOBODY: AbstractSet[str] = frozenset()


def canonical_pattern(pattern: str) -> str:
    """``pattern``'s canonical spelling; TopicValidationError if invalid.

    A wildcard-free pattern is checked by string tests alone — exactly
    the grammar :func:`~repro.messaging.topics.split_topic` enforces (no
    empty segment, one tolerated leading ``/``) — so a literal
    subscription is never split into segments.  Anything else goes
    through :func:`~repro.messaging.topics.validate_topic`, which raises
    the same error type and message a split would.
    """
    if isinstance(pattern, str) and "*" not in pattern and ">" not in pattern:
        text = pattern[1:] if pattern[:1] == "/" else pattern
        if text and text[0] != "/" and text[-1] != "/" and "//" not in text:
            return text
    validate_topic(pattern, allow_wildcards=True)
    return pattern[1:] if pattern[0] == "/" else pattern


def _wildcard_segments(canonical: str) -> list[str] | None:
    """The segments of a canonical wildcard pattern; None for a literal."""
    if "*" not in canonical and ">" not in canonical:
        return None
    segments = canonical.split("/")
    if WILDCARD_ONE in segments or WILDCARD_MANY in segments:
        return segments
    return None


class PatternEntry:
    """Everything stored for one subscription pattern.

    ``clients`` and ``remote`` start as one shared empty frozenset and
    ``handlers`` as the empty tuple; an entry allocates a set only for
    the kinds of interest it actually gets.
    """

    __slots__ = ("pattern", "clients", "handlers", "remote")

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self.clients: AbstractSet[str] = _NOBODY
        #: registration order; replaced, never mutated, so a matched
        #: tuple is safe to iterate while handlers (un)subscribe
        self.handlers: tuple[Callable, ...] = ()
        self.remote: AbstractSet[str] = _NOBODY

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
    """Exact lookup for literal patterns plus a segment trie for wildcards.

    Every pattern has an entry in one dict keyed by its canonical text.
    Wildcard patterns are also reachable through a trie whose root's
    children are first topic segments (including ``*`` and ``>``), so a
    match query descends into at most three of them — the topic's first
    segment, ``*`` and ``>``.  Trie segment strings are interned on
    insertion (:func:`sys.intern`); literal patterns are never split into
    segments at all.

    A *shard* is a distinct first segment over all live patterns, literal
    and wildcard alike, kept by a reference count.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._by_pattern: dict[str, PatternEntry] = {}
        #: first segment -> live patterns starting with it
        self._shards: dict[str, int] = {}
        #: wildcard patterns only
        self._trie = _TrieNode()
        self._metrics = metrics

    # Gauges: resolved on first use and held (docs/OBSERVABILITY.md
    # "Adding an instrument"); only touched when the index has a registry.

    @cached_property
    def _patterns_gauge(self) -> Gauge:
        return self._metrics.gauge(PATTERNS_GAUGE)

    @cached_property
    def _shards_gauge(self) -> Gauge:
        return self._metrics.gauge(SHARDS_GAUGE)

    # ------------------------------------------------------------ entry access

    def _get_or_create(self, pattern: str) -> PatternEntry:
        canonical = canonical_pattern(pattern)
        entry = self._by_pattern.get(canonical)
        if entry is not None:
            return entry
        entry = self._by_pattern[canonical] = PatternEntry(canonical)
        first = canonical.partition("/")[0]
        live = self._shards.get(first, 0)
        self._shards[first] = live + 1
        if self._metrics is not None:
            self._patterns_gauge.inc()
            if not live:
                self._shards_gauge.inc()
        segments = _wildcard_segments(canonical)
        if segments is not None:
            node = self._trie
            for segment in segments:
                node = node.children.setdefault(sys.intern(segment), _TrieNode())
            node.entry = entry
        return entry

    def _lookup(self, pattern: str) -> PatternEntry | None:
        entry = self._by_pattern.get(pattern)
        if entry is None and pattern[:1] == "/":
            entry = self._by_pattern.get(pattern[1:])
        return entry

    def _prune_if_empty(self, entry: PatternEntry) -> None:
        """Drop an empty entry and every trie node it leaves childless."""
        if not entry.is_empty():
            return
        pattern = entry.pattern
        del self._by_pattern[pattern]
        first = pattern.partition("/")[0]
        live = self._shards[first] - 1
        if live:
            self._shards[first] = live
        else:
            del self._shards[first]
        if self._metrics is not None:
            self._patterns_gauge.dec()
            if not live:
                self._shards_gauge.dec()
        segments = _wildcard_segments(pattern)
        if segments is None:
            return
        path = [self._trie]
        for segment in segments:
            path.append(path[-1].children[segment])
        path[-1].entry = None
        for depth in range(len(segments), 0, -1):
            child = path[depth]
            if child.entry is not None or child.children:
                break
            del path[depth - 1].children[segments[depth - 1]]

    # --------------------------------------------------------------- mutation

    def add_client(self, pattern: str, client_id: str) -> None:
        """Record a client subscription on ``pattern``."""
        entry = self._get_or_create(pattern)
        if entry.clients:
            entry.clients.add(client_id)
        else:
            entry.clients = {client_id}

    def remove_client(self, pattern: str, client_id: str) -> bool:
        """Remove one client subscription; True if it was present."""
        entry = self._lookup(pattern)
        if entry is None or client_id not in entry.clients:
            return False
        entry.clients.discard(client_id)
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
            if client_id not in entry.clients:
                continue
            entry.clients.discard(client_id)
            if not entry.has_local():
                orphaned.append(entry.pattern)
            self._prune_if_empty(entry)
        return sorted(orphaned)

    def add_handler(self, pattern: str, handler: Callable) -> None:
        """Record a broker-local handler subscription on ``pattern``."""
        entry = self._get_or_create(pattern)
        entry.handlers = (*entry.handlers, handler)

    def remove_handler(self, pattern: str, handler: Callable) -> bool:
        """Remove one handler; True if it was present."""
        entry = self._lookup(pattern)
        if entry is None or handler not in entry.handlers:
            return False
        handlers = entry.handlers
        at = handlers.index(handler)
        entry.handlers = handlers[:at] + handlers[at + 1:]
        self._prune_if_empty(entry)
        return True

    def add_remote(self, pattern: str, broker_id: str) -> None:
        """Record a peer broker's interest in ``pattern``."""
        entry = self._get_or_create(pattern)
        if entry.remote:
            entry.remote.add(broker_id)
        else:
            entry.remote = {broker_id}

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

        One exact lookup finds the literal pattern equal to ``topic``.
        Wildcard patterns are found by one walk of the trie (literal
        child, ``*`` child and a terminal ``>`` child per level), so the
        cost is O(topic depth), not O(stored patterns).  Results come
        back in sorted-pattern order.
        """
        exact = self._lookup(topic)
        found: list[PatternEntry] = [] if exact is None else [exact]
        if not self._trie.children:
            return found
        segments = split_topic(topic)

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

        collect(self._trie, 0)
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

    def match_handlers(self, topic: str) -> list[tuple[str, tuple[Callable, ...]]]:
        """``(pattern, handlers)`` per matching pattern, handlers in
        registration order; the tuple is immutable, so a handler may
        (un)subscribe while it is iterated."""
        return [
            (entry.pattern, entry.handlers)
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

    def handlers_for(self, pattern: str) -> list[Callable]:
        """Handlers registered on exactly ``pattern``, in registration
        order; the list is a copy."""
        entry = self._lookup(pattern)
        return list(entry.handlers) if entry is not None else []

    def __len__(self) -> int:
        return len(self._by_pattern)

    def __contains__(self, pattern: str) -> bool:
        return self._lookup(pattern) is not None
