"""Indexed subscription matching: the ``SubscriptionIndex``.

A broker answers "who is interested in this concrete topic?" for every
message it routes (section 2).  The naive answer — re-testing every
subscription pattern with :func:`~repro.messaging.topics.topic_matches` —
costs O(patterns) per message and dominated broker CPU once deployments
grew past a handful of subscriptions.  This module answers match queries
in O(topic depth) independent of how many patterns are stored:

* a **literal** (wildcard-free) pattern matches only the identical
  topic, so it is a key of a dict keyed by canonical pattern text and a
  query finds it with one exact lookup;
* a **wildcard** pattern is also held by a trie keyed by topic segments,
  which a query walks once per topic.

One index instance holds all three kinds of interest a broker tracks,
each in its own dict keyed by pattern:

* **client subscriptions** — connected entities, delivered over links,
* **broker-local handlers** — the broker's own subscriptions (sessions),
* **remote interest** — peer brokers with subscribers for a pattern.

At the 100k-entity scale nearly every pattern is literal (one exact
topic per traced entity) and held by one kind, so nearly every pattern
costs one dict entry and its set or tuple: no per-pattern object and no
trie node.

A :class:`~repro.messaging.client.BrokerClient` holds an index of its own
too, using only the handler kind: a tracker of N entities subscribes to
O(N) exact topics, and each delivered message must find its handlers in
O(topic depth) there for the same reason it must at the broker.  Client
indexes are built without a registry, so the deployment-wide
``broker.interest.*`` gauges count broker-side patterns only.

Wildcards follow the topic grammar: ``*`` matches exactly one segment and
a trailing ``>`` matches one or more remaining segments.  Patterns are
canonicalized on insertion (a tolerated leading ``/`` is stripped), so
``/a/b`` and ``a/b`` share one key.  A pattern that arrives canonical
is stored as the very string it arrived as, so the broker, this index
and the federation plane share one string per pattern.

Lifecycle correctness is part of the contract: every removal deletes
the key of a kind that became empty and prunes trie nodes nobody needs,
so a retracted pattern costs nothing on later messages, and :meth:`SubscriptionIndex.remove_client`
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
from typing import Callable

from repro.messaging.topics import (
    WILDCARD_MANY,
    WILDCARD_ONE,
    split_topic,
    validate_topic,
)
from repro.obs import Gauge
from repro.obs.registry import MetricsRegistry

#: Registry gauge tracking live patterns (deployment-wide total).
PATTERNS_GAUGE = "broker.interest.patterns"

#: Registry gauge tracking live first-segment shards (deployment-wide).
SHARDS_GAUGE = "broker.interest.shards"


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


class _TrieNode:
    """One trie level; children keyed by segment (including ``*``/``>``)."""

    __slots__ = ("children", "pattern")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        #: the wildcard pattern ending at this node, while it is live
        self.pattern: str | None = None


class SubscriptionIndex:
    """Exact lookup for literal patterns plus a segment trie for wildcards.

    Each kind of interest is one dict keyed by the canonical pattern:
    ``_clients`` (pattern -> client ids), ``_handlers`` (pattern ->
    handlers in registration order) and ``_remote`` (pattern -> peer
    broker ids).  A pattern is *live* while any of the three holds it; a
    kind that empties deletes its key, so no dict ever holds an empty
    set or tuple.  Wildcard patterns are also reachable through a trie
    whose root's children are first topic segments (including ``*`` and
    ``>``), so a match query descends into at most three of them — the
    topic's first segment, ``*`` and ``>``.  Trie segment strings are
    interned on insertion (:func:`sys.intern`); literal patterns are
    never split into segments at all.

    A *shard* is a distinct first segment over all live patterns, literal
    and wildcard alike, kept by a reference count.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._clients: dict[str, set[str]] = {}
        #: registration order; replaced, never mutated, so a matched
        #: tuple is safe to iterate while handlers (un)subscribe
        self._handlers: dict[str, tuple[Callable, ...]] = {}
        self._remote: dict[str, set[str]] = {}
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

    # ------------------------------------------------------------- liveness

    def _is_live(self, canonical: str) -> bool:
        return (
            canonical in self._clients
            or canonical in self._handlers
            or canonical in self._remote
        )

    def _admit(self, pattern: str) -> str:
        """``pattern``'s canonical text, made live if no kind held it."""
        canonical = canonical_pattern(pattern)
        if self._is_live(canonical):
            return canonical
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
            node.pattern = canonical
        return canonical

    def _release(self, pattern: str) -> None:
        """Drop a pattern no kind holds any more, and every trie node it
        leaves childless."""
        if self._is_live(pattern):
            return
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
        path[-1].pattern = None
        for depth in range(len(segments), 0, -1):
            child = path[depth]
            if child.pattern is not None or child.children:
                break
            del path[depth - 1].children[segments[depth - 1]]

    @staticmethod
    def _key(pattern: str) -> str:
        """The stored spelling of ``pattern``: a tolerated leading ``/``
        stripped (a canonical pattern never starts with one)."""
        return pattern[1:] if pattern[:1] == "/" else pattern

    def _add(self, table: dict[str, set[str]], pattern: str, member: str) -> None:
        canonical = self._admit(pattern)
        held = table.get(canonical)
        if held is None:
            table[canonical] = {member}
        else:
            held.add(member)

    def _discard(self, table: dict[str, set[str]], pattern: str, member: str) -> bool:
        """Take ``member`` out of ``pattern``'s set; True if it was there."""
        key = self._key(pattern)
        held = table.get(key)
        if held is None or member not in held:
            return False
        held.discard(member)
        if not held:
            del table[key]
            self._release(key)
        return True

    # --------------------------------------------------------------- mutation

    def add_client(self, pattern: str, client_id: str) -> None:
        """Record a client subscription on ``pattern``."""
        self._add(self._clients, pattern, client_id)

    def remove_client(self, pattern: str, client_id: str) -> bool:
        """Remove one client subscription; True if it was present."""
        return self._discard(self._clients, pattern, client_id)

    def remove_client_everywhere(self, client_id: str) -> list[str]:
        """Drop every subscription of ``client_id``.

        Returns the (sorted) patterns that thereby lost their **last**
        local subscriber — exactly the set the broker must retract
        interest for when a client detaches or is terminated.
        """
        orphaned: list[str] = []
        for pattern in [p for p, held in self._clients.items() if client_id in held]:
            self._discard(self._clients, pattern, client_id)
            if not self.has_local(pattern):
                orphaned.append(pattern)
        return sorted(orphaned)

    def add_handler(self, pattern: str, handler: Callable) -> None:
        """Record a broker-local handler subscription on ``pattern``."""
        canonical = self._admit(pattern)
        self._handlers[canonical] = (*self._handlers.get(canonical, ()), handler)

    def remove_handler(self, pattern: str, handler: Callable) -> bool:
        """Remove one handler; True if it was present."""
        key = self._key(pattern)
        handlers = self._handlers.get(key, ())
        if handler not in handlers:
            return False
        at = handlers.index(handler)
        if len(handlers) > 1:
            self._handlers[key] = handlers[:at] + handlers[at + 1:]
        else:
            del self._handlers[key]
            self._release(key)
        return True

    def add_remote(self, pattern: str, broker_id: str) -> None:
        """Record a peer broker's interest in ``pattern``."""
        self._add(self._remote, pattern, broker_id)

    def remove_remote(self, pattern: str, broker_id: str) -> bool:
        """Retract one peer's interest, pruning the pattern if it dies."""
        return self._discard(self._remote, pattern, broker_id)

    # ---------------------------------------------------------------- queries

    def _candidates(self, topic: str) -> list[str]:
        """Patterns that may match the concrete ``topic``, sorted: the
        topic's own stored spelling (live or not) and every live wildcard
        pattern matching it.

        Wildcard patterns are found by one walk of the trie (literal
        child, ``*`` child and a terminal ``>`` child per level), so the
        cost is O(topic depth), not O(stored patterns).
        """
        found = [self._key(topic)]
        if not self._trie.children:
            return found
        segments = split_topic(topic)

        def collect(node: _TrieNode, index: int) -> None:
            many = node.children.get(WILDCARD_MANY)
            if many is not None and many.pattern is not None and index < len(segments):
                found.append(many.pattern)
            if index == len(segments):
                if node.pattern is not None:
                    found.append(node.pattern)
                return
            literal = node.children.get(segments[index])
            if literal is not None:
                collect(literal, index + 1)
            star = node.children.get(WILDCARD_ONE)
            if star is not None:
                collect(star, index + 1)

        collect(self._trie, 0)
        found.sort()
        return found

    def _matched(self, table: dict, topic: str) -> list[tuple[str, object]]:
        """``(pattern, held)`` for every pattern in ``table`` matching
        ``topic``, in sorted-pattern order.

        With no wildcard pattern live (the trie is empty) only the
        literal pattern equal to ``topic`` can match: one exact lookup,
        retried without a tolerated leading ``/``.
        """
        if not self._trie.children:
            held = table.get(topic)
            if held is None and topic[:1] == "/":
                topic = topic[1:]
                held = table.get(topic)
            return [] if held is None else [(topic, held)]
        return [
            (pattern, table[pattern])
            for pattern in self._candidates(topic)
            if pattern in table
        ]

    def match_patterns(self, topic: str) -> list[str]:
        """Sorted patterns matching ``topic`` (tests / introspection)."""
        return [pattern for pattern in self._candidates(topic) if self._is_live(pattern)]

    def match_clients(self, topic: str) -> list[tuple[str, list[str]]]:
        """``(pattern, sorted client ids)`` per matching pattern."""
        return [
            (pattern, sorted(held)) for pattern, held in self._matched(self._clients, topic)
        ]

    def match_handlers(self, topic: str) -> list[tuple[str, tuple[Callable, ...]]]:
        """``(pattern, handlers)`` per matching pattern, handlers in
        registration order; the tuple is immutable, so a handler may
        (un)subscribe while it is iterated."""
        return self._matched(self._handlers, topic)

    def match_remote(self, topic: str, exclude: str | None = None) -> set[str]:
        """Peer brokers with interest in ``topic``."""
        interested: set[str] = set()
        for _pattern, held in self._matched(self._remote, topic):
            interested |= held
        if exclude is not None:
            interested.discard(exclude)
        return interested

    def has_local_match(self, topic: str) -> bool:
        """Any local consumer (client or handler) for ``topic``?"""
        return bool(self._matched(self._clients, topic) or self._matched(self._handlers, topic))

    def has_any_match(self, topic: str, exclude_remote: str | None = None) -> bool:
        """Anyone at all — local or a (non-excluded) peer — for ``topic``?"""
        return self.has_local_match(topic) or bool(self.match_remote(topic, exclude_remote))

    # ----------------------------------------------------------- introspection

    def has_local(self, pattern: str) -> bool:
        """Does this exact pattern still have a local subscriber?"""
        key = self._key(pattern)
        return key in self._clients or key in self._handlers

    def handlers_for(self, pattern: str) -> list[Callable]:
        """Handlers registered on exactly ``pattern``, in registration
        order; the list is a copy."""
        return list(self._handlers.get(self._key(pattern), ()))

    def __len__(self) -> int:
        # every live pattern counts once, in the shard of its first segment
        return sum(self._shards.values())

    def __contains__(self, pattern: str) -> bool:
        return self._is_live(self._key(pattern))
