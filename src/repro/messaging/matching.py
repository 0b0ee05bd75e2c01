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
costs one dict entry and its client set, or no more than its entry when
one handler holds it (the handler is stored bare): no per-pattern object
and no trie node.

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
is stored as the very string it arrived as, so the broker and this
index share one string per pattern (the federation plane keeps none).

Lifecycle correctness is part of the contract: every removal deletes
the key of a kind that became empty and prunes trie nodes nobody needs,
so a retracted pattern costs nothing on later messages.  The index also
says which patterns the broker announces to its peers: a pattern is
*announced* while it has a client subscriber or a handler not registered
as ``quiet`` (a ``Suppress``-constrained topic the broker alone
consumes).  Every client and handler add / remove reports whether it
flipped that, and :meth:`SubscriptionIndex.remove_client_everywhere`
lists the patterns it left unannounced, so the broker announces a pattern
once and retracts it once.

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
    ``_clients`` (pattern -> client ids), ``_handlers`` (pattern -> its
    only handler, or a tuple of two or more in registration order) and
    ``_remote`` (pattern -> peer broker ids); ``_quiet`` holds the
    handler patterns that are not announced.  A pattern is *live* while
    any of the three holds it; a kind that empties deletes its key, so no
    dict ever holds an empty set or tuple, and no tuple holds one handler.
    Wildcard patterns are also reachable through a trie whose root's
    children are first topic segments (including ``*`` and ``>``), so a
    match query descends into at most three of them — the topic's first
    segment, ``*`` and ``>``.  Trie segment strings are interned on
    insertion (:func:`sys.intern`); literal patterns are never split into
    segments at all.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._clients: dict[str, set[str]] = {}
        #: a pattern's only handler, bare, or a tuple of two or more in
        #: registration order; replaced, never mutated, so a matched
        #: tuple is safe to iterate while handlers (un)subscribe
        self._handlers: dict[str, Callable | tuple[Callable, ...]] = {}
        self._remote: dict[str, set[str]] = {}
        #: handler patterns registered ``quiet``: held, never announced
        self._quiet: set[str] = set()
        #: wildcard patterns only
        self._trie = _TrieNode()
        self._metrics = metrics

    # The gauge is resolved on first use and held (docs/OBSERVABILITY.md
    # "Adding an instrument"); only touched when the index has a registry.

    @cached_property
    def _patterns_gauge(self) -> Gauge:
        return self._metrics.gauge(PATTERNS_GAUGE)

    # ------------------------------------------------------------- liveness

    def _is_live(self, canonical: str) -> bool:
        return (
            canonical in self._clients
            or canonical in self._handlers
            or canonical in self._remote
        )

    def _admit(self, canonical: str) -> None:
        """Make live a canonical pattern no kind holds yet."""
        if self._metrics is not None:
            self._patterns_gauge.inc()
        segments = _wildcard_segments(canonical)
        if segments is not None:
            node = self._trie
            for segment in segments:
                node = node.children.setdefault(sys.intern(segment), _TrieNode())
            node.pattern = canonical

    def _release(self, pattern: str) -> None:
        """Drop a pattern no kind holds any more, and every trie node it
        leaves childless."""
        if self._is_live(pattern):
            return
        if self._metrics is not None:
            self._patterns_gauge.dec()
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

    # --------------------------------------------------------------- mutation

    def add_client(self, pattern: str, client_id: str) -> bool:
        """Record a client subscription on ``pattern``; True if that made
        the pattern announced."""
        canonical = canonical_pattern(pattern)
        held = self._clients.get(canonical)
        if held is not None:
            held.add(client_id)
            return False
        handled = canonical in self._handlers
        if not handled and canonical not in self._remote:
            self._admit(canonical)
        self._clients[canonical] = {client_id}
        return not handled or canonical in self._quiet

    def remove_client(self, pattern: str, client_id: str) -> bool:
        """Remove one client subscription; True if that left the pattern
        unannounced (an unknown subscription changes nothing)."""
        key = self._key(pattern)
        held = self._clients.get(key)
        if held is None or client_id not in held:
            return False
        held.discard(client_id)
        if held:
            return False
        del self._clients[key]
        if key in self._handlers:
            return key in self._quiet
        self._release(key)
        return True

    def remove_client_everywhere(self, client_id: str) -> list[str]:
        """Drop every subscription of ``client_id``.

        Returns the (sorted) patterns this left unannounced — exactly the
        set the broker must retract interest for when a client detaches or
        is terminated.
        """
        patterns = [p for p, held in self._clients.items() if client_id in held]
        return sorted(p for p in patterns if self.remove_client(p, client_id))

    def add_handler(self, pattern: str, handler: Callable, quiet: bool = False) -> bool:
        """Record a broker-local handler subscription on ``pattern``; True
        if that made the pattern announced.

        A ``quiet`` handler never announces its pattern; every handler of
        one pattern is registered with the same ``quiet``.
        """
        canonical = canonical_pattern(pattern)
        held = self._handlers.get(canonical)
        if held is not None:
            self._handlers[canonical] = (
                (*held, handler) if type(held) is tuple else (held, handler)
            )
            return False
        subscribed = canonical in self._clients
        if not subscribed and canonical not in self._remote:
            self._admit(canonical)
        self._handlers[canonical] = handler
        if quiet:
            self._quiet.add(canonical)
            return False
        return not subscribed

    def remove_handler(self, pattern: str, handler: Callable) -> bool:
        """Remove one handler; True if that left the pattern unannounced
        (an unknown handler changes nothing)."""
        key = self._key(pattern)
        held = self._handlers.get(key)
        if type(held) is tuple:
            if handler not in held:
                return False
            at = held.index(handler)
            rest = held[:at] + held[at + 1:]
            self._handlers[key] = rest if len(rest) > 1 else rest[0]
            return False
        if held is None or held != handler:
            return False
        del self._handlers[key]
        quiet = key in self._quiet
        self._quiet.discard(key)
        if key in self._clients:
            return False
        self._release(key)
        return not quiet

    def add_remote(self, pattern: str, broker_id: str) -> None:
        """Record a peer broker's interest in ``pattern``."""
        canonical = canonical_pattern(pattern)
        if not self._is_live(canonical):
            self._admit(canonical)
        self._remote.setdefault(canonical, set()).add(broker_id)

    def remove_remote(self, pattern: str, broker_id: str) -> bool:
        """Retract one peer's interest, pruning the pattern if it dies;
        True if it was present."""
        key = self._key(pattern)
        held = self._remote.get(key)
        if held is None or broker_id not in held:
            return False
        held.discard(broker_id)
        if not held:
            del self._remote[key]
            self._release(key)
        return True

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
        return [
            (pattern, held if type(held) is tuple else (held,))
            for pattern, held in self._matched(self._handlers, topic)
        ]

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

    def announced(self) -> list[str]:
        """Every announced pattern, in no particular order."""
        clients, quiet = self._clients, self._quiet
        return [
            *clients,
            *(p for p in self._handlers if p not in clients and p not in quiet),
        ]

    def handlers_for(self, pattern: str) -> list[Callable]:
        """Handlers registered on exactly ``pattern``, in registration
        order; the list is a copy."""
        held = self._handlers.get(self._key(pattern))
        if held is None:
            return []
        return list(held) if type(held) is tuple else [held]

    def __len__(self) -> int:
        # every live pattern counts once, whichever kinds hold it
        return len(self._clients.keys() | self._handlers.keys() | self._remote.keys())

    def __contains__(self, pattern: str) -> bool:
        return self._is_live(self._key(pattern))
