"""Federated interest exchange: summary-based broker-to-broker control plane.

The verbatim control plane (:class:`~repro.messaging.broker_network.
BrokerNetwork` flooding every subscription pattern to every broker, and
replaying the full interest table to late joiners) costs
O(patterns × brokers) messages and memory — fine for the paper's
three-broker chain, prohibitive for the 64-broker / 100k-entity fabrics
the scalability claim (§4) is about.  This module replaces it with
*interest summaries*:

* Each broker's local interest is folded into one
  :class:`InterestSummary` — a small **exact hot set** while the broker
  holds few patterns, and a fixed-size **bloom-style digest** (tagged
  double-hashed bits over full literal patterns and over the literal
  prefixes of wildcard patterns) once it overflows.  A summary is a few
  KB regardless of whether it stands for 10 patterns or 100 000.
* Summaries propagate in **epoch batches** (anti-entropy style): a
  subscription change only marks its owner dirty; the changed summary is
  broadcast — one ``control.floods`` message, not one per pattern — the
  next time any broker needs routing state.  A burst of N subscriptions
  followed by traffic costs one summary exchange, not N floods.
* Late joiners receive the current summary of each peer (one message per
  peer, counted by ``fed.summary.replays``) instead of a replay of every
  pattern ever announced.

Cost model: the digest is a byte array its owner updates in place when a
bit goes from no pattern to one or back, so announce / retract are O(1),
and a flush is O(changed brokers) with one ``digest_bits // 8``-byte copy
each (8 KiB by default).  To know when that is, the owner counts only the
bits two or more of its patterns share; a set bit it does not count has
exactly one, so the counts cost memory in proportion to the collisions,
not to the patterns.  The plane also
keeps the digests **bit-sliced**: one column per digest bit, holding one
bit ("lane") per broker, 64 brokers to a table.  A probe is one AND of
two columns per probe key (the topic and each of its proper prefixes) in
each table, so it costs the same for 2 brokers as for 64, whatever the
digest width or the number of patterns behind them; only brokers in
hot-set mode are still tested one by one.

Digest summaries can yield **false positives** — a broker may forward a
frame to a peer with no matching subscriber.  Routing stays correct
because delivery always re-checks the receiving broker's exact
:class:`~repro.messaging.matching.SubscriptionIndex`; the wasted frames
are counted by ``fed.forwards.false_positive`` (see
docs/OBSERVABILITY.md).  False *negatives* cannot happen: every pattern
is either in the hot set (matched exactly), digested (its full text, or
its literal prefix for wildcard patterns, is probed by every candidate
topic), or covered by the ``match_all`` escape for wildcard patterns
with no literal prefix.

The plane is deliberately centralized in simulation: brokers query it
directly and the counters model the control traffic a distributed
implementation would pay, the same convention the verbatim control plane
already used ("brokers exchange subscription state continuously, off the
critical path of trace routing").
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from hashlib import blake2b
from typing import Iterator

from repro.errors import ConfigurationError
from repro.messaging.topics import (
    WILDCARD_MANY,
    WILDCARD_ONE,
    split_topic,
    topic_matches,
)
from repro.obs import Counter, Gauge
from repro.sim.monitor import Monitor

#: Patterns a broker may hold before its summary switches from the exact
#: hot set to the digest form.  Small deployments (every committed seed
#: scenario) stay exact, so federated routing is bit-identical to
#: verbatim flooding there; the digest only engages at scale.
DEFAULT_HOT_SET_LIMIT = 64

#: Digest width in bits.  8 KiB per summary keeps the false-positive rate
#: for ~1.5k patterns/broker (the 64-broker / 100k-entity point) around
#: 0.2% while remaining ~10x smaller than the verbatim pattern list.
DEFAULT_DIGEST_BITS = 1 << 16

#: Bound on the per-topic match memo before it is reset wholesale.
_MATCH_MEMO_LIMIT = 1 << 16


@dataclass(frozen=True, slots=True)
class FederationConfig:
    """Tuning knobs for the federated interest plane."""

    hot_set_limit: int = DEFAULT_HOT_SET_LIMIT
    digest_bits: int = DEFAULT_DIGEST_BITS

    def validated(self) -> "FederationConfig":
        """Self-check; raises :class:`ConfigurationError` on bad values."""
        if self.hot_set_limit < 1:
            raise ConfigurationError(
                f"hot_set_limit must be >= 1, got {self.hot_set_limit}"
            )
        if self.digest_bits < 1024 or self.digest_bits & (self.digest_bits - 1):
            raise ConfigurationError(
                f"digest_bits must be a power of two >= 1024, got {self.digest_bits}"
            )
        return self


def _digest_bits(key: str, modulus: int) -> tuple[int, int]:
    """Two digest bit positions for ``key`` (classic double hashing)."""
    raw = blake2b(key.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(raw, "big")
    return (value >> 32) % modulus, value % modulus


#: Brokers per lane table: one column entry is an unsigned 64-bit word.
_LANES = 64


def _literal_prefix(segments: list[str]) -> str:
    """The '/'-joined literal run before the first wildcard segment."""
    literal: list[str] = []
    for segment in segments:
        if segment in (WILDCARD_ONE, WILDCARD_MANY):
            break
        literal.append(segment)
    return "/".join(literal)


def pattern_digest_keys(pattern: str) -> tuple[str, ...]:
    """The tagged digest keys summarizing one canonical pattern.

    Literal patterns digest their full text (an exact-match probe);
    wildcard patterns digest their literal prefix (a prefix probe —
    every topic they match starts with it).  Wildcard patterns with no
    literal prefix produce no keys; they force ``match_all`` instead.
    """
    if "*" not in pattern and ">" not in pattern:
        # no wildcard segment is possible: skip the split
        return (f"e:{pattern}",)
    segments = split_topic(pattern)
    if not any(s in (WILDCARD_ONE, WILDCARD_MANY) for s in segments):
        return (f"e:{pattern}",)
    prefix = _literal_prefix(segments)
    if not prefix:
        return ()
    return (f"p:{prefix}",)


class TopicProbe:
    """Pre-hashed digest probes for one concrete topic.

    The blake2 positions are computed once per topic, as ``(bit, bit)``
    pairs: the topic's full text first, then each proper prefix (a
    wildcard pattern's literal prefix is always a *proper* prefix of any
    topic it matches).  A broker's digest may hold the topic iff both
    bits of some pair are set in it.
    """

    __slots__ = ("topic", "pairs")

    def __init__(self, topic: str, modulus: int) -> None:
        segments = split_topic(topic)
        self.topic = "/".join(segments)
        self.pairs = (_digest_bits(f"e:{self.topic}", modulus),) + tuple(
            _digest_bits("p:" + "/".join(segments[:depth]), modulus)
            for depth in range(1, len(segments))
        )


class _LaneTable:
    """The bit-sliced digests of up to :data:`_LANES` brokers.

    ``columns[bit]`` has lane ``i`` set while bit ``bit`` is set in the
    live digest of the table's ``i``-th broker; the lane masks say which
    brokers' *flushed* summaries are in digest mode and which are
    ``match_all``.
    """

    __slots__ = ("columns", "ids", "digest_lanes", "match_all_lanes")

    def __init__(self, digest_bits: int) -> None:
        self.columns = array("Q", bytes(8 * digest_bits))
        self.ids: list[str] = []
        self.digest_lanes = 0
        self.match_all_lanes = 0


class InterestSummary:
    """One broker's aggregated interest, as exchanged with its peers."""

    __slots__ = ("broker_id", "version", "hot", "digest", "match_all", "pattern_count")

    def __init__(
        self,
        broker_id: str,
        version: int,
        hot: tuple[str, ...],
        digest: bytes,
        match_all: bool,
        pattern_count: int,
    ) -> None:
        self.broker_id = broker_id
        self.version = version
        self.hot = hot
        #: ``digest_bits // 8`` bytes, bit ``n`` at ``digest[n >> 3] & 1 <<
        #: (n & 7)``; empty while the hot set carries every pattern
        self.digest = digest
        self.match_all = match_all
        self.pattern_count = pattern_count

    @property
    def exact(self) -> bool:
        """True while every pattern is carried verbatim in the hot set."""
        return not self.digest and not self.match_all

    def same_content(self, other: "InterestSummary | None") -> bool:
        """Equality modulo version — the test for 'worth re-broadcasting'."""
        return (
            other is not None
            and self.hot == other.hot
            and self.digest == other.digest
            and self.match_all == other.match_all
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "exact" if self.exact else "digest"
        return (
            f"<InterestSummary {self.broker_id} v{self.version} {mode} "
            f"patterns={self.pattern_count}>"
        )


class _InterestAccumulator:
    """Mutable per-broker interest state behind the published summaries.

    Counts how many patterns set each digest bit, so retractions can
    clear bits exactly, in the implicit-count form of a counting bloom
    filter: the digest bytes themselves say which bits have a count of
    at least 1, and ``bit_counts`` holds only the bits two or more
    patterns share (a few percent of the set bits at scale).  ``add`` /
    ``remove`` flip a bit in place exactly when its count crosses 0<->1
    (O(1) per pattern), and :meth:`build_summary` snapshots the bytes
    with one copy, never a per-bit rebuild.  The same crossings set and
    clear the broker's lane in its table's columns.  A pattern's bits
    are a pure function of its text, so ``remove`` recomputes them
    rather than keeping them per pattern.
    """

    __slots__ = (
        "broker_id", "config", "modulus", "patterns", "bit_counts", "digest",
        "match_all_count", "table", "lane",
    )

    def __init__(
        self, broker_id: str, config: FederationConfig, table: _LaneTable, lane: int
    ) -> None:
        self.broker_id = broker_id
        self.config = config
        self.modulus = config.digest_bits
        #: the announced patterns, in announcement order (a dict's table
        #: is smaller than a set's)
        self.patterns: dict[str, None] = {}
        #: bit -> count, for the bits of count >= 2 only; a bit set in
        #: ``digest`` and absent here has count 1
        self.bit_counts: dict[int, int] = {}
        #: bit ``n`` is set iff at least one pattern sets it
        self.digest = bytearray(config.digest_bits // 8)
        self.match_all_count = 0
        self.table = table
        #: this broker's bit in every column of ``table``
        self.lane = lane

    def _bits(self, pattern: str) -> tuple[int, ...]:
        """The digest bits of ``pattern``; none for a match-all wildcard."""
        if "*" not in pattern and ">" not in pattern:
            # a literal's one key, as pattern_digest_keys gives it
            return _digest_bits("e:" + pattern, self.modulus)
        bits: tuple[int, ...] = ()
        for key in pattern_digest_keys(pattern):
            bits += _digest_bits(key, self.modulus)
        return bits

    def add(self, pattern: str) -> bool:
        """Record local interest; True if this changed the state."""
        if pattern in self.patterns:
            return False
        self.patterns[pattern] = None
        bits = self._bits(pattern)
        if not bits:
            self.match_all_count += 1
        counts, digest = self.bit_counts, self.digest
        for bit in bits:
            mask = 1 << (bit & 7)
            if digest[bit >> 3] & mask:
                counts[bit] = counts.get(bit, 1) + 1
            else:
                digest[bit >> 3] |= mask
                self.table.columns[bit] |= self.lane
        return True

    def remove(self, pattern: str) -> bool:
        """Retract local interest; True if this changed the state."""
        if pattern not in self.patterns:
            return False
        del self.patterns[pattern]
        bits = self._bits(pattern)
        if not bits:
            self.match_all_count -= 1
        counts = self.bit_counts
        for bit in bits:
            count = counts.get(bit, 1)
            if count > 2:
                counts[bit] = count - 1
            elif count == 2:
                del counts[bit]
            else:
                self.digest[bit >> 3] &= ~(1 << (bit & 7))
                self.table.columns[bit] &= ~self.lane
        return True

    @property
    def overflowed(self) -> bool:
        return len(self.patterns) > self.config.hot_set_limit

    def build_summary(self, version: int) -> InterestSummary:
        if not self.overflowed:
            return InterestSummary(
                broker_id=self.broker_id,
                version=version,
                hot=tuple(sorted(self.patterns)),
                digest=b"",
                match_all=False,
                pattern_count=len(self.patterns),
            )
        return InterestSummary(
            broker_id=self.broker_id,
            version=version,
            hot=(),
            digest=bytes(self.digest),
            match_all=self.match_all_count > 0,
            pattern_count=len(self.patterns),
        )


class FederatedInterestPlane:
    """The summarized control plane a federated :class:`BrokerNetwork` runs.

    Owns one :class:`_InterestAccumulator` per broker plus the flushed
    (broadcast) summaries, and answers the router's "which peers want
    this topic?" query.  Announcements and retractions only dirty their
    owner; :meth:`flush` batches the re-broadcasts into the next routing
    epoch, which is what keeps control traffic sub-linear in the pattern
    count (see module docstring).

    The query reads the brokers' digests bit-sliced, one
    :class:`_LaneTable` per 64 brokers in registration order.  The
    columns follow the live digests, which equal the flushed ones after a
    flush, and every reader flushes first.
    """

    def __init__(
        self,
        monitor: Monitor,
        config: FederationConfig | None = None,
    ) -> None:
        self.monitor = monitor
        self.metrics = monitor.metrics
        self.config = (config or FederationConfig()).validated()
        self._accumulators: dict[str, _InterestAccumulator] = {}
        self._summaries: dict[str, InterestSummary] = {}
        self._dirty: set[str] = set()
        self._tables: list[_LaneTable] = []
        #: broker -> hot set, for the flushed summaries that are exact and
        #: non-empty: the brokers a query still tests one by one
        self._hot_sets: dict[str, tuple[str, ...]] = {}
        #: topic -> frozenset of interested brokers; reset on any summary
        #: change, so hits are only served between control-plane changes
        self._match_memo: dict[str, frozenset[str]] = {}
        self._probe_cache: dict[str, TopicProbe] = {}

    # ------------------------------------------------------------- membership

    def register_broker(self, broker_id: str) -> None:
        """Add a broker to the plane, replaying peer summaries to it.

        The late-joiner cost is one summary per established peer —
        counted by ``fed.summary.replays`` — instead of the verbatim
        plane's one message per (pattern, owner) pair.
        """
        if broker_id in self._accumulators:
            return
        self.flush()
        replayed = sum(
            1
            for summary in self._summaries.values()
            if summary.pattern_count > 0
        )
        if replayed:
            self.metrics.counter("fed.summary.replays").inc(replayed)
        index = len(self._accumulators)
        if index % _LANES == 0:
            self._tables.append(_LaneTable(self.config.digest_bits))
        table = self._tables[-1]
        table.ids.append(broker_id)
        self._accumulators[broker_id] = _InterestAccumulator(
            broker_id, self.config, table, 1 << (index % _LANES)
        )

    # ----------------------------------------------------------- announcements

    # Instruments held on first use (docs/OBSERVABILITY.md "Adding an
    # instrument"), never in ``__init__``.

    @cached_property
    def _patterns_gauge(self) -> Gauge:
        return self.metrics.gauge("fed.interest.patterns")

    @cached_property
    def _overflowed_gauge(self) -> Gauge:
        return self.metrics.gauge("fed.summary.overflowed")

    @cached_property
    def _summary_updates(self) -> Counter:
        return self.metrics.counter("fed.summary.updates")

    @cached_property
    def _memo_hit(self) -> Counter:
        return self.metrics.counter("fed.match.memo.hit")

    @cached_property
    def _memo_miss(self) -> Counter:
        return self.metrics.counter("fed.match.memo.miss")

    def announce(self, pattern: str, broker_id: str) -> None:
        """Record that ``broker_id`` gained local interest in ``pattern``."""
        accumulator = self._accumulator(broker_id)
        if accumulator.add(pattern):
            self._patterns_gauge.inc()
            self._dirty.add(broker_id)

    def retract(self, pattern: str, broker_id: str) -> bool:
        """Record that ``broker_id`` lost its last local subscriber.

        True if ``pattern`` had been announced for ``broker_id`` (and is
        now retracted); False, changing nothing, if it never was.
        """
        accumulator = self._accumulator(broker_id)
        if not accumulator.remove(pattern):
            return False
        self._patterns_gauge.dec()
        self._dirty.add(broker_id)
        return True

    def _accumulator(self, broker_id: str) -> _InterestAccumulator:
        accumulator = self._accumulators.get(broker_id)
        if accumulator is None:
            raise ConfigurationError(
                f"broker {broker_id!r} is not registered with the federation plane"
            )
        return accumulator

    # ----------------------------------------------------------------- queries

    def flush(self) -> int:
        """Broadcast every dirty summary whose content actually changed.

        Returns the number of summaries broadcast.  Each broadcast counts
        one ``control.floods`` message — the epoch-batched exchange that
        replaces per-pattern flooding.
        """
        if not self._dirty:
            return 0
        flushed = 0
        for broker_id in sorted(self._dirty):
            accumulator = self._accumulators[broker_id]
            previous = self._summaries.get(broker_id)
            version = (previous.version + 1) if previous is not None else 1
            summary = accumulator.build_summary(version)
            if summary.same_content(previous):
                continue
            was_exact = previous is None or previous.exact
            if was_exact and not summary.exact:
                self._overflowed_gauge.inc()
            elif not was_exact and summary.exact:
                self._overflowed_gauge.dec()
            self._summaries[broker_id] = summary
            self._index_mode(accumulator, summary)
            flushed += 1
            self.monitor.increment("control.floods")
            self._summary_updates.inc()
        self._dirty.clear()
        if flushed:
            self._match_memo.clear()
        return flushed

    def _index_mode(
        self, accumulator: _InterestAccumulator, summary: InterestSummary
    ) -> None:
        """File a newly flushed summary under the mode a query reads it in."""
        table, lane = accumulator.table, accumulator.lane
        table.digest_lanes &= ~lane
        table.match_all_lanes &= ~lane
        self._hot_sets.pop(summary.broker_id, None)
        if summary.hot:
            self._hot_sets[summary.broker_id] = summary.hot
        elif not summary.exact:
            table.digest_lanes |= lane
            if summary.match_all:
                table.match_all_lanes |= lane

    def probe(self, topic: str) -> TopicProbe:
        """The (cached) digest probe for a concrete topic."""
        probe = self._probe_cache.get(topic)
        if probe is None:
            if len(self._probe_cache) >= _MATCH_MEMO_LIMIT:
                self._probe_cache.clear()
            probe = TopicProbe(topic, self.config.digest_bits)
            self._probe_cache[topic] = probe
        return probe

    def interested(self, topic: str, exclude: str | None = None) -> set[str]:
        """Brokers whose summary matches ``topic`` (maybe false positives)."""
        self.flush()
        cached = self._match_memo.get(topic)
        if cached is None:
            self._memo_miss.inc()
            cached = self._match(self.probe(topic))
            if len(self._match_memo) >= _MATCH_MEMO_LIMIT:
                self._match_memo.clear()
            self._match_memo[topic] = cached
        else:
            self._memo_hit.inc()
        interested = set(cached)
        if exclude is not None:
            interested.discard(exclude)
        return interested

    def _match(self, probe: TopicProbe) -> frozenset[str]:
        """Every broker whose flushed summary matches the probed topic.

        A digest broker matches when both bits of some probe pair are set
        in its digest, a ``match_all`` broker always does, and an exact
        broker when a hot-set pattern matches the topic.
        """
        found: list[str] = []
        pairs = probe.pairs
        for table in self._tables:
            columns = table.columns
            hits = 0
            for b1, b2 in pairs:
                hits |= columns[b1] & columns[b2]
            hits = hits & table.digest_lanes | table.match_all_lanes
            ids = table.ids
            while hits:
                low = hits & -hits
                found.append(ids[low.bit_length() - 1])
                hits ^= low
        topic = probe.topic
        for broker_id, hot in self._hot_sets.items():
            for pattern in hot:
                if topic_matches(pattern, topic):
                    found.append(broker_id)
                    break
        return frozenset(found)

    def has_interest(self, topic: str, exclude: str | None = None) -> bool:
        """Any (non-excluded) broker that might want ``topic``?"""
        return bool(self.interested(topic, exclude=exclude))

    def is_exact(self, broker_id: str) -> bool:
        """Is this broker's *flushed* summary currently free of digests?

        The receiving broker uses this to classify a frame that matched
        no local subscription: under an exact summary that can only be
        stale interest (the legacy bug class); under a digest summary it
        is an expected false positive.
        """
        self.flush()
        summary = self._summaries.get(broker_id)
        return summary is None or summary.exact

    def iter_summaries(self) -> Iterator[InterestSummary]:
        """Flush pending changes, then yield every broker summary."""
        self.flush()
        for broker_id in sorted(self._summaries):
            yield self._summaries[broker_id]
