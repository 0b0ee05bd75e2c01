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

Cost model: the digest is a byte array its owner updates in place, so
announce / retract are O(1), a flush is O(changed brokers) with one
``digest_bits // 8``-byte copy each (8 KiB by default), and a probe is
O(topic depth) byte tests per peer, whatever the digest width or the
number of patterns behind it.

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
from repro.obs import Gauge
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


def _locate(bit: int) -> tuple[int, int]:
    """Where digest bit ``bit`` lives in the byte form: ``(index, mask)``."""
    return bit >> 3, 1 << (bit & 7)


def _byte_tests(key: str, modulus: int) -> tuple[int, int, int, int]:
    """``key``'s two digest bits as ``(index, mask, index, mask)`` byte tests."""
    b1, b2 = _digest_bits(key, modulus)
    return (*_locate(b1), *_locate(b2))


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

    Computing the blake2 positions once per topic, as ``(byte index,
    mask)`` pairs, lets a router test the same topic against every peer
    summary with two indexed byte tests per probe: O(topic depth) per
    peer, independent of the digest width.
    """

    __slots__ = ("topic", "exact_bits", "prefix_bits")

    def __init__(self, topic: str, modulus: int) -> None:
        segments = split_topic(topic)
        self.topic = "/".join(segments)
        self.exact_bits = _byte_tests(f"e:{self.topic}", modulus)
        # a wildcard pattern's literal prefix is always a *proper* prefix
        # of any topic it matches, so only proper prefixes are probed
        self.prefix_bits = tuple(
            _byte_tests("p:" + "/".join(segments[:depth]), modulus)
            for depth in range(1, len(segments))
        )


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
        #: ``digest_bits // 8`` bytes (bit layout: :func:`_locate`); empty
        #: while the hot set carries every pattern
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

    def matches(self, probe: TopicProbe) -> bool:
        """Could this broker have a subscriber for the probed topic?

        Exact for hot-set patterns; digest probes may return false
        positives, never false negatives.
        """
        for pattern in self.hot:
            if topic_matches(pattern, probe.topic):
                return True
        if self.match_all:
            return True
        digest = self.digest
        if digest:
            i1, m1, i2, m2 = probe.exact_bits
            if digest[i1] & m1 and digest[i2] & m2:
                return True
            for i1, m1, i2, m2 in probe.prefix_bits:
                if digest[i1] & m1 and digest[i2] & m2:
                    return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "exact" if self.exact else "digest"
        return (
            f"<InterestSummary {self.broker_id} v{self.version} {mode} "
            f"patterns={self.pattern_count}>"
        )


class _InterestAccumulator:
    """Mutable per-broker interest state behind the published summaries.

    Keeps a counting form of the digest (bit -> reference count) so
    retractions can clear bits exactly, and owns the digest bytes
    themselves: ``add`` / ``remove`` flip a bit in place exactly when its
    count crosses 0<->1 (O(1) per pattern), and :meth:`build_summary`
    snapshots them with one copy, never a per-bit rebuild.  A pattern's
    bits are a pure function of its text, so ``remove`` recomputes them
    rather than keeping them per pattern.
    """

    __slots__ = (
        "broker_id", "config", "modulus", "patterns", "bit_counts", "digest",
        "match_all_count",
    )

    def __init__(self, broker_id: str, config: FederationConfig) -> None:
        self.broker_id = broker_id
        self.config = config
        self.modulus = config.digest_bits
        self.patterns: set[str] = set()
        self.bit_counts: dict[int, int] = {}
        #: bit ``n`` is set iff ``n in bit_counts``
        self.digest = bytearray(config.digest_bits // 8)
        self.match_all_count = 0

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
        self.patterns.add(pattern)
        bits = self._bits(pattern)
        if not bits:
            self.match_all_count += 1
        counts = self.bit_counts
        for bit in bits:
            count = counts.get(bit, 0)
            if not count:
                self.digest[bit >> 3] |= 1 << (bit & 7)
            counts[bit] = count + 1
        return True

    def remove(self, pattern: str) -> bool:
        """Retract local interest; True if this changed the state."""
        if pattern not in self.patterns:
            return False
        self.patterns.remove(pattern)
        bits = self._bits(pattern)
        if not bits:
            self.match_all_count -= 1
        counts = self.bit_counts
        for bit in bits:
            remaining = counts[bit] - 1
            if remaining:
                counts[bit] = remaining
            else:
                del counts[bit]
                self.digest[bit >> 3] &= ~(1 << (bit & 7))
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
    """

    def __init__(
        self,
        monitor: Monitor | None = None,
        config: FederationConfig | None = None,
    ) -> None:
        self.monitor = monitor or Monitor()
        self.metrics = self.monitor.metrics
        self.config = (config or FederationConfig()).validated()
        self._accumulators: dict[str, _InterestAccumulator] = {}
        self._summaries: dict[str, InterestSummary] = {}
        self._dirty: set[str] = set()
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
        self._accumulators[broker_id] = _InterestAccumulator(
            broker_id, self.config
        )

    # ----------------------------------------------------------- announcements

    @cached_property
    def _patterns_gauge(self) -> Gauge:
        # held on first use (docs/OBSERVABILITY.md "Adding an instrument")
        return self.metrics.gauge("fed.interest.patterns")

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
                self.metrics.gauge("fed.summary.overflowed").inc()
            elif not was_exact and summary.exact:
                self.metrics.gauge("fed.summary.overflowed").dec()
            self._summaries[broker_id] = summary
            flushed += 1
            self.monitor.increment("control.floods")
            self.metrics.counter("fed.summary.updates").inc()
        self._dirty.clear()
        if flushed:
            self._match_memo.clear()
        return flushed

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
            self.metrics.counter("fed.match.memo.miss").inc()
            probe = self.probe(topic)
            cached = frozenset(
                broker_id
                for broker_id, summary in self._summaries.items()
                if summary.matches(probe)
            )
            if len(self._match_memo) >= _MATCH_MEMO_LIMIT:
                self._match_memo.clear()
            self._match_memo[topic] = cached
        else:
            self.metrics.counter("fed.match.memo.hit").inc()
        interested = set(cached)
        if exclude is not None:
            interested.discard(exclude)
        return interested

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
