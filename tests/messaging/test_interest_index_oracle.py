"""The federated plane's interest state against the forms it replaced.

``FederatedInterestPlane.interested`` answers from per-bit broker columns
(one lane per broker, 64 lanes per table).  The first reference below is
the scan it replaced: ``InterestSummary.matches`` and the byte-test probe
it read, kept as they were, tested against every flushed summary in turn.
Every answer must equal the scan's exactly — the same brokers, the same
digest false positives, the same exclusion — whatever the schedule of
registrations, announcements, retractions and flushes.

The second is the count oracle: ``_InterestAccumulator`` counts only the
digest bits two or more patterns share, and the reference accumulator
counts every set bit, as the plane did before.  Both must hold the same
digest bytes, lane columns and per-bit counts after every step.
"""

import itertools

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.bench.scale import run_scale_point
from repro.messaging.federation import (
    FederatedInterestPlane,
    FederationConfig,
    InterestSummary,
    _digest_bits,
    _LaneTable,
    pattern_digest_keys,
)
from repro.messaging.topics import split_topic, topic_matches
from repro.sim.monitor import Monitor
from tests.support import BrokerViews

# --------------------------------------------------------------- the reference


def _locate(bit):
    """Where digest bit ``bit`` lives in the byte form: ``(index, mask)``."""
    return bit >> 3, 1 << (bit & 7)


def _byte_tests(key, modulus):
    """``key``'s two digest bits as ``(index, mask, index, mask)`` byte tests."""
    b1, b2 = _digest_bits(key, modulus)
    return (*_locate(b1), *_locate(b2))


class ScanProbe:
    """The per-summary scan's probe: ``(byte index, mask)`` tests."""

    def __init__(self, topic, modulus):
        segments = split_topic(topic)
        self.topic = "/".join(segments)
        self.exact_bits = _byte_tests(f"e:{self.topic}", modulus)
        self.prefix_bits = tuple(
            _byte_tests("p:" + "/".join(segments[:depth]), modulus)
            for depth in range(1, len(segments))
        )


def reference_matches(summary, probe):
    """``InterestSummary.matches`` as the scan ran it, ``self`` renamed."""
    for pattern in summary.hot:
        if topic_matches(pattern, probe.topic):
            return True
    if summary.match_all:
        return True
    digest = summary.digest
    if digest:
        i1, m1, i2, m2 = probe.exact_bits
        if digest[i1] & m1 and digest[i2] & m2:
            return True
        for i1, m1, i2, m2 in probe.prefix_bits:
            if digest[i1] & m1 and digest[i2] & m2:
                return True
    return False


def reference_interested(plane, topic, exclude=None):
    """The scan: every flushed summary tested one after another."""
    plane.flush()
    probe = ScanProbe(topic, plane.config.digest_bits)
    found = {b for b, s in plane._summaries.items() if reference_matches(s, probe)}
    return found - {exclude}


# ------------------------------------------------------------ the state machine

MAX_BROKERS = 70  # past 64: a second lane table
SEGMENTS = ("a", "b")
literals = st.lists(st.sampled_from(SEGMENTS), min_size=1, max_size=3).map("/".join)
ORACLE_PATTERNS = st.one_of(
    literals,
    st.just(">"),
    st.sampled_from(("a/*", "a/>", "*/b", "a/*/b", "b/>", "*/*", "b/a/*")),
)
#: every literal the patterns can name, runs of "n/<i>" and two strays
ORACLE_TOPICS = tuple(
    "/".join(segments)
    for depth in (1, 2, 3)
    for segments in itertools.product(SEGMENTS, repeat=depth)
) + ("n/0", "n/99", "n/150", "n/250", "n/7/x", "q")
# few brokers, so that one gets several changes, two of them in the second
# table once it exists (slots wrap while fewer are registered)
broker_slots = st.sampled_from((0, 1, 63, 64, 69))
# runs of literal patterns "n/<i>"; the longest fill a 1024-bit digest,
# and a retracted run often undoes an announced one
bulk_firsts = st.sampled_from((0, 100, 200))
bulk_counts = st.sampled_from((3, 100, 300))


def assert_agrees(plane, exclude=None):
    """Every oracle topic gets the scan's answer from the plane."""
    for topic in ORACLE_TOPICS:
        got = plane.interested(topic, exclude=exclude)
        assert got == reference_interested(plane, topic, exclude), topic


class InterestIndexMachine(RuleBasedStateMachine):
    """Random plane schedules; every query is compared with the scan.

    ``digest_bits`` is the smallest width allowed, so bits collide and
    bulk announcements make digest false positives common.
    """

    @initialize(
        hot_set_limit=st.sampled_from((1, 4)),
        count=st.integers(1, MAX_BROKERS),
        loads=st.lists(st.tuples(broker_slots, bulk_firsts, bulk_counts), max_size=4),
    )
    def start(self, hot_set_limit, count, loads):
        self.plane = FederatedInterestPlane(
            monitor=Monitor(),
            config=FederationConfig(hot_set_limit=hot_set_limit, digest_bits=1024),
        )
        # only the steps a broker takes reach the plane
        self.views = BrokerViews(self.plane)
        self.brokers = []
        self.register(count)
        for slot, first, count in loads:
            self.announce_bulk(slot, first, count)

    def broker(self, slot):
        return self.brokers[slot % len(self.brokers)]

    @precondition(lambda self: len(self.brokers) < MAX_BROKERS)
    @rule(count=st.integers(1, MAX_BROKERS))
    def register(self, count):
        for _ in range(min(count, MAX_BROKERS - len(self.brokers))):
            broker_id = f"b{len(self.brokers):02d}"
            self.views.register(broker_id)
            self.brokers.append(broker_id)

    @rule(slot=broker_slots, pattern=ORACLE_PATTERNS)
    def announce(self, slot, pattern):
        self.views.announce(pattern, self.broker(slot))

    @rule(slot=broker_slots, first=bulk_firsts, count=bulk_counts)
    def announce_bulk(self, slot, first, count):
        for i in range(first, first + count):
            self.views.announce(f"n/{i}", self.broker(slot))

    @rule(slot=broker_slots, pattern=ORACLE_PATTERNS)
    def retract(self, slot, pattern):
        self.views.retract(pattern, self.broker(slot))

    @rule(slot=broker_slots, data=st.data())
    def retract_held(self, slot, data):
        """Retract a pattern the broker holds, outside the runs, so that
        summaries often lose ``match_all`` or go back to hot-set mode."""
        broker_id = self.broker(slot)
        held = sorted(p for p in self.views.announced[broker_id] if not p.startswith("n/"))
        if held:
            self.views.retract(data.draw(st.sampled_from(held)), broker_id)

    @rule(slot=broker_slots, first=bulk_firsts, count=bulk_counts)
    def retract_bulk(self, slot, first, count):
        for i in range(first, first + count):
            self.views.retract(f"n/{i}", self.broker(slot))

    @rule()
    def flush(self):
        self.plane.flush()

    @rule(exclude=st.one_of(st.none(), broker_slots))
    def query(self, exclude):
        assert_agrees(self.plane, None if exclude is None else self.broker(exclude))


TestInterestIndexMachine = InterestIndexMachine.TestCase
TestInterestIndexMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)


@pytest.mark.deep
class TestInterestIndexMachineDeep(InterestIndexMachine.TestCase):
    settings = settings(max_examples=400, stateful_step_count=50, deadline=None)


# ------------------------------------------------------------ the count oracle


class ReferenceAccumulator:
    """The full-count accumulator: every set digest bit has a count."""

    def __init__(self, config, table, lane):
        self.config = config
        self.modulus = config.digest_bits
        self.patterns = set()
        self.bit_counts = {}  # bit n is set iff n in bit_counts
        self.digest = bytearray(config.digest_bits // 8)
        self.match_all_count = 0
        self.table = table
        self.lane = lane

    def _bits(self, pattern):
        bits = ()
        for key in pattern_digest_keys(pattern):
            bits += _digest_bits(key, self.modulus)
        return bits

    def add(self, pattern):
        self.patterns.add(pattern)
        bits = self._bits(pattern)
        if not bits:
            self.match_all_count += 1
        for bit in bits:
            count = self.bit_counts.get(bit, 0)
            if not count:
                self.digest[bit >> 3] |= 1 << (bit & 7)
                self.table.columns[bit] |= self.lane
            self.bit_counts[bit] = count + 1

    def remove(self, pattern):
        self.patterns.remove(pattern)
        bits = self._bits(pattern)
        if not bits:
            self.match_all_count -= 1
        for bit in bits:
            remaining = self.bit_counts[bit] - 1
            if remaining:
                self.bit_counts[bit] = remaining
            else:
                del self.bit_counts[bit]
                self.digest[bit >> 3] &= ~(1 << (bit & 7))
                self.table.columns[bit] &= ~self.lane

    def build_summary(self):
        overflowed = len(self.patterns) > self.config.hot_set_limit
        return InterestSummary(
            broker_id="",
            hot=() if overflowed else tuple(sorted(self.patterns)),
            digest=bytes(self.digest) if overflowed else b"",
            match_all=overflowed and self.match_all_count > 0,
            pattern_count=len(self.patterns),
        )


def implied_counts(accumulator):
    """bit -> count for every set digest bit, absent counts read as 1."""
    digest = accumulator.digest
    return {
        bit: accumulator.bit_counts.get(bit, 1)
        for bit in range(8 * len(digest))
        if digest[bit >> 3] & 1 << (bit & 7)
    }


def summary_content(summary):
    return (summary.hot, summary.digest, summary.match_all, summary.pattern_count)


COUNT_BROKERS = ("b1", "b2", "b3")
#: a/*, a/> and a/*/c share the key "p:a"; > and */b have none; the two
#: digest bits of "s/4353" and of "a/1578" coincide at 1024 bits
COUNT_PATTERNS = st.one_of(
    literals,
    st.sampled_from(
        ("a/*", "a/>", "a/*/c", ">", "*/b", "b/a/*", "s/4353", "a/1578")
    ),
)


class CountOracleMachine(RuleBasedStateMachine):
    """Random announce / retract / flush schedules on three brokers,
    mirrored on reference accumulators that share one lane table.  Only
    the steps a broker takes are drawn: a pattern's first announce and
    the retract of an announced one.

    At ``digest_bits=1024`` a run of 300 literals sets some bits three
    times or more, so counts cross 2<->3 as well as 1<->2 and 0<->1.
    """

    @initialize(hot_set_limit=st.sampled_from((1, 4)))
    def start(self, hot_set_limit):
        config = FederationConfig(hot_set_limit=hot_set_limit, digest_bits=1024)
        self.plane = FederatedInterestPlane(monitor=Monitor(), config=config)
        self.views = BrokerViews(self.plane)
        self.table = _LaneTable(config.digest_bits)
        self.references = {}
        for index, broker_id in enumerate(COUNT_BROKERS):
            self.views.register(broker_id)
            self.references[broker_id] = ReferenceAccumulator(
                config, self.table, 1 << index
            )

    def _announce(self, broker_id, pattern):
        if self.views.announce(pattern, broker_id):
            self.references[broker_id].add(pattern)

    def _retract(self, broker_id, pattern):
        if self.views.retract(pattern, broker_id):
            self.references[broker_id].remove(pattern)

    @rule(broker_id=st.sampled_from(COUNT_BROKERS), pattern=COUNT_PATTERNS)
    def announce(self, broker_id, pattern):
        self._announce(broker_id, pattern)

    @rule(
        broker_id=st.sampled_from(COUNT_BROKERS), first=bulk_firsts, count=bulk_counts
    )
    def announce_bulk(self, broker_id, first, count):
        for i in range(first, first + count):
            self._announce(broker_id, f"n/{i}")

    @rule(broker_id=st.sampled_from(COUNT_BROKERS), pattern=COUNT_PATTERNS)
    def retract(self, broker_id, pattern):
        self._retract(broker_id, pattern)

    @rule(
        broker_id=st.sampled_from(COUNT_BROKERS), first=bulk_firsts, count=bulk_counts
    )
    def retract_bulk(self, broker_id, first, count):
        for i in range(first, first + count):
            self._retract(broker_id, f"n/{i}")

    @rule()
    def flush(self):
        self.plane.flush()
        for broker_id, reference in self.references.items():
            summary = self.plane._accumulators[broker_id].build_summary()
            assert summary_content(summary) == summary_content(reference.build_summary())

    @invariant()
    def same_state(self):
        (table,) = self.plane._tables
        assert table.columns == self.table.columns
        for broker_id, reference in self.references.items():
            accumulator = self.plane._accumulators[broker_id]
            assert accumulator.count == len(reference.patterns)
            assert accumulator.match_all_count == reference.match_all_count
            assert accumulator.digest == reference.digest
            assert implied_counts(accumulator) == reference.bit_counts
            # only the shared bits are counted
            assert all(count >= 2 for count in accumulator.bit_counts.values())


TestCountOracleMachine = CountOracleMachine.TestCase
TestCountOracleMachine.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)


@pytest.mark.deep
class TestCountOracleMachineDeep(CountOracleMachine.TestCase):
    settings = settings(max_examples=300, stateful_step_count=40, deadline=None)


def test_a_literal_whose_two_bits_coincide_counts_that_bit_twice():
    plane, views = small_plane("b1")
    accumulator = plane._accumulators["b1"]
    (bit, same) = _digest_bits("e:s/4353", 1024)
    assert bit == same
    views.announce("s/4353", "b1")
    assert accumulator.bit_counts == {bit: 2}
    assert plane._tables[0].columns[bit] == 1
    views.retract("s/4353", "b1")
    assert accumulator.bit_counts == {} and not any(accumulator.digest)
    assert plane._tables[0].columns[bit] == 0


# ------------------------------------------------------- summary mode changes


def small_plane(*brokers):
    plane = FederatedInterestPlane(
        monitor=Monitor(), config=FederationConfig(hot_set_limit=1, digest_bits=1024)
    )
    views = BrokerViews(plane)
    for broker_id in brokers:
        views.register(broker_id)
    return plane, views


def test_a_summary_back_in_hot_set_mode_leaves_the_columns_unread():
    """Its live digest still holds "a/*"'s prefix key, which "a/b/a" probes."""
    plane, views = small_plane("b1", "b2")
    views.announce("a/*", "b1")
    views.announce("n/1", "b1")
    assert_agrees(plane)
    views.retract("n/1", "b1")
    assert plane.is_exact("b1")
    assert plane.interested("a/b/a") == set()
    assert plane.interested("a/b") == {"b1"}
    assert_agrees(plane)


def test_a_summary_in_digest_mode_is_not_read_by_its_old_hot_set():
    plane, views = small_plane("b1", "b2")
    views.announce("a/b", "b1")
    assert_agrees(plane)
    for pattern in ("n/1", "n/2"):
        views.announce(pattern, "b1")
    views.retract("a/b", "b1")
    assert not plane.is_exact("b1")
    assert plane.interested("a/b") == reference_interested(plane, "a/b") == set()
    assert_agrees(plane)


def test_a_summary_that_loses_match_all_leaves_that_lane():
    plane, views = small_plane("b1", "b2")
    for pattern in (">", "n/1"):
        views.announce(pattern, "b1")
    assert plane.interested("q") == {"b1"}
    views.retract(">", "b1")
    views.announce("n/2", "b1")
    assert plane.interested("q") == set()
    assert_agrees(plane)


# ------------------------------------------------------------ the live router


def test_a_72_broker_fabric_routes_as_the_scan_does(monkeypatch):
    """Past 64 brokers the live router reads two lane tables; with every
    hot set overflowed, its snapshot equals the scan's."""
    brokers, entities, events = 72, 72 * 65, 120
    answers = []
    match = FederatedInterestPlane._match

    def recorded(self, probe):
        found = match(self, probe)
        answers.append(found)
        return found

    monkeypatch.setattr(FederatedInterestPlane, "_match", recorded)
    indexed = run_scale_point(brokers=brokers, entities=entities, events=events)
    monkeypatch.undo()

    monkeypatch.setattr(FederatedInterestPlane, "interested", reference_interested)
    scanned = run_scale_point(brokers=brokers, entities=entities, events=events)

    assert indexed["digest_summaries"] == brokers
    assert indexed["received"] == events
    # some publishes were routed to brokers in the second table
    assert any(broker_id >= "b064" for found in answers for broker_id in found)
    assert indexed == scanned
