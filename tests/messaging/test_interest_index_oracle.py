"""The bit-sliced interest index against the per-summary scan it replaced.

``FederatedInterestPlane.interested`` answers from per-bit broker columns
(one lane per broker, 64 lanes per table).  The reference below is the
scan it replaced: ``InterestSummary.matches`` and the byte-test probe it
read, kept as they were, tested against every flushed summary in turn.
Every answer must equal the scan's exactly — the same brokers, the same
digest false positives, the same exclusion — whatever the schedule of
registrations, announcements, retractions and flushes.
"""

import itertools

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.bench.scale import run_scale_point
from repro.messaging.federation import (
    FederatedInterestPlane,
    FederationConfig,
    _digest_bits,
)
from repro.messaging.topics import split_topic, topic_matches
from repro.sim.monitor import Monitor

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
            self.plane.register_broker(broker_id)
            self.brokers.append(broker_id)

    @rule(slot=broker_slots, pattern=ORACLE_PATTERNS)
    def announce(self, slot, pattern):
        self.plane.announce(pattern, self.broker(slot))

    @rule(slot=broker_slots, first=bulk_firsts, count=bulk_counts)
    def announce_bulk(self, slot, first, count):
        for i in range(first, first + count):
            self.plane.announce(f"n/{i}", self.broker(slot))

    @rule(slot=broker_slots, pattern=ORACLE_PATTERNS)
    def retract(self, slot, pattern):  # unknown patterns included
        self.plane.retract(pattern, self.broker(slot))

    @rule(slot=broker_slots, data=st.data())
    def retract_held(self, slot, data):
        """Retract a pattern the broker holds, outside the runs, so that
        summaries often lose ``match_all`` or go back to hot-set mode."""
        broker_id = self.broker(slot)
        held = sorted(
            p for p in self.plane._accumulators[broker_id].patterns if not p.startswith("n/")
        )
        if held:
            self.plane.retract(data.draw(st.sampled_from(held)), broker_id)

    @rule(slot=broker_slots, first=bulk_firsts, count=bulk_counts)
    def retract_bulk(self, slot, first, count):
        for i in range(first, first + count):
            self.plane.retract(f"n/{i}", self.broker(slot))

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


# ------------------------------------------------------- summary mode changes


def small_plane(*brokers):
    plane = FederatedInterestPlane(
        monitor=Monitor(), config=FederationConfig(hot_set_limit=1, digest_bits=1024)
    )
    for broker_id in brokers:
        plane.register_broker(broker_id)
    return plane


def test_a_summary_back_in_hot_set_mode_leaves_the_columns_unread():
    """Its live digest still holds "a/*"'s prefix key, which "a/b/a" probes."""
    plane = small_plane("b1", "b2")
    plane.announce("a/*", "b1")
    plane.announce("n/1", "b1")
    assert_agrees(plane)
    plane.retract("n/1", "b1")
    assert plane.is_exact("b1")
    assert plane.interested("a/b/a") == set()
    assert plane.interested("a/b") == {"b1"}
    assert_agrees(plane)


def test_a_summary_in_digest_mode_is_not_read_by_its_old_hot_set():
    plane = small_plane("b1", "b2")
    plane.announce("a/b", "b1")
    assert_agrees(plane)
    for pattern in ("n/1", "n/2"):
        plane.announce(pattern, "b1")
    plane.retract("a/b", "b1")
    assert not plane.is_exact("b1")
    assert plane.interested("a/b") == reference_interested(plane, "a/b") == set()
    assert_agrees(plane)


def test_a_summary_that_loses_match_all_leaves_that_lane():
    plane = small_plane("b1", "b2")
    for pattern in (">", "n/1"):
        plane.announce(pattern, "b1")
    assert plane.interested("q") == {"b1"}
    plane.retract(">", "b1")
    plane.announce("n/2", "b1")
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
