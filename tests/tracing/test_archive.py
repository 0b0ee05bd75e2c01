"""Tests for the availability archive."""

import pytest

from repro import build_deployment
from repro.analytics import EntityTimeline, Interval
from repro.tracing.archive import AvailabilityArchive
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.tracker import ReceivedTrace
from repro.tracing.traces import TraceType


def trace(kind, t, entity="svc"):
    return ReceivedTrace(
        trace_type=kind, entity_id=entity, received_ms=t, latency_ms=None, payload={}
    )


def observe(record, received):
    """Fold one received trace into a timeline, as the archive's store view does."""
    record.apply(received.trace_type.value, received.received_ms)


class TestInterval:
    def test_closed_duration(self):
        assert Interval(10.0, 30.0).duration_ms(now_ms=100.0) == 20.0

    def test_open_duration_uses_now(self):
        assert Interval(10.0, None).duration_ms(now_ms=100.0) == 90.0

    def test_contains(self):
        interval = Interval(10.0, 30.0)
        assert interval.contains(10.0, 100.0)
        assert interval.contains(29.9, 100.0)
        assert not interval.contains(30.0, 100.0)
        assert not interval.contains(5.0, 100.0)


class TestEntityRecord:
    def test_join_opens_interval(self):
        record = EntityTimeline("svc")
        observe(record, trace(TraceType.JOIN, 100.0))
        assert record.up
        assert record.availability(200.0) == 1.0

    def test_failed_closes_interval(self):
        record = EntityTimeline("svc")
        observe(record, trace(TraceType.JOIN, 0.0))
        observe(record, trace(TraceType.FAILED, 100.0))
        assert not record.up
        assert record.down_count == 1
        assert record.availability(200.0) == pytest.approx(0.5)

    def test_rejoin_after_failure(self):
        record = EntityTimeline("svc")
        observe(record, trace(TraceType.JOIN, 0.0))
        observe(record, trace(TraceType.FAILED, 100.0))
        observe(record, trace(TraceType.JOIN, 150.0))
        assert record.up
        assert record.availability(200.0) == pytest.approx(150.0 / 200.0)
        assert record.mean_time_to_recover_ms() == pytest.approx(50.0)

    def test_suspicion_does_not_close(self):
        record = EntityTimeline("svc")
        observe(record, trace(TraceType.JOIN, 0.0))
        observe(record, trace(TraceType.FAILURE_SUSPICION, 50.0))
        assert record.up
        assert record.suspect_since_ms == 50.0
        observe(record, trace(TraceType.ALLS_WELL, 60.0))
        assert record.suspect_since_ms is None

    def test_heartbeats_keep_interval_open_not_duplicated(self):
        record = EntityTimeline("svc")
        observe(record, trace(TraceType.JOIN, 0.0))
        for t in (10.0, 20.0, 30.0):
            observe(record, trace(TraceType.ALLS_WELL, t))
        assert len(record.intervals) == 1

    def test_was_up_at(self):
        record = EntityTimeline("svc")
        observe(record, trace(TraceType.JOIN, 0.0))
        observe(record, trace(TraceType.SHUTDOWN, 100.0))
        observe(record, trace(TraceType.JOIN, 200.0))
        assert record.was_up_at(50.0, now_ms=300.0)
        assert not record.was_up_at(150.0, now_ms=300.0)
        assert record.was_up_at(250.0, now_ms=300.0)

    def test_mttr_none_without_recovery(self):
        record = EntityTimeline("svc")
        observe(record, trace(TraceType.JOIN, 0.0))
        assert record.mean_time_to_recover_ms() is None

    def test_no_data(self):
        record = EntityTimeline("svc")
        assert record.availability(100.0) == 0.0
        assert not record.was_up_at(50.0, 100.0)


class TestArchiveLive:
    def test_end_to_end_availability(self):
        dep = build_deployment(
            broker_ids=["b1"],
            seed=900,
            ping_policy=AdaptivePingPolicy(
                base_interval_ms=500.0, min_interval_ms=100.0,
                max_interval_ms=1_000.0, response_deadline_ms=200.0,
            ),
        )
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b1")
        archive = AvailabilityArchive(tracker)

        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=10_000)

        record = archive.record_of("svc")
        assert record is not None and record.up

        entity.crash()
        dep.sim.run(until=60_000)
        assert not record.up
        assert record.down_count == 1
        assert 0.0 < record.availability(dep.sim.now) < 1.0

        report = archive.report(dep.sim.now)
        assert "svc" in report and "down" in report

    def test_chains_previous_hook(self):
        dep = build_deployment(broker_ids=["b1"], seed=901)
        tracker = dep.add_tracker("w")
        tracker.connect("b1")
        seen = []
        tracker.on_trace = seen.append
        archive = AvailabilityArchive(tracker)
        tracker.on_trace(trace(TraceType.JOIN, 5.0))
        assert len(seen) == 1
        assert archive.record_of("svc").up
