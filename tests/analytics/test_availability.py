"""Availability timelines: the interval algebra, a property over any event
order, and the attached store answering "how available was the entity"."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_deployment
from repro.analytics import (
    AnalyticsStore,
    EntityTimeline,
    Interval,
    build_report,
    build_timelines,
)
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.traces import TraceType


def observe(record, kind, t):
    """Fold one trace-type marker into a timeline, as ``build_timelines`` does."""
    record.apply(kind.value, t)


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
        observe(record, TraceType.JOIN, 100.0)
        assert record.up
        assert record.availability(200.0) == 1.0

    def test_failed_closes_interval(self):
        record = EntityTimeline("svc")
        observe(record, TraceType.JOIN, 0.0)
        observe(record, TraceType.FAILED, 100.0)
        assert not record.up
        assert record.down_count == 1
        assert record.availability(200.0) == pytest.approx(0.5)

    def test_rejoin_after_failure(self):
        record = EntityTimeline("svc")
        observe(record, TraceType.JOIN, 0.0)
        observe(record, TraceType.FAILED, 100.0)
        observe(record, TraceType.JOIN, 150.0)
        assert record.up
        assert record.availability(200.0) == pytest.approx(150.0 / 200.0)
        assert record.mean_time_to_recover_ms() == pytest.approx(50.0)

    def test_suspicion_does_not_close(self):
        record = EntityTimeline("svc")
        observe(record, TraceType.JOIN, 0.0)
        observe(record, TraceType.FAILURE_SUSPICION, 50.0)
        assert record.up
        assert record.suspect_since_ms == 50.0
        observe(record, TraceType.ALLS_WELL, 60.0)
        assert record.suspect_since_ms is None

    def test_heartbeats_keep_interval_open_not_duplicated(self):
        record = EntityTimeline("svc")
        observe(record, TraceType.JOIN, 0.0)
        for t in (10.0, 20.0, 30.0):
            observe(record, TraceType.ALLS_WELL, t)
        assert len(record.intervals) == 1

    def test_was_up_at(self):
        record = EntityTimeline("svc")
        observe(record, TraceType.JOIN, 0.0)
        observe(record, TraceType.SHUTDOWN, 100.0)
        observe(record, TraceType.JOIN, 200.0)
        assert record.was_up_at(50.0, now_ms=300.0)
        assert not record.was_up_at(150.0, now_ms=300.0)
        assert record.was_up_at(250.0, now_ms=300.0)

    def test_mttr_none_without_recovery(self):
        record = EntityTimeline("svc")
        observe(record, TraceType.JOIN, 0.0)
        assert record.mean_time_to_recover_ms() is None

    def test_no_data(self):
        record = EntityTimeline("svc")
        assert record.availability(100.0) == 0.0
        assert not record.was_up_at(50.0, 100.0)


#: One stored event: kind, entity, whole-millisecond time (so interval sums are
#: exact and ties are common) and trace type.  Other kinds and entity-less
#: events are in the log because ``build_timelines`` must skip them.
_EVENTS = st.tuples(
    st.sampled_from(("trace.observed", "trace.observed", "trace.observed", "network.metrics")),
    st.sampled_from((None, "svc", "db", "cache")),
    st.integers(0, 60).map(float),
    st.sampled_from([kind.value for kind in TraceType]),
)
_LOGS = st.lists(_EVENTS, max_size=40)


def _timelines_property(examples: int):
    @settings(max_examples=examples, deadline=None)
    @given(rows=_LOGS, data=st.data())
    def test(rows, data):
        """Any order of the same stored log gives the same timelines, and
        every timeline keeps the interval invariants."""
        store = AnalyticsStore()
        for kind, entity, time_ms, trace_type in rows:
            store.append(time_ms, kind, entity=entity, trace_type=trace_type)
        events = store.events()
        timelines = build_timelines(events)
        shuffled = data.draw(st.permutations(events))
        assert build_timelines(shuffled) == timelines

        now_ms = max((time_ms for _, _, time_ms, _ in rows), default=0.0)
        for timeline in timelines.values():
            assert 0.0 <= timeline.availability(now_ms) <= 1.0
            span = now_ms - timeline.intervals[0].start_ms if timeline.intervals else 0.0
            assert timeline.uptime_ms(now_ms) <= span
            closed = [i for i in timeline.intervals if i.end_ms is not None]
            assert timeline.down_count == len(closed)
            assert all(gap >= 0.0 for gap in timeline.outage_durations_ms())

    return test


test_timelines_ignore_event_order = _timelines_property(100)
test_timelines_ignore_event_order_deep = pytest.mark.deep(_timelines_property(2_000))


class TestAttachedStore:
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
        store = dep.attach_analytics()

        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=10_000)
        assert build_report(store, now_ms=dep.sim.now)["entities"]["svc"]["state"] == "up"

        entity.crash()
        dep.sim.run(until=60_000)
        svc = build_report(store, now_ms=dep.sim.now)["entities"]["svc"]
        assert svc["state"] == "down"
        assert svc["outages"] == 1
        assert 0.0 < svc["availability_pct"] < 100.0
