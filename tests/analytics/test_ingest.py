"""Ingestion feeds: the tracker's trace sinks and the journal copy."""

from repro.analytics import AnalyticsStore, TraceIngestor, ingest_journal
from repro.obs import MetricsRegistry
from repro.obs.journal import EventJournal
from repro.tracing.tracker import ReceivedTrace
from repro.tracing.traces import TraceType


class _StubTracker:
    """Just the on_trace seam — what TraceIngestor actually touches."""

    def __init__(self, tracker_id="t1"):
        self.tracker_id = tracker_id
        self.on_trace = []

    def hand(self, trace):
        for sink in self.on_trace:
            sink(trace)


def _trace(entity="svc", at_ms=100.0, latency=7.5, kind=TraceType.ALLS_WELL):
    return ReceivedTrace(
        trace_type=kind, entity_id=entity, received_ms=at_ms,
        latency_ms=latency, payload={},
    )


class TestTraceIngestor:
    def test_traces_become_store_events(self):
        store = AnalyticsStore()
        tracker = _StubTracker()
        TraceIngestor(store, tracker)
        tracker.hand(_trace(at_ms=50.0))
        tracker.hand(_trace(at_ms=80.0, kind=TraceType.FAILED, latency=None))
        events = store.events(kind="trace.observed")
        assert [e.time_ms for e in events] == [50.0, 80.0]
        assert events[0].value == 7.5
        assert events[0].fields["trace_type"] == TraceType.ALLS_WELL.value
        assert events[0].fields["tracker"] == "t1"

    def test_an_earlier_sink_keeps_firing(self):
        store = AnalyticsStore()
        tracker = _StubTracker()
        seen = []
        tracker.on_trace.append(seen.append)
        TraceIngestor(store, tracker)
        trace = _trace()
        tracker.hand(trace)
        assert seen == [trace]  # an earlier sink (the forecaster's) keeps firing
        assert store.count() == 1

    def test_ingestion_is_instrumented(self):
        registry = MetricsRegistry()
        store = AnalyticsStore()
        store.bind_metrics(registry)
        tracker = _StubTracker()
        TraceIngestor(store, tracker)
        tracker.hand(_trace())
        assert registry.counter_value("analytics.ingest.traces") == 1
        assert registry.counter_value("analytics.events.ingested") == 1


class TestJournalIngest:
    def test_column_mapping(self):
        journal = EventJournal()
        journal.record(
            10.0, "session.created", principal="svc", entity="svc",
            broker="b1", session="cafe",
        )
        journal.record(
            20.0, "violation", topic="T/x", principal="attacker",
            size_bytes=64, reason="forged",
        )
        journal.record(
            30.0, "recovery.completed", principal="svc", recovery_ms=1500.0,
        )
        store = AnalyticsStore()
        assert ingest_journal(store, journal) == 3

        session, violation, recovery = store.events()
        assert session.entity == "svc" and session.broker == "b1"
        assert session.fields["session"] == "cafe"
        assert violation.entity == "attacker"  # principal fallback
        assert violation.fields["topic"] == "T/x"
        assert violation.fields["size_bytes"] == 64
        assert recovery.value == 1500.0  # recovery_ms promoted to value

    def test_journal_copy_is_instrumented(self):
        registry = MetricsRegistry()
        store = AnalyticsStore()
        store.bind_metrics(registry)
        journal = EventJournal()
        journal.record(1.0, "violation", principal="x")
        journal.record(2.0, "violation", principal="x")
        ingest_journal(store, journal)
        assert registry.counter_value("analytics.ingest.journal_records") == 2
