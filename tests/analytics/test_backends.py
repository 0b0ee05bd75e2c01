"""The storage seam: both built-in backends answer every query identically."""

import pytest

from repro.analytics import (
    AnalyticsEvent,
    MemoryBackend,
    SqliteBackend,
    ingest_events,
)

#: A small but shape-covering log: duplicate kinds, shared timestamps,
#: null entities/values, nested fields.
EVENTS = [
    (100.0, "trace.observed", "svc-a", "b1", 12.5, {"trace_type": "JOIN"}),
    (200.0, "trace.observed", "svc-b", "b1", None, {"trace_type": "READY"}),
    (200.0, "session.created", "svc-a", "b1", None, {"session": "deadbeef"}),
    (350.0, "trace.observed", "svc-a", "b2", 9.0, {"trace_type": "FAILED"}),
    (400.0, "fault.injected", None, "b1", None, {"target": "b1", "kind": "crash"}),
    (500.0, "recovery.completed", "svc-a", None, 150.0, {"recovery_ms": 150.0}),
]

#: Every filter combination the query contract supports.
QUERIES = [
    {},
    {"kind": "trace.observed"},
    {"kind": "no.such.kind"},
    {"entity": "svc-a"},
    {"entity": "svc-a", "kind": "trace.observed"},
    {"since_ms": 200.0},
    {"until_ms": 200.0},
    {"since_ms": 200.0, "until_ms": 400.0},
    {"kind": "trace.observed", "since_ms": 150.0, "until_ms": 360.0},
]


def _fill(backend):
    for time_ms, kind, entity, broker, value, fields in EVENTS:
        backend.append(
            time_ms, kind, entity=entity, broker=broker, value=value, fields=fields
        )
    return backend


@pytest.fixture(params=[MemoryBackend, SqliteBackend], ids=["memory", "sqlite"])
def backend(request):
    instance = request.param()
    yield _fill(instance)
    instance.close()


class TestQueryContract:
    def test_seq_is_one_based_append_order(self, backend):
        assert [e.seq for e in backend.events()] == list(
            range(1, len(EVENTS) + 1)
        )

    def test_count_kinds_entities(self, backend):
        assert backend.count() == len(EVENTS)
        assert backend.kinds()["trace.observed"] == 3
        assert backend.entities() == ["svc-a", "svc-b"]

    def test_until_is_exclusive_since_inclusive(self, backend):
        window = backend.events(since_ms=200.0, until_ms=350.0)
        assert {e.time_ms for e in window} == {200.0}

    def test_fields_round_trip(self, backend):
        [injected] = backend.events(kind="fault.injected")
        assert injected.fields == {"target": "b1", "kind": "crash"}


class TestBackendEquivalence:
    """The docs/ANALYTICS.md promise: identical results for the same log."""

    def test_every_query_matches_across_backends(self):
        memory = _fill(MemoryBackend())
        sqlite = _fill(SqliteBackend())
        for query in QUERIES:
            assert [e.to_dict() for e in memory.events(**query)] == [
                e.to_dict() for e in sqlite.events(**query)
            ], f"backends disagree on {query!r}"
        assert memory.kinds() == sqlite.kinds()
        assert memory.entities() == sqlite.entities()
        assert memory.count() == sqlite.count()
        sqlite.close()

    def test_ingest_events_replays_a_log_exactly(self):
        source = _fill(MemoryBackend())
        target = SqliteBackend()
        assert ingest_events(target, source.events()) == len(EVENTS)
        assert [e.to_dict() for e in target.events()] == [
            e.to_dict() for e in source.events()
        ]
        target.close()


class TestRegistry:
    def test_sqlite_persists_across_connections(self, tmp_path):
        path = str(tmp_path / "analytics.db")
        first = _fill(SqliteBackend(path=path))
        first.close()
        second = SqliteBackend(path=path)
        assert second.count() == len(EVENTS)
        assert second.kinds() == _fill(MemoryBackend()).kinds()
        second.close()


class TestEventModel:
    def test_event_dict_round_trip(self):
        event = AnalyticsEvent(
            seq=7, time_ms=12.0, kind="k", entity="e", broker="b",
            value=1.5, fields={"x": 1},
        )
        assert AnalyticsEvent.from_dict(event.to_dict()) == event
