"""The store's query contract, on a live log and on the same log read back
from its snapshot, the one on-disk form."""

import pytest

from repro.analytics import AnalyticsEvent, AnalyticsStore

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

#: Every filter combination the query contract supports, with the seqs it selects.
QUERIES = [
    ({}, [1, 2, 3, 4, 5, 6]),
    ({"kind": "trace.observed"}, [1, 2, 4]),
    ({"kind": "no.such.kind"}, []),
    ({"entity": "svc-a"}, [1, 3, 4, 6]),
    ({"entity": "svc-a", "kind": "trace.observed"}, [1, 4]),
    ({"since_ms": 200.0}, [2, 3, 4, 5, 6]),
    ({"until_ms": 200.0}, [1]),
    ({"since_ms": 200.0, "until_ms": 400.0}, [2, 3, 4]),
    ({"kind": "trace.observed", "since_ms": 150.0, "until_ms": 360.0}, [2, 4]),
]


def _fill(store):
    for time_ms, kind, entity, broker, value, fields in EVENTS:
        store.append(time_ms, kind, entity=entity, broker=broker, value=value, **fields)
    return store


@pytest.fixture(params=["memory", "snapshot"])
def store(request, tmp_path):
    live = _fill(AnalyticsStore())
    if request.param == "memory":
        return live
    return AnalyticsStore.load(live.save(tmp_path / "snapshot.json"))


class TestQueryContract:
    def test_seq_is_one_based_append_order(self, store):
        assert [e.seq for e in store.events()] == list(range(1, len(EVENTS) + 1))

    def test_count_kinds_entities(self, store):
        assert store.count() == len(EVENTS)
        assert store.kinds()["trace.observed"] == 3

    def test_until_is_exclusive_since_inclusive(self, store):
        window = store.events(since_ms=200.0, until_ms=350.0)
        assert {e.time_ms for e in window} == {200.0}

    def test_fields_round_trip(self, store):
        [injected] = store.events(kind="fault.injected")
        assert injected.fields == {"target": "b1", "kind": "crash"}

    @pytest.mark.parametrize(
        ("query", "seqs"),
        QUERIES,
        ids=[",".join(f"{k}={v}" for k, v in query.items()) or "all" for query, _ in QUERIES],
    )
    def test_query_selects_these_seqs(self, store, query, seqs):
        assert [e.seq for e in store.events(**query)] == seqs


class TestEventModel:
    def test_event_dict_round_trip(self):
        event = AnalyticsEvent(
            seq=7, time_ms=12.0, kind="k", entity="e", broker="b",
            value=1.5, fields={"x": 1},
        )
        assert AnalyticsEvent.from_dict(event.to_dict()) == event
