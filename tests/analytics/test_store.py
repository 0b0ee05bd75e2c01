"""AnalyticsStore: append/query façade, metrics binding, snapshot I/O."""

import pytest

from repro.analytics import AnalyticsStore, SqliteBackend
from repro.errors import AnalyticsError
from repro.obs import MetricsRegistry


def _populate(store):
    store.append(100.0, "trace.observed", entity="svc", trace_type="JOIN")
    store.append(250.0, "trace.observed", entity="svc", value=9.5,
                 trace_type="FAILED")
    store.append(300.0, "session.created", entity="svc", broker="b1")
    store.set_meta(scenario="unit", seed=7, now_ms=400.0)
    return store


class TestStoreBasics:
    def test_default_backend_is_memory(self):
        assert AnalyticsStore().backend.name == "memory"

    def test_summary(self):
        store = _populate(AnalyticsStore())
        assert store.summary() == {
            "backend": "memory",
            "events": 3,
            "kinds": {"trace.observed": 2, "session.created": 1},
        }

    def test_append_counts_into_bound_registry(self):
        registry = MetricsRegistry()
        store = AnalyticsStore(metrics=registry)
        _populate(store)
        assert registry.counter_value("analytics.events.ingested") == 3
        assert registry.gauge_value("analytics.store.events") == 3

    def test_bind_metrics_after_construction(self):
        registry = MetricsRegistry()
        store = AnalyticsStore()
        store.append(1.0, "k")
        store.bind_metrics(registry)
        store.append(2.0, "k")
        assert registry.counter_value("analytics.events.ingested") == 1
        assert store.count() == 2


class TestSnapshotRoundTrip:
    def test_export_load_is_lossless(self, tmp_path):
        store = _populate(AnalyticsStore())
        path = store.save(tmp_path / "snap.json")
        loaded = AnalyticsStore.load(path)
        assert loaded.meta == store.meta
        assert [e.to_dict() for e in loaded.events()] == [
            e.to_dict() for e in store.events()
        ]

    def test_export_is_deterministic(self):
        assert (
            _populate(AnalyticsStore()).export_json()
            == _populate(AnalyticsStore()).export_json()
        )

    def test_round_trip_into_sqlite_backend(self, tmp_path):
        store = _populate(AnalyticsStore())
        path = store.save(tmp_path / "snap.json")
        loaded = AnalyticsStore.load(path, backend=SqliteBackend())
        assert loaded.backend.name == "sqlite"
        assert loaded.export_json() == store.export_json()
        loaded.close()

    def test_invalid_snapshot_rejected(self):
        with pytest.raises(AnalyticsError, match="invalid analytics snapshot"):
            AnalyticsStore.from_json("not json at all {")
        with pytest.raises(AnalyticsError, match="'events' array"):
            AnalyticsStore.from_json('{"meta": {}}')
