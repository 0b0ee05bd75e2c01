"""MetricsRegistry: get-or-create, families, snapshots, rendering."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.util.clock import VirtualClock


class TestGetOrCreate:
    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("a.g") is registry.gauge("a.g")
        assert registry.histogram("a.h") is registry.histogram("a.h")

    def test_cross_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x.y")
        with pytest.raises(ValueError):
            registry.gauge("x.y")
        with pytest.raises(ValueError):
            registry.histogram("x.y")

    def test_counter_value_without_creation(self):
        registry = MetricsRegistry()
        assert registry.counter_value("never.created") == 0
        assert registry.gauge_value("never.created") == 0.0
        assert len(registry) == 0


class TestFamilies:
    def test_grouped_by_first_segment(self):
        registry = MetricsRegistry()
        registry.counter("broker.msgs.ingress")
        registry.counter("broker.msgs.delivered")
        registry.histogram("tracker.trace.latency_ms")
        families = registry.families()
        assert sorted(families) == ["broker", "tracker"]
        assert families["broker"] == [
            "broker.msgs.delivered",
            "broker.msgs.ingress",
        ]


class TestSnapshot:
    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("broker.msgs.ingress").inc(3)
        registry.gauge("transport.inflight").set(2.0)
        registry.histogram("crypto.ms.trace_sign").observe(24.5)
        registry.histogram("tdn.query.latency_ms")  # empty stays visible
        snapshot = json.loads(registry.to_json())
        assert snapshot["counters"]["broker.msgs.ingress"] == 3
        assert snapshot["gauges"]["transport.inflight"] == 2.0
        assert snapshot["histograms"]["crypto.ms.trace_sign"]["count"] == 1
        assert snapshot["histograms"]["tdn.query.latency_ms"] == {"count": 0}

    def test_render_text_groups_families(self):
        registry = MetricsRegistry()
        registry.counter("broker.msgs.ingress").inc()
        registry.histogram("tracker.trace.latency_ms").observe(12.0)
        text = registry.render_text()
        assert "[broker]" in text
        assert "[tracker]" in text
        assert "broker.msgs.ingress" in text
        assert "n=1" in text

    def test_timer_helper_uses_named_histogram(self):
        registry = MetricsRegistry()
        clock = VirtualClock()
        with registry.timer("tdn.query.latency_ms", clock):
            clock._now = 7.0
        assert registry.histogram("tdn.query.latency_ms").count == 1
        assert registry.histogram("tdn.query.latency_ms").mean == 7.0
