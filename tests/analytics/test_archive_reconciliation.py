"""The archive/forecaster are views over the store — and change nothing.

The availability archive and network forecaster predate the analytics
store; reconciling them onto it (docs/ANALYTICS.md) must not perturb any
behaviour the seeds pin (``tests/test_seeds.py``: the routing seed's
scenario runs through the tracker hook seam the ingestor chains).  Two
regressions:

* a deployment with archive + forecaster attached produces the same
  registry snapshot as a bare one (the views add zero drift);
* the archive's records equal timelines built directly from the
  persisted events (the view genuinely derives from the store).
"""

from repro import build_deployment
from repro.analytics import AnalyticsStore, EntityTimeline, build_timelines
from repro.tracing.archive import AvailabilityArchive
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.forecast import NetworkForecaster


def _run_once(attach_views):
    dep = build_deployment(
        broker_ids=["b1", "b2"],
        seed=11,
        ping_policy=AdaptivePingPolicy(
            base_interval_ms=1_000.0, min_interval_ms=250.0,
            max_interval_ms=2_000.0, response_deadline_ms=300.0,
        ),
    )
    entity = dep.add_traced_entity("svc")
    tracker = dep.add_tracker("watcher")
    tracker.connect("b2")
    store = None
    archive = forecaster = None
    if attach_views:
        store = AnalyticsStore()
        archive = AvailabilityArchive(tracker, store=store)
        forecaster = NetworkForecaster(tracker, store=store)
    entity.start("b1")
    dep.sim.run(until=3_000)
    tracker.track("svc")
    dep.sim.run(until=20_000)
    entity.crash()
    dep.sim.run(until=30_000)
    dep.sim.process(entity.reregister())
    dep.sim.run(until=45_000)
    return dep, store, archive, forecaster


class TestZeroDrift:
    def test_attached_views_do_not_change_the_run(self):
        bare, *_ = _run_once(attach_views=False)
        viewed, _, _, _ = _run_once(attach_views=True)
        bare_snapshot = bare.metrics.snapshot()
        viewed_snapshot = viewed.metrics.snapshot()
        # the views add analytics.* instruments; everything else is equal
        viewed_snapshot["counters"] = {
            name: value
            for name, value in viewed_snapshot["counters"].items()
            if not name.startswith("analytics.")
        }
        viewed_snapshot["gauges"] = {
            name: value
            for name, value in viewed_snapshot["gauges"].items()
            if not name.startswith("analytics.")
        }
        assert viewed_snapshot == bare_snapshot
        assert viewed.monitor.counters() == bare.monitor.counters()


class TestStoreBackedArchive:
    def test_records_equal_timelines_from_the_store(self):
        _, store, archive, _ = _run_once(attach_views=True)
        timelines = build_timelines(store.events(kind="trace.observed"))
        assert set(archive.records) == set(timelines)
        for entity_id, timeline in timelines.items():
            record = archive.record_of(entity_id)
            assert record.intervals == timeline.intervals
            assert record.down_count == timeline.down_count

    def test_entity_record_shim_still_observes(self):
        """Archive records are the analytics timelines themselves, no shim."""
        _, _, archive, _ = _run_once(attach_views=True)
        record = archive.record_of("svc")
        assert type(record) is EntityTimeline
        assert record.down_count >= 1  # the crash produced an outage

    def test_forecaster_persists_network_metrics(self):
        _, store, _, forecaster = _run_once(attach_views=True)
        samples = store.events(kind="network.metrics")
        assert samples, "no NETWORK_METRICS samples persisted"
        assert all(e.entity == "svc" for e in samples)
        assert forecaster.forecast_rtt_ms("svc") is not None
