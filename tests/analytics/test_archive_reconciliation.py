"""The store feed and the forecaster observe a run — and change nothing.

The network forecaster predates the analytics store; reconciling it onto
the store (docs/ANALYTICS.md) must not perturb any behaviour the seeds
pin (``tests/test_seeds.py``: the routing seed's scenario runs through
the tracker hook seam the ingestor chains).  Two regressions:

* a deployment with the store and the forecaster attached produces the
  same registry snapshot as a bare one (the observers add zero drift);
* the forecaster persists its samples into the same store.
"""

from repro import build_deployment
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
    store = forecaster = None
    if attach_views:
        store = dep.attach_analytics()
        forecaster = NetworkForecaster(tracker, store=store)
    entity.start("b1")
    dep.sim.run(until=3_000)
    tracker.track("svc")
    dep.sim.run(until=20_000)
    entity.crash()
    dep.sim.run(until=30_000)
    dep.sim.process(entity.reregister())
    dep.sim.run(until=45_000)
    return dep, store, forecaster


class TestZeroDrift:
    def test_attached_views_do_not_change_the_run(self):
        bare, *_ = _run_once(attach_views=False)
        viewed, store, _ = _run_once(attach_views=True)
        assert store.count() > 0
        bare_snapshot = bare.metrics.snapshot()
        viewed_snapshot = viewed.metrics.snapshot()
        # the store adds analytics.* instruments; everything else is equal
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


class TestStoreBackedForecaster:
    def test_forecaster_persists_network_metrics(self):
        _, store, forecaster = _run_once(attach_views=True)
        samples = store.events(kind="network.metrics")
        assert samples, "no NETWORK_METRICS samples persisted"
        assert all(e.entity == "svc" for e in samples)
        assert forecaster.forecast_rtt_ms("svc") is not None
