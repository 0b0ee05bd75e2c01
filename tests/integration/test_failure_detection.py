"""Failure detection: suspicion, failure, adaptive ping intervals."""

import pytest

from repro import build_deployment
from repro.tracing.failure import AdaptivePingPolicy, DetectorVerdict
from repro.tracing.traces import TraceType

FAST_POLICY = AdaptivePingPolicy(
    base_interval_ms=500.0,
    min_interval_ms=100.0,
    max_interval_ms=2_000.0,
    response_deadline_ms=200.0,
)


@pytest.fixture
def dep():
    return build_deployment(
        broker_ids=["b1", "b2"], seed=200, ping_policy=FAST_POLICY
    )


def bootstrap(dep):
    entity = dep.add_traced_entity("svc")
    tracker = dep.add_tracker("watcher")
    tracker.connect("b2")
    entity.start("b1")
    dep.sim.run(until=3_000)
    tracker.track("svc")
    dep.sim.run(until=6_000)
    return entity, tracker


class TestCrashDetection:
    def test_suspicion_then_failure(self, dep):
        entity, tracker = bootstrap(dep)
        entity.crash()
        dep.sim.run(until=40_000)

        suspicion = tracker.traces_of_type(TraceType.FAILURE_SUSPICION)
        failed = tracker.traces_of_type(TraceType.FAILED)
        assert len(suspicion) == 1
        assert len(failed) == 1
        assert suspicion[0].received_ms < failed[0].received_ms

        session = dep.manager_of("b1").session_of("svc")
        assert session.declared_failed
        assert session.detector.verdict is DetectorVerdict.FAILED

    def test_pings_stop_after_failure(self, dep):
        entity, _ = bootstrap(dep)
        entity.crash()
        dep.sim.run(until=40_000)
        pings = dep.metrics.counter_value("tracker.pings.sent")
        dep.sim.run(until=80_000)
        assert dep.metrics.counter_value("tracker.pings.sent") == pings

    def test_healthy_entity_never_suspected(self, dep):
        _, tracker = bootstrap(dep)
        dep.sim.run(until=60_000)
        assert not tracker.traces_of_type(TraceType.FAILURE_SUSPICION)
        assert not tracker.traces_of_type(TraceType.FAILED)

    def test_brief_outage_clears_suspicion(self, dep):
        entity, tracker = bootstrap(dep)
        entity.crash()
        # crash long enough for suspicion (3 misses) but not failure (6):
        # recover the moment the broker announces suspicion
        session = dep.manager_of("b1").session_of("svc")
        while not dep.journal.records("failure_suspicion"):
            assert dep.sim.step(), "simulation drained before suspicion"
        entity.recover_from_crash()
        dep.sim.run(until=60_000)
        assert not session.declared_failed
        assert session.detector.verdict is DetectorVerdict.ALIVE
        # heartbeats resumed after recovery
        late = [t for t in tracker.traces_of_type(TraceType.ALLS_WELL)
                if t.received_ms > 10_000]
        assert late


class TestAdaptiveInterval:
    def test_interval_shrinks_on_misses(self, dep):
        entity, _ = bootstrap(dep)
        session = dep.manager_of("b1").session_of("svc")
        healthy_interval = session.current_interval_ms
        entity.crash()
        dep.sim.run(until=9_000)
        assert session.current_interval_ms < healthy_interval

    def test_interval_floors_at_min(self, dep):
        entity, _ = bootstrap(dep)
        session = dep.manager_of("b1").session_of("svc")
        entity.crash()
        dep.sim.run(until=40_000)
        assert session.current_interval_ms >= FAST_POLICY.min_interval_ms

    def test_detection_latency_faster_than_fixed_interval(self):
        """The adaptive scheme detects failure sooner than a fixed-interval
        pinger with the same thresholds (the §3.3 motivation)."""

        def detect_time(policy):
            dep = build_deployment(broker_ids=["b1"], seed=201, ping_policy=policy)
            entity = dep.add_traced_entity("svc")
            tracker = dep.add_tracker("w")
            tracker.connect("b1")
            entity.start("b1")
            dep.sim.run(until=5_000)
            tracker.track("svc")
            dep.sim.run(until=8_000)
            entity.crash()
            crash_time = dep.sim.now
            dep.sim.run(until=120_000)
            failed = tracker.traces_of_type(TraceType.FAILED)
            assert failed, "failure never detected"
            return failed[0].received_ms - crash_time

        adaptive = AdaptivePingPolicy(
            base_interval_ms=2_000.0, min_interval_ms=200.0,
            max_interval_ms=2_000.0, response_deadline_ms=200.0,
        )
        fixed = AdaptivePingPolicy(
            base_interval_ms=2_000.0, min_interval_ms=2_000.0,
            max_interval_ms=2_000.0, response_deadline_ms=200.0,
        )
        assert detect_time(adaptive) < detect_time(fixed)

    def test_stable_entity_interval_grows(self):
        policy = AdaptivePingPolicy(
            base_interval_ms=500.0, min_interval_ms=100.0,
            max_interval_ms=4_000.0, maturity_ms=10_000.0,
            response_deadline_ms=200.0,
        )
        dep = build_deployment(broker_ids=["b1"], seed=202, ping_policy=policy)
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=60_000)
        session = dep.manager_of("b1").session_of("svc")
        assert session.current_interval_ms > policy.base_interval_ms
