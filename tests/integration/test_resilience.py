"""Recovery and resilience: re-registration, broker failure, migration."""

import pytest

from repro import build_deployment
from repro.tracing.failure import AdaptivePingPolicy, DetectorVerdict
from repro.tracing.traces import TraceType
from tests.support import TraceLog

FAST_POLICY = AdaptivePingPolicy(
    base_interval_ms=500.0, min_interval_ms=100.0,
    max_interval_ms=1_000.0, response_deadline_ms=200.0,
)


@pytest.fixture
def dep():
    return build_deployment(
        broker_ids=["b1", "b2", "b3"], seed=700, ping_policy=FAST_POLICY
    )


def bootstrap(dep, tracker_broker="b3"):
    entity = dep.add_traced_entity("svc")
    tracker = dep.add_tracker("w")
    tracker.interest_refresh_ms = 0.0  # always answer gauges promptly
    tracker.connect(tracker_broker)
    log = TraceLog(tracker)
    entity.start("b1")
    dep.sim.run(until=3_000)
    tracker.track("svc")
    dep.sim.run(until=6_000)
    return entity, log


class TestReregistration:
    def test_failed_entity_resumes_after_reregistration(self, dep):
        entity, log = bootstrap(dep)
        entity.crash()
        dep.sim.run(until=60_000)
        assert log.of_type(TraceType.FAILED)
        old_session = entity.session_id

        dep.sim.process(entity.reregister())
        dep.sim.run(until=90_000)
        assert entity.session_id != old_session
        # the tracker sees fresh heartbeats without resubscribing
        late = [t for t in log.of_type(TraceType.ALLS_WELL)
                if t.received_ms > 62_000]
        assert late

    def test_reregistration_supersedes_old_session(self, dep):
        entity, _ = bootstrap(dep)
        dep.sim.process(entity.reregister())
        dep.sim.run(until=20_000)
        manager = dep.manager_of("b1")
        assert dep.metrics.counter_value("trace.sessions_superseded") == 1
        assert [s.active for s in manager.sessions.values()] == [True]

    def test_recovery_announces_state_transitions(self, dep):
        entity, log = bootstrap(dep)
        entity.crash()
        dep.sim.run(until=60_000)
        dep.sim.process(entity.reregister())
        dep.sim.run(until=90_000)
        kinds = [t.trace_type for t in log.traces]
        assert TraceType.RECOVERING in kinds
        assert TraceType.JOIN in kinds  # re-registration re-announces JOIN


class TestBrokerFailure:
    def test_failed_broker_stops_traffic(self, dep):
        entity, log = bootstrap(dep)
        dep.network.fail_broker("b1")
        marker = dep.sim.now
        dep.sim.run(until=marker + 10_000)
        # the manager's ping loop freezes during the outage, so drive some
        # client traffic at the dead broker to show it gets dropped
        entity.client.publish("app.data", {"status": "still-alive"})
        dep.sim.run(until=marker + 20_000)
        late = [t for t in log.of_type(TraceType.ALLS_WELL)
                if t.received_ms > marker + 1_000]
        assert not late
        assert dep.metrics.counter_value("broker.messages.dropped_broker_failed") > 0

    def test_routing_steers_around_failed_broker(self, dep):
        # ring topology so b2's failure leaves a path b1-b3
        dep.network.connect_brokers("b1", "b3")
        entity, log = bootstrap(dep)
        count_before = len(log.of_type(TraceType.ALLS_WELL))
        dep.network.fail_broker("b2")
        dep.sim.run(until=30_000)
        count_after = len(log.of_type(TraceType.ALLS_WELL))
        assert count_after > count_before  # traces now flow b1 -> b3

    def test_entity_migrates_to_live_broker(self, dep):
        entity, log = bootstrap(dep)
        dep.network.fail_broker("b1")
        dep.sim.run(until=12_000)

        dep.sim.process(entity.migrate("b2"))
        dep.sim.run(until=40_000)
        assert entity.client.broker.broker_id == "b2"
        assert dep.manager_of("b2").session_of("svc") is not None
        late = [t for t in log.of_type(TraceType.ALLS_WELL)
                if t.received_ms > 20_000]
        assert late, "tracker should keep receiving after migration"

    def test_recovered_broker_rejoins(self, dep):
        entity, log = bootstrap(dep)
        dep.network.fail_broker("b2")
        dep.sim.run(until=12_000)
        dep.network.recover_broker("b2", neighbors=["b1", "b3"])
        dep.sim.run(until=40_000)
        late = [t for t in log.of_type(TraceType.ALLS_WELL)
                if t.received_ms > 13_000]
        assert late


class TestBrokerRestart:
    """Regression: a restarted broker must not judge a live entity by the
    ping watermark of its pre-crash incarnation (see PingHistory
    ``reset_incarnation``)."""

    def test_entity_survives_broker_restart_without_false_failure(self, dep):
        entity, log = bootstrap(dep)
        neighbors = dep.network.neighbors_of("b1")
        dep.network.fail_broker("b1")
        restart_at = dep.sim.now + 8_000
        dep.sim.call_at(restart_at, lambda: dep.restart_broker("b1", neighbors))
        dep.sim.run(until=restart_at + 30_000)

        # the entity never crashed, so the restarted broker must not have
        # declared it FAILED off pre-crash ping state
        assert not log.of_type(TraceType.FAILED)
        session = dep.manager_of("b1").session_of("svc")
        assert session is not None and session.active
        assert session.detector.verdict is not DetectorVerdict.FAILED
        late = [t for t in log.of_type(TraceType.ALLS_WELL)
                if t.received_ms > restart_at + 1_000]
        assert late, "heartbeats should resume after the restart"

    def test_restart_clears_stale_ping_watermark(self, dep):
        entity, _ = bootstrap(dep)
        session = dep.manager_of("b1").session_of("svc")
        assert session.history.last_ping_ms is not None
        dep.network.fail_broker("b1")
        dep.sim.run(until=dep.sim.now + 5_000)
        dep.restart_broker("b1", ["b2"])
        # fresh incarnation: window emptied, watermark cleared
        assert session.history.last_ping_ms is None
        assert len(session.history) == 0
        dep.sim.run(until=dep.sim.now + 10_000)
        # post-restart pings are being issued and answered again
        assert len(session.history) > 0
        assert session.history.rtts(), "fresh responses should be matched"
