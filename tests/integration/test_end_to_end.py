"""End-to-end protocol tests over a full deployment."""

import pytest

from repro import build_deployment
from repro.tracing.interest import InterestCategory
from repro.tracing.traces import EntityState, LoadInformation, TraceType
from tests.support import TraceLog, run_process


@pytest.fixture
def dep():
    return build_deployment(broker_ids=["b1", "b2", "b3"], seed=100)


def bootstrap(dep, entity_kwargs=None, tracker_kwargs=None,
              entity_broker="b1", tracker_broker="b3"):
    entity = dep.add_traced_entity("svc", **(entity_kwargs or {}))
    tracker = dep.add_tracker("watcher", **(tracker_kwargs or {}))
    tracker.connect(tracker_broker)
    entity.start(entity_broker)
    dep.sim.run(until=3_000)
    tracker.track("svc")
    return entity, TraceLog(tracker)


class TestRegistration:
    def test_entity_registers_and_becomes_ready(self, dep):
        entity, _ = bootstrap(dep)
        assert entity.session_id is not None
        assert entity.state is EntityState.READY
        session = dep.manager_of("b1").session_of("svc")
        assert session is not None
        assert session.token is not None
        assert session.entity_state is EntityState.READY

    def test_only_hosting_broker_has_session(self, dep):
        bootstrap(dep)
        assert dep.manager_of("b1").session_of("svc") is not None
        assert dep.manager_of("b2").session_of("svc") is None
        assert dep.manager_of("b3").session_of("svc") is None

    def test_join_trace_published(self, dep):
        _, log = bootstrap(dep)
        dep.sim.run(until=10_000)
        assert dep.monitor.count("trace.published.JOIN") == 1


class TestTraceFlow:
    def test_alls_well_heartbeats_flow(self, dep):
        _, log = bootstrap(dep)
        dep.sim.run(until=30_000)
        heartbeats = log.of_type(TraceType.ALLS_WELL)
        assert len(heartbeats) >= 10
        for trace in heartbeats:
            assert trace.entity_id == "svc"
            assert trace.latency_ms is not None and trace.latency_ms > 0

    def test_network_metrics_derived(self, dep):
        _, log = bootstrap(dep)
        dep.sim.run(until=30_000)
        metrics = log.of_type(TraceType.NETWORK_METRICS)
        assert metrics
        payload = metrics[-1].payload
        assert payload["loss_rate"] == 0.0
        assert payload["mean_rtt_ms"] > 0

    def test_state_transitions_reported(self, dep):
        entity, log = bootstrap(dep)
        dep.sim.run(until=10_000)
        dep.sim.process(entity.report_state(EntityState.RECOVERING))
        dep.sim.run(until=12_000)
        dep.sim.process(entity.report_state(EntityState.READY))
        dep.sim.run(until=14_000)
        seen = [t.trace_type for t in log.traces
                if t.trace_type in (TraceType.RECOVERING, TraceType.READY)]
        assert TraceType.RECOVERING in seen
        assert seen.count(TraceType.READY) >= 1

    def test_load_reports_flow(self, dep):
        entity, log = bootstrap(dep)
        dep.sim.run(until=10_000)
        load = LoadInformation(0.75, 1024.0, 4096.0, workload=12)
        dep.sim.process(entity.report_load(load))
        dep.sim.run(until=12_000)
        received = log.of_type(TraceType.LOAD_INFORMATION)
        assert received
        assert received[-1].payload["cpu_utilization"] == 0.75

    def test_illegal_state_transition_rejected_locally(self, dep):
        entity, _ = bootstrap(dep)
        with pytest.raises(ValueError):
            run_process(dep.sim, entity.report_state(EntityState.INITIALIZING))


class TestInterestGating:
    def test_no_interest_no_traces(self, dep):
        """Without any tracker, pings continue but no traces are published."""
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=20_000)
        assert dep.metrics.counter_value("tracker.pings.sent") > 5
        assert dep.monitor.count("trace.published.ALLS_WELL") == 0
        assert dep.metrics.counter_value("trace.suppressed_no_interest") > 5

    def test_selective_interest(self, dep):
        entity, log = bootstrap(
            dep,
            tracker_kwargs=dict(
                interests=frozenset({InterestCategory.CHANGE_NOTIFICATIONS})
            ),
        )
        dep.sim.run(until=20_000)
        assert not log.of_type(TraceType.ALLS_WELL)
        # heartbeats were suppressed at the source, not filtered at delivery
        assert dep.monitor.count("trace.published.ALLS_WELL") == 0

    def test_interest_expiry_stops_publication(self):
        dep = build_deployment(
            broker_ids=["b1"], seed=5, gauge_interval_ms=1_000_000.0
        )
        dep.managers["b1"].interest_ttl_ms = 5_000.0
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("watcher", proactive_interest=True)
        tracker.connect("b1")
        entity.start("b1")
        dep.sim.run(until=2_000)
        tracker.track("svc")
        # tracker responds once; with no re-gauging its interest expires
        session_ttl = dep.manager_of("b1").session_of("svc")
        session_ttl.interest.ttl_ms = 5_000.0
        dep.sim.run(until=30_000)
        published = dep.monitor.count("trace.published.ALLS_WELL")
        assert published > 0
        suppressed = dep.metrics.counter_value("trace.suppressed_no_interest")
        assert suppressed > 0  # publications stopped after expiry


class TestLifecycle:
    def test_graceful_shutdown(self, dep):
        entity, log = bootstrap(dep)
        dep.sim.run(until=10_000)
        session = dep.manager_of("b1").session_of("svc")
        dep.sim.process(entity.shutdown())
        dep.sim.run(until=15_000)
        shutdown_traces = log.of_type(TraceType.SHUTDOWN)
        assert shutdown_traces
        assert not session.active
        assert dep.manager_of("b1").session_of("svc") is None
        pings_at_shutdown = dep.metrics.counter_value("tracker.pings.sent")
        dep.sim.run(until=25_000)
        assert dep.metrics.counter_value("tracker.pings.sent") <= pings_at_shutdown + 1

    def test_silent_mode(self, dep):
        entity, log = bootstrap(dep)
        dep.sim.run(until=10_000)
        session = dep.manager_of("b1").session_of("svc")
        dep.sim.process(entity.disable_tracing())
        dep.sim.run(until=15_000)
        assert log.of_type(TraceType.REVERTING_TO_SILENT_MODE)
        assert not session.active
        assert dep.manager_of("b1").session_of("svc") is None

    def test_disconnect_trace(self, dep):
        entity, log = bootstrap(dep)
        dep.sim.run(until=10_000)
        dep.manager_of("b1").handle_client_disconnect("svc")
        dep.sim.run(until=15_000)
        assert log.of_type(TraceType.DISCONNECT)


class TestObservability:
    """The repro.obs registry must agree with what the protocol did."""

    def test_broker_ingress_matches_legacy_counter(self, dep):
        bootstrap(dep)
        dep.sim.run(until=30_000)
        assert dep.metrics.counter_value("broker.msgs.ingress") == \
            dep.metrics.counter_value("broker.msgs.ingress")
        assert dep.metrics.counter_value("broker.msgs.ingress") > 0

    def test_delivery_counters_match_message_counts(self, dep):
        bootstrap(dep)
        dep.sim.run(until=30_000)
        delivered = dep.metrics.counter_value("broker.msgs.delivered")
        assert delivered == (
            dep.metrics.counter_value("broker.messages.delivered_client")
            + dep.metrics.counter_value("broker.messages.delivered_broker_local")
        )
        # every trace the tracker verified was first delivered by a broker
        assert delivered >= dep.metrics.counter_value("tracker.traces.received")
        assert dep.metrics.counter_value("tracker.traces.received") >= 10

    def test_trace_latency_histogram_matches_tracker_samples(self, dep):
        _, log = bootstrap(dep)
        dep.sim.run(until=30_000)
        hist = dep.metrics.histogram("tracker.trace.latency_ms.alls_well")
        latencies = log.latencies(TraceType.ALLS_WELL)
        assert hist.count == len(latencies)
        assert hist.mean == pytest.approx(sum(latencies) / len(latencies))

    def test_snapshot_covers_instrumented_families(self, dep):
        bootstrap(dep)
        dep.sim.run(until=30_000)
        families = set(dep.metrics.families())
        assert {"broker", "tracker", "transport", "tdn", "crypto"} <= families
        snapshot = dep.snapshot()
        assert snapshot == dep.monitor.metrics.snapshot()
        assert snapshot["counters"]["transport.msgs.sent"] > 0

    def test_violation_events_land_in_journal(self, dep):
        bootstrap(dep)
        broker = dep.network.broker("b1")
        broker._record_violation("mallory", "publish on Constrained/x")
        assert dep.metrics.counter_value("broker.violations") == 1
        violations = dep.journal.records("violation")
        assert violations and violations[-1].principal == "mallory"


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def run():
            dep = build_deployment(broker_ids=["b1", "b2"], seed=77)
            entity = dep.add_traced_entity("svc")
            tracker = dep.add_tracker("w")
            tracker.connect("b2")
            log = TraceLog(tracker)
            entity.start("b1")
            dep.sim.run(until=2_000)
            tracker.track("svc")
            dep.sim.run(until=20_000)
            return [
                (t.trace_type.value, round(t.received_ms, 9))
                for t in log.traces
            ]

        assert run() == run()
