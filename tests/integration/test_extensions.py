"""Extension features: topic renewal, discovered startup, gap detection."""

import pytest

from repro import build_deployment
from repro.errors import RegistrationError
from repro.messaging.discovery import PlacementPolicy
from repro.tdn.advertisement import TopicRenewal
from repro.tracing.traces import TraceType
from repro.transport.udp import udp_profile
from tests.support import run_process, succeeded


@pytest.fixture
def dep():
    return build_deployment(broker_ids=["b1", "b2"], seed=1300)


class TestTopicRenewal:
    def test_owner_extends_lifetime(self, dep):
        entity = dep.add_traced_entity("svc")
        entity.topic_lifetime_ms = 60_000.0
        run_process(dep.sim, entity.create_trace_topic())
        old_expiry = entity.advertisement.fields.lifetime.expires_ms
        run_process(dep.sim, entity.renew_topic(120_000.0))
        assert entity.advertisement.fields.lifetime.expires_ms == old_expiry + 120_000.0
        assert dep.metrics.counter_value("tdn.topics_renewed") == 1

    def test_renewed_topic_discoverable_past_original_expiry(self, dep):
        entity = dep.add_traced_entity("svc")
        entity.topic_lifetime_ms = 20_000.0
        run_process(dep.sim, entity.create_trace_topic())
        run_process(dep.sim, entity.renew_topic(600_000.0))
        dep.sim.run(until=100_000.0)  # past the original 20s lifetime
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        tracker.track("svc")
        dep.sim.run(until=110_000.0)
        assert dep.metrics.counter_value("tracker.tracking") == 1

    def test_non_owner_cannot_renew(self, dep):
        entity = dep.add_traced_entity("svc")
        imposter = dep.add_traced_entity("imposter")
        run_process(dep.sim, entity.create_trace_topic())
        fields = entity.advertisement.fields
        renewal = TopicRenewal(fields.trace_topic, fields.lifetime.duration_ms, 1e9)
        forged = imposter.credentials.sign(renewal.to_dict())
        with pytest.raises(RegistrationError, match="^renewal not signed by owner: "):
            run_process(dep.sim, dep.tdn.renew_topic(renewal, forged))

    def test_replayed_renewal_extends_once(self, dep):
        """One signed renewal extends the lifetime it names, and only once."""
        entity = dep.add_traced_entity("svc")
        run_process(dep.sim, entity.create_trace_topic())
        fields = entity.advertisement.fields
        renewal = TopicRenewal(fields.trace_topic, fields.lifetime.duration_ms, 60_000.0)
        envelope = entity.credentials.sign(renewal.to_dict())
        renewed = run_process(dep.sim, dep.tdn.renew_topic(renewal, envelope))
        extended = fields.lifetime.duration_ms + 60_000.0
        assert renewed.fields.lifetime.duration_ms == extended
        with pytest.raises(RegistrationError, match="^stale renewal: "):
            run_process(dep.sim, dep.tdn.renew_topic(renewal, envelope))
        stored = dep.tdn.nodes[0].store.get(fields.trace_topic, dep.sim.now)
        assert stored.fields.lifetime.duration_ms == extended
        assert dep.metrics.counter_value("tdn.topics_renewed") == 1

    def test_expired_topic_cannot_be_renewed(self, dep):
        entity = dep.add_traced_entity("svc")
        entity.topic_lifetime_ms = 1_000.0
        run_process(dep.sim, entity.create_trace_topic())
        dep.sim.run(until=10_000.0)  # lifetime elapsed
        with pytest.raises(RegistrationError):
            run_process(dep.sim, entity.renew_topic(60_000.0))

    def test_zero_extension_rejected(self, dep):
        entity = dep.add_traced_entity("svc")
        run_process(dep.sim, entity.create_trace_topic())
        with pytest.raises(RegistrationError):
            run_process(dep.sim, entity.renew_topic(0.0))

    def test_renewal_replicates(self, dep):
        entity = dep.add_traced_entity("svc")
        run_process(dep.sim, entity.create_trace_topic())
        run_process(dep.sim, entity.renew_topic(60_000.0))
        dep.sim.run(until=dep.sim.now + 100.0)  # replication callbacks
        for node in dep.tdn.nodes:
            stored = node.store.get(entity.advertisement.fields.trace_topic, dep.sim.now)
            assert stored is not None
            assert stored.fields.lifetime.expires_ms == entity.advertisement.fields.lifetime.expires_ms


class TestDiscoveredStartup:
    def test_entity_finds_broker_via_discovery(self, dep):
        entity = dep.add_traced_entity("svc")
        proc = entity.start_discovered(dep.discovery)
        dep.sim.run(until=5_000)
        assert succeeded(proc)
        assert entity.session_id is not None
        assert entity.client.broker.broker_id in ("b1", "b2")

    def test_least_loaded_policy(self, dep):
        # load up b1 with clients
        for i in range(3):
            client = dep.network.add_client(f"filler-{i}")
            dep.network.connect_client(client, "b1")
        entity = dep.add_traced_entity("svc")
        proc = entity.start_discovered(
            dep.discovery, policy=PlacementPolicy.LEAST_LOADED
        )
        dep.sim.run(until=5_000)
        assert succeeded(proc)
        assert entity.client.broker.broker_id == "b2"


class TestGapDetection:
    def test_no_gaps_on_reliable_transport(self, dep):
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=40_000)
        assert dep.metrics.counter_value("tracker.traces_missed") == 0

    def test_gaps_detected_on_lossy_udp(self):
        # broker-to-broker links are lossy UDP; the entity and tracker use
        # reliable client links (transport independence lets each leg pick
        # its own transport)
        from repro.transport.tcp import tcp_profile

        dep = build_deployment(
            broker_ids=["b1", "b2"],
            seed=1301,
            profile=udp_profile(loss_probability=0.25),
        )
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b2", transport_profile=tcp_profile())
        entity.start("b1", transport_profile=tcp_profile())
        dep.sim.run(until=5_000)
        tracker.track("svc")
        dep.sim.run(until=120_000)
        received = len(tracker.received)
        assert received > 0
        # with 25% per-link loss across several links, some traces vanish
        assert dep.metrics.counter_value("tracker.traces_missed") > 0


class TestRegistrationRetries:
    def test_lossy_link_registration_eventually_succeeds(self):
        """A dropped registration request is retried until it lands."""
        dep = build_deployment(
            broker_ids=["b1"],
            seed=1302,
            profile=udp_profile(loss_probability=0.35),
        )
        entity = dep.add_traced_entity("svc")
        entity.registration_timeout_ms = 2_000.0
        entity.registration_attempts = 8
        proc = entity.start("b1")
        dep.sim.run(until=60_000)
        assert succeeded(proc), proc._exception
        assert entity.session_id is not None

    def test_retries_counted(self):
        dep = build_deployment(
            broker_ids=["b1"],
            seed=1304,
            profile=udp_profile(loss_probability=0.6),
        )
        entity = dep.add_traced_entity("svc")
        entity.registration_timeout_ms = 1_000.0
        entity.registration_attempts = 10
        entity.start("b1")
        dep.sim.run(until=60_000)
        # with 60% loss per leg, at least one retry is near-certain
        assert dep.metrics.counter_value("entity.registration_retries") >= 1


class TestUntrack:
    def test_untrack_stops_delivery_and_publication(self, dep):
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=15_000)
        assert tracker.traces_of_type(TraceType.ALLS_WELL)

        proc = tracker.untrack("svc")
        dep.sim.run(until=17_000)
        assert proc.value is True
        received_at_untrack = len(tracker.received)
        published_at_untrack = dep.monitor.count("trace.published.ALLS_WELL")

        dep.sim.run(until=40_000)
        # nothing more delivered to the tracker ...
        assert len(tracker.received) == received_at_untrack
        # ... and (being the only tracker) publication stopped at once,
        # well before the interest TTL would have expired
        published_after = dep.monitor.count("trace.published.ALLS_WELL")
        assert published_after <= published_at_untrack + 2
        assert dep.metrics.counter_value("trace.suppressed_no_interest") > 0

    def test_untrack_unknown_entity_returns_false(self, dep):
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        proc = tracker.untrack("ghost")
        dep.sim.run(until=1_000)
        assert proc.value is False

    def test_other_trackers_unaffected(self, dep):
        entity = dep.add_traced_entity("svc")
        stayer = dep.add_tracker("stayer")
        leaver = dep.add_tracker("leaver")
        stayer.connect("b2")
        leaver.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        stayer.track("svc")
        leaver.track("svc")
        dep.sim.run(until=10_000)
        leaver.untrack("svc")
        dep.sim.run(until=30_000)
        late = [t for t in stayer.traces_of_type(TraceType.ALLS_WELL)
                if t.received_ms > 12_000]
        assert late
