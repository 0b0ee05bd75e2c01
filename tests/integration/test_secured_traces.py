"""Confidentiality end to end: trace keys, key distribution, decryption."""

import random

import pytest

from repro import build_deployment
from repro.crypto.keys import SymmetricKey
from repro.messaging.message import Message
from repro.security.keydist import build_key_payload
from repro.tracing.traces import TraceType


@pytest.fixture
def dep():
    return build_deployment(broker_ids=["b1", "b2"], seed=300)


def bootstrap_secured(dep, tracker_count=1):
    entity = dep.add_traced_entity("svc", secured=True)
    trackers = []
    for i in range(tracker_count):
        tracker = dep.add_tracker(f"watcher-{i}")
        tracker.connect("b2")
        trackers.append(tracker)
    entity.start("b1")
    dep.sim.run(until=3_000)
    for tracker in trackers:
        tracker.track("svc")
    dep.sim.run(until=30_000)
    return entity, trackers


class TestKeyDistribution:
    def test_authorized_tracker_receives_key(self, dep):
        entity, (tracker,) = bootstrap_secured(dep)
        key = tracker.trace_key_for("svc")
        assert key is not None
        assert key == entity.trace_key

    def test_key_distributed_once_per_tracker(self, dep):
        _, trackers = bootstrap_secured(dep, tracker_count=3)
        dep.sim.run(until=60_000)
        assert dep.metrics.counter_value("trace.keys_distributed") == 3

    def test_key_receipt_time_recorded(self, dep):
        _, (tracker,) = bootstrap_secured(dep)
        assert dep.metrics.counter_value("tracker.keys.received") == 1

    def test_wrong_kind_on_the_key_topic_is_rejected(self, dep):
        """A well-sealed body of another kind is not a key delivery."""
        entity = dep.add_traced_entity("svc", secured=True)
        tracker = dep.add_tracker("watcher", proactive_interest=False)
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=5_000)
        topics = dep.manager_of("b1").session_of("svc").topics

        rng = random.Random(7)
        body = build_key_payload(
            SymmetricKey.generate(rng),
            topics.trace_topic.hex,
            tracker.credentials.public_key,
            rng,
        ).to_dict()
        body["kind"] = "ping"
        dep.network.broker("b2").publish_from_broker(
            Message(
                topic=topics.key_delivery("watcher"),
                body=body,
                source="b2",
                created_ms=dep.sim.now,
            )
        )
        dep.sim.run(until=8_000)

        assert tracker.monitor.metrics.counter_value("tracker.key_payload_rejected") == 1
        assert tracker.trace_key_for("svc") is None


class TestEncryptedTraces:
    def test_traces_decrypt_at_keyed_tracker(self, dep):
        _, (tracker,) = bootstrap_secured(dep)
        heartbeats = tracker.traces_of_type(TraceType.ALLS_WELL)
        assert heartbeats
        assert all("rtt_ms" in t.payload for t in heartbeats)

    def test_wire_bodies_are_ciphertext(self, dep):
        """On the wire the trace payload is unreadable."""
        captured = []
        entity = dep.add_traced_entity("svc", secured=True)
        tracker = dep.add_tracker("watcher")
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=5_000)

        # tap the raw messages arriving at b2 for the heartbeat topic
        topics = dep.manager_of("b1").session_of("svc").topics
        dep.network.broker("b2").subscribe_local(
            topics.all_updates.canonical, captured.append
        )
        dep.sim.run(until=20_000)
        assert captured
        for message in captured:
            assert message.encrypted
            assert message.body.get("secured") is True
            assert "payload" not in message.body

    def test_latencies_higher_than_auth_only(self):
        """auth+security costs more than auth alone (Table 3 gap)."""

        def mean_latency(secured):
            dep = build_deployment(broker_ids=["b1", "b2"], seed=301)
            entity = dep.add_traced_entity(
                "svc", secured=secured, machine_name="host"
            )
            tracker = dep.add_tracker("w", machine_name="host")
            tracker.connect("b2")
            entity.start("b1")
            dep.sim.run(until=3_000)
            tracker.track("svc")
            dep.sim.run(until=60_000)
            latencies = tracker.latencies(TraceType.ALLS_WELL)
            return sum(latencies) / len(latencies)

        assert mean_latency(True) > mean_latency(False) + 5.0


class TestUnauthorizedAccess:
    def test_tracker_without_key_cannot_read(self, dep):
        """A tracker subscribed but never keyed drops secured traces."""
        entity = dep.add_traced_entity("svc", secured=True)
        snoop = dep.add_tracker("snoop", proactive_interest=False)
        snoop.connect("b2")
        keyed = dep.add_tracker("legit")
        keyed.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        keyed.track("svc")
        snoop.track("svc")  # subscribes but never answers gauge requests
        dep.sim.run(until=30_000)

        assert keyed.traces_of_type(TraceType.ALLS_WELL)
        assert not snoop.traces_of_type(TraceType.ALLS_WELL)
        assert snoop.monitor.metrics.counter_value("tracker.traces_no_key_yet") > 0 or \
            dep.metrics.counter_value("tracker.traces_no_key_yet") > 0
