"""Confidentiality end to end: trace keys, key distribution, decryption."""

import random

import pytest

from repro import build_deployment
from repro.auth.credentials import EntityCredentials
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.keys import SymmetricKey
from repro.messaging.message import Message
from repro.security.keydist import build_key_payload
from repro.tdn.query import DiscoveryRestrictions
from repro.tracing.traces import TraceType
from tests.support import TraceLog


@pytest.fixture
def dep():
    return build_deployment(broker_ids=["b1", "b2"], seed=300)


def bootstrap_secured(dep, tracker_count=1, sink=None):
    entity = dep.add_traced_entity("svc", secured=True)
    trackers = []
    for i in range(tracker_count):
        tracker = dep.add_tracker(f"watcher-{i}")
        tracker.connect("b2")
        if sink is not None:
            tracker.on_trace.append(sink)
        trackers.append(tracker)
    entity.start("b1")
    dep.sim.run(until=3_000)
    for tracker in trackers:
        tracker.track("svc")
    dep.sim.run(until=30_000)
    return entity, trackers


def sneak_in(dep, tracker, entity):
    """Subscribe ``tracker`` to ``entity``'s trace streams and answer for
    interest without TDN discovery, as a principal that learned the trace
    topic some other way would."""
    dep.sim.process(tracker._wire_subscriptions(entity.entity_id, entity.advertisement))


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

    def test_a_claimed_tracker_id_does_not_take_the_trackers_key(self, dep):
        """A tracker that claims to be another one by carrying its
        certificate cannot sign under that certificate's key: the response
        is refused and the forger gets no key, while the tracker it named
        gets its own when it asks."""
        entity = dep.add_traced_entity("svc", secured=True)
        mallory = dep.add_tracker("mallory")
        victim = dep.add_tracker("victim")
        for tracker in (mallory, victim):
            tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        keys = mallory.credentials.keys
        mallory.credentials = EntityCredentials("mallory", keys, victim.credentials.certificate)
        sneak_in(dep, mallory, entity)
        dep.sim.run(until=5_000)
        assert dep.metrics.counter_value("trace.interest_bad_signature") == 1
        assert dep.metrics.counter_value("trace.keys_distributed") == 0
        assert mallory.trace_key_for("svc") is None

        victim.track("svc")
        dep.sim.run(until=10_000)
        assert victim.trace_key_for("svc") == entity.trace_key
        assert victim.received
        assert dep.metrics.counter_value("trace.keys_distributed") == 1
        assert mallory.trace_key_for("svc") is None

    def test_a_certificate_from_another_ca_is_refused(self, dep):
        """A certificate the deployment's CA did not issue records no
        interest and takes no key, whatever subject it names."""
        entity = dep.add_traced_entity("svc", secured=True)
        rogue = dep.add_tracker("rogue")
        rogue.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        other_ca = CertificateAuthority(dep.ca.name, random.Random(5))
        rogue.credentials = EntityCredentials.issue("rogue", other_ca, random.Random(6))
        sneak_in(dep, rogue, entity)
        dep.sim.run(until=5_000)
        assert dep.metrics.counter_value("trace.interest_bad_signature") == 1
        assert dep.metrics.counter_value("trace.interest_recorded") == 0
        assert dep.metrics.counter_value("trace.keys_distributed") == 0
        assert rogue.trace_key_for("svc") is None

    def test_a_body_signed_under_another_key_is_refused(self, dep):
        """The signature must verify under the key of the certificate the
        response carries, not under any key the signer holds."""
        entity = dep.add_traced_entity("svc", secured=True)
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        certificate = tracker.credentials.certificate
        tracker.credentials = EntityCredentials("w", entity.credentials.keys, certificate)
        sneak_in(dep, tracker, entity)
        dep.sim.run(until=5_000)
        assert dep.metrics.counter_value("trace.interest_bad_signature") == 1
        assert dep.metrics.counter_value("trace.keys_distributed") == 0
        assert tracker.trace_key_for("svc") is None

    def test_the_key_goes_only_to_a_subject_that_may_discover_the_topic(self, dep):
        """The key is sealed under the advertisement's discovery
        restrictions: a certified principal that learned the topic without
        discovering it gets none, an admitted tracker gets it."""
        entity = dep.add_traced_entity(
            "svc", secured=True, restrictions=DiscoveryRestrictions.allow_only("victim")
        )
        mallory = dep.add_tracker("mallory")
        victim = dep.add_tracker("victim")
        for tracker in (mallory, victim):
            tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        sneak_in(dep, mallory, entity)
        dep.sim.run(until=5_000)
        assert mallory.trace_key_for("svc") is None
        assert dep.metrics.counter_value("trace.keys_distributed") == 0
        assert dep.metrics.counter_value("trace.keys_withheld") == 1

        victim.track("svc")
        dep.sim.run(until=10_000)
        assert victim.trace_key_for("svc") == entity.trace_key
        assert mallory.trace_key_for("svc") is None
        assert dep.metrics.counter_value("trace.keys_distributed") == 1

    def test_a_new_key_reaches_the_interested_trackers_at_once(self, dep):
        """A re-registered session seals its new key to every tracker still
        in the entity's interest registry when the key is installed, not at
        each tracker's next interest response (one refresh interval later
        here): no trace goes out under a key its trackers lack."""
        entity = dep.add_traced_entity("svc", secured=True)
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=10_000)
        old_key = entity.trace_key
        dep.sim.process(entity.reregister())
        dep.sim.run(until=20_000)
        assert entity.trace_key != old_key
        assert tracker.trace_key_for("svc") == entity.trace_key
        assert dep.metrics.counter_value("tracker.traces_undecryptable") == 0
        assert tracker.received[-1].received_ms > 15_000

    def test_a_second_key_on_one_session_reaches_the_keyed_tracker(self, dep):
        """The hand-off is once per subject and key: a session whose entity
        establishes a new trace key seals that one too."""
        entity, (tracker,) = bootstrap_secured(dep)
        first = entity.trace_key
        dep.sim.process(entity.establish_trace_key())
        dep.sim.run(until=35_000)
        assert entity.trace_key != first
        assert tracker.trace_key_for("svc") == entity.trace_key
        assert dep.metrics.counter_value("trace.keys_distributed") == 2

    def test_a_tracker_that_tracks_again_gets_the_key_again(self, dep):
        """Untracking drops the tracker's copy of the key and retracts its
        interest, so tracking the same session again hands the key out
        again instead of leaving every secured trace unreadable."""
        entity, (tracker,) = bootstrap_secured(dep)
        tracker.untrack("svc")
        dep.sim.run(until=32_000)
        tracker.track("svc")
        dep.sim.run(until=40_000)
        assert tracker.trace_key_for("svc") == entity.trace_key
        assert dep.metrics.counter_value("tracker.traces_no_key_yet") == 0

    def test_a_superseded_session_hands_no_old_key_to_a_new_tracker(self, dep):
        """After the entity re-registers with a fresh trace key, a tracker
        that gauges interest only then gets one key, the current one: the
        superseded session no longer answers on the shared interest topic."""
        entity, _ = bootstrap_secured(dep)
        old_key = entity.trace_key
        host, retracted = dep.network.broker("b1"), []
        retract = host._retract
        host._retract = lambda pattern, owner: (retracted.append(pattern), retract(pattern, owner))
        dep.sim.process(entity.reregister())
        dep.sim.run(until=40_000)
        assert entity.trace_key != old_key
        assert dep.metrics.counter_value("trace.sessions_superseded") == 1
        # the new session listened on the interest topic before the old
        # one was retired: the broker's interest in it never lapsed
        interest_topic = dep.manager_of("b1").session_of("svc").topics.interest_response
        assert interest_topic.canonical not in retracted

        late = dep.add_tracker("late")
        late.connect("b2")
        late.track("svc")
        dep.sim.run(until=70_000)
        handed = [
            record
            for record in dep.journal.records("key.distributed")
            if record.fields["tracker"] == "late"
        ]
        assert len(handed) == 1
        assert late.trace_key_for("svc") == entity.trace_key

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
        heard = []
        bootstrap_secured(dep, sink=heard.append)
        heartbeats = [t for t in heard if t.trace_type is TraceType.ALLS_WELL]
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
            assert message.body.value.get("secured") is True
            assert "payload" not in message.body.value

    def test_latencies_higher_than_auth_only(self):
        """auth+security costs more than auth alone (Table 3 gap)."""

        def mean_latency(secured):
            dep = build_deployment(broker_ids=["b1", "b2"], seed=301)
            entity = dep.add_traced_entity(
                "svc", secured=secured, machine_name="host"
            )
            tracker = dep.add_tracker("w", machine_name="host")
            tracker.connect("b2")
            log = TraceLog(tracker)
            entity.start("b1")
            dep.sim.run(until=3_000)
            tracker.track("svc")
            dep.sim.run(until=60_000)
            latencies = log.latencies(TraceType.ALLS_WELL)
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
        snoop_log, keyed_log = TraceLog(snoop), TraceLog(keyed)
        entity.start("b1")
        dep.sim.run(until=3_000)
        keyed.track("svc")
        snoop.track("svc")  # subscribes but never answers gauge requests
        dep.sim.run(until=30_000)

        assert keyed_log.of_type(TraceType.ALLS_WELL)
        assert not snoop_log.of_type(TraceType.ALLS_WELL)
        assert snoop.monitor.metrics.counter_value("tracker.traces_no_key_yet") > 0 or \
            dep.metrics.counter_value("tracker.traces_no_key_yet") > 0

    @staticmethod
    def _victim_traces_by_90s(disguise=None) -> tuple[int, int]:
        """The victim's traces by t = 90 s, and the refused interest
        responses, when ``disguise(mallory, victim)`` runs before mallory
        stops tracking."""
        dep = build_deployment(broker_ids=["b1", "b2"], seed=300)
        entity = dep.add_traced_entity("svc")
        mallory = dep.add_tracker("mallory", proactive_interest=False)
        victim = dep.add_tracker("victim")
        for tracker in (mallory, victim):
            tracker.connect("b2")
        victim_log = TraceLog(victim)
        entity.start("b1")
        dep.sim.run(until=3_000)
        victim.track("svc")
        mallory.track("svc")
        dep.sim.run(until=5_000)
        if disguise is not None:
            disguise(mallory, victim)
        mallory.untrack("svc")
        dep.sim.run(until=90_000)
        return len(victim_log), dep.metrics.counter_value("trace.interest_bad_signature")

    def test_a_tracker_cannot_retract_another_trackers_interest(self):
        """A retraction is recorded under the certificate it is signed
        under: a tracker that calls itself the victim when it stops
        tracking withdraws only its own interest, so the victim receives
        the same traces as when it does not."""

        def claim_the_victims_id(mallory, victim):
            mallory.tracker_id = "victim"

        honest = self._victim_traces_by_90s()
        assert self._victim_traces_by_90s(claim_the_victims_id) == honest

    def test_a_retraction_under_another_trackers_certificate_is_refused(self):
        """A retraction that carries the victim's certificate but is signed
        with the sender's own key is refused, and the victim keeps
        receiving every trace it would have."""

        def carry_the_victims_certificate(mallory, victim):
            keys = mallory.credentials.keys
            mallory.credentials = EntityCredentials(
                "mallory", keys, victim.credentials.certificate
            )

        traces, refused = self._victim_traces_by_90s()
        assert self._victim_traces_by_90s(carry_the_victims_certificate) == (traces, refused + 1)
