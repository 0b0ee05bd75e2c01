"""Denial-of-service defenses end to end (section 5.2)."""

import pytest

from repro import build_deployment
from repro.security.dos import SpuriousTracePublisher, attack_surface
from repro.tracing.traces import TraceType
from tests.support import run_process


@pytest.fixture
def dep():
    return build_deployment(broker_ids=["b1", "b2"], seed=500)


def bootstrap(dep):
    entity = dep.add_traced_entity("victim")
    tracker = dep.add_tracker("watcher")
    tracker.connect("b2")
    entity.start("b1")
    dep.sim.run(until=3_000)
    tracker.track("victim")
    dep.sim.run(until=6_000)
    return entity, tracker


class TestSpuriousTraces:
    def test_tokenless_trace_discarded(self, dep):
        entity, tracker = bootstrap(dep)
        attacker = SpuriousTracePublisher(
            dep.sim, "mallory", dep.network, dep.network.machine("mallory-host")
        )
        attacker.connect("b2")
        before = len(tracker.traces_of_type(TraceType.FAILED))
        dep.sim.process(
            attacker.inject_without_token(entity.advertisement.fields.trace_topic, "victim")
        )
        dep.sim.run(until=10_000)
        assert len(tracker.traces_of_type(TraceType.FAILED)) == before
        # rejected at the first line of defense: the constrained-topic rule
        # (entities may not publish on Broker/Publish-Only topics); the token
        # guard would catch it too if the constraint were ever bypassed
        assert dep.metrics.counter_value("broker.messages.rejected_constrained") >= 1

    def test_forged_token_trace_discarded(self, dep):
        entity, tracker = bootstrap(dep)
        attacker = SpuriousTracePublisher(
            dep.sim, "mallory", dep.network, dep.network.machine("mallory-host")
        )
        attacker.connect("b2")
        dep.sim.process(
            attacker.inject_with_forged_token(
                entity.advertisement.fields.trace_topic, "victim", entity.advertisement
            )
        )
        dep.sim.run(until=10_000)
        assert not tracker.traces_of_type(TraceType.FAILED)
        assert dep.metrics.counter_value("broker.messages.rejected_constrained") >= 1

    def test_flood_triggers_termination(self, dep):
        entity, tracker = bootstrap(dep)
        attacker = SpuriousTracePublisher(
            dep.sim, "mallory", dep.network, dep.network.machine("mallory-host")
        )
        attacker.connect("b2")
        dep.sim.process(
            attacker.flood(entity.advertisement.fields.trace_topic, "victim", count=10)
        )
        dep.sim.run(until=20_000)
        broker = dep.network.broker("b2")
        assert broker.is_blacklisted("mallory")
        assert dep.metrics.counter_value("broker.dos.terminated") >= 1
        # the victim's trace stream is unaffected throughout
        assert tracker.traces_of_type(TraceType.ALLS_WELL)
        assert not tracker.traces_of_type(TraceType.FAILED)

    def test_victim_not_declared_failed_during_attack(self, dep):
        entity, tracker = bootstrap(dep)
        attacker = SpuriousTracePublisher(
            dep.sim, "mallory", dep.network, dep.network.machine("mallory-host")
        )
        attacker.connect("b1")  # even from the victim's own broker
        dep.sim.process(
            attacker.flood(entity.advertisement.fields.trace_topic, "victim", count=20)
        )
        dep.sim.run(until=30_000)
        session = dep.manager_of("b1").session_of("victim")
        assert not session.declared_failed


class TestCompromisedBroker:
    """Second line of defense: even a broker cannot publish traces without
    a token the topic owner signed (section 4.3)."""

    def test_tokenless_broker_publication_not_routed(self, dep):
        entity, tracker = bootstrap(dep)
        from repro.messaging.message import Message
        from repro.messaging.topics import Topic

        session = dep.manager_of("b1").session_of("victim")
        rogue_broker = dep.network.broker("b1")
        before = len(tracker.traces_of_type(TraceType.FAILED))
        rogue_broker.publish_from_broker(
            Message(
                topic=Topic.parse(session.topics.change_notifications.canonical),
                body={"trace_type": "FAILED", "entity_id": "victim",
                      "payload": {}, "origin_stamp_ms": None},
                source="b1",
            )
        )
        dep.sim.run(until=10_000)
        assert len(tracker.traces_of_type(TraceType.FAILED)) == before
        assert dep.metrics.counter_value("auth.missing_token") >= 1

    def test_forged_token_broker_publication_not_routed(self, dep):
        entity, tracker = bootstrap(dep)
        from repro.auth.tokens import AuthorizationToken, TokenRights
        from repro.crypto.keys import KeyPair
        from repro.crypto.signing import sign_payload
        from repro.messaging.message import Message
        from repro.messaging.topics import Topic

        session = dep.manager_of("b1").session_of("victim")
        rogue_keys = KeyPair.generate(dep.network.machine("rogue").rng)
        token, token_private = AuthorizationToken.create(
            advertisement=entity.advertisement,
            owner_private_key=rogue_keys.private,  # not the topic owner
            rights=TokenRights.PUBLISH,
            now_ms=dep.sim.now,
            duration_ms=600_000.0,
            rng=dep.network.machine("rogue").rng,
        )
        body = {"trace_type": "FAILED", "entity_id": "victim",
                "payload": {}, "origin_stamp_ms": None}
        envelope = sign_payload(body, token_private)
        dep.network.broker("b1").publish_from_broker(
            Message(
                topic=Topic.parse(session.topics.change_notifications.canonical),
                body=body,
                source="b1",
                signature=envelope.to_dict(),
                auth_token=token.wire,
            )
        )
        dep.sim.run(until=10_000)
        assert not tracker.traces_of_type(TraceType.FAILED)
        assert dep.metrics.counter_value("auth.invalid_token") >= 1


class TestLocationHiding:
    def test_only_hosting_broker_knows_location(self, dep):
        bootstrap(dep)
        surface = attack_surface(dep.network, "b1", "victim")
        assert surface["location_confined_to_hosting_broker"]
        assert surface["brokers_knowing_location"] == ["b1"]

    def test_topic_reregistration_after_compromise(self, dep):
        """Section 5.2: if the trace topic leaks, register a fresh one."""
        entity, tracker = bootstrap(dep)
        old_topic = entity.advertisement.fields.trace_topic
        run_process(dep.sim, entity.create_trace_topic())
        assert entity.advertisement.fields.trace_topic != old_topic
