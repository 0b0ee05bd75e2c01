"""Unit tests for the DoS attacker models (integration in tests/integration)."""

import pytest

from repro import build_deployment
from repro.security.dos import SpuriousTracePublisher, attack_surface


@pytest.fixture
def dep():
    return build_deployment(broker_ids=["b1", "b2", "b3"], seed=1500)


class TestAttackSurface:
    def test_no_clients_anywhere(self, dep):
        surface = attack_surface(dep.network, "b1", "ghost")
        assert surface["brokers_knowing_location"] == []
        assert not surface["location_confined_to_hosting_broker"]

    def test_single_hosting_broker(self, dep):
        client = dep.network.add_client("svc")
        dep.network.connect_client(client, "b2")
        surface = attack_surface(dep.network, "b2", "svc")
        assert surface["brokers_knowing_location"] == ["b2"]
        assert surface["location_confined_to_hosting_broker"]

    def test_wrong_expected_broker_flagged(self, dep):
        client = dep.network.add_client("svc")
        dep.network.connect_client(client, "b2")
        surface = attack_surface(dep.network, "b1", "svc")
        assert not surface["location_confined_to_hosting_broker"]


class TestSpuriousPublisher:
    def test_attempt_counter(self, dep):
        entity = dep.add_traced_entity("victim")
        entity.start("b1")
        dep.sim.run(until=3_000)
        attacker = SpuriousTracePublisher(
            dep.sim, "mallory", dep.network, dep.network.machine("m-mallory")
        )
        attacker.connect("b3")
        dep.sim.process(
            attacker.flood(entity.advertisement.fields.trace_topic, "victim", count=5)
        )
        dep.sim.run(until=10_000)
        # blacklisting cuts the flood short at the violation limit
        limit = dep.network.broker("b3").violation_limit
        assert attacker.attempts >= limit
        assert attacker.attempts <= 5

    def test_flood_after_termination_is_dropped_cheaply(self, dep):
        """After termination the attacker may keep sending, but everything
        is dropped at ingress without reaching constraint checks."""
        entity = dep.add_traced_entity("victim")
        entity.start("b1")
        dep.sim.run(until=3_000)
        attacker = SpuriousTracePublisher(
            dep.sim, "mallory", dep.network, dep.network.machine("m-mallory")
        )
        attacker.connect("b3")
        dep.sim.process(
            attacker.flood(entity.advertisement.fields.trace_topic, "victim", count=50)
        )
        dep.sim.run(until=60_000)
        broker = dep.network.broker("b3")
        assert broker.is_blacklisted("mallory")
        limit = broker.violation_limit
        violations = sum(
            record.principal == "mallory" for record in dep.journal.records("violation")
        )
        dropped = dep.metrics.counter_value("broker.dos.dropped_blacklisted")
        # termination kicks in at the limit; a couple of in-flight messages
        # may still be judged, everything after is dropped at ingress
        assert limit <= violations <= limit + 5
        assert violations + dropped == attacker.attempts
