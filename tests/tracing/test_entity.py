"""Unit-level tests of the traced entity's error paths and edge cases."""

import random

import pytest

from repro import build_deployment
from repro.crypto.signing import seal_for
from repro.errors import RegistrationError
from repro.messaging.message import Message
from repro.tracing.traces import EntityState
from tests.support import run_process, succeeded


@pytest.fixture
def dep():
    return build_deployment(broker_ids=["b1"], seed=1200)


class TestStartupPreconditions:
    def test_register_before_topic_creation_fails(self, dep):
        entity = dep.add_traced_entity("svc")
        with pytest.raises(RegistrationError):
            run_process(dep.sim, entity.register())

    def test_session_required_for_reports(self, dep):
        entity = dep.add_traced_entity("svc")
        with pytest.raises(RegistrationError):
            run_process(dep.sim, entity.report_state(EntityState.READY))
        with pytest.raises(RegistrationError):
            run_process(dep.sim, entity.disable_tracing())

    def test_token_delivery_requires_registration(self, dep):
        entity = dep.add_traced_entity("svc")
        run_process(dep.sim, entity.create_trace_topic())
        with pytest.raises(RegistrationError):
            run_process(dep.sim, entity.deliver_token())


class TestRegistrationTimeout:
    def test_times_out_when_broker_unresponsive(self, dep):
        entity = dep.add_traced_entity("svc")
        entity.registration_timeout_ms = 2_000.0
        dep.network.fail_broker("b1")  # broker drops everything
        proc = entity.start("b1")
        dep.sim.run(until=30_000)
        assert proc.triggered and not succeeded(proc)
        with pytest.raises(RegistrationError):
            _ = proc.value


class TestMalformedRegistrationResponse:
    @pytest.mark.parametrize("layer", ["sealed-body", "opened-payload"])
    def test_unreadable_response_ends_in_registration_error(self, dep, layer):
        """Used to leave ``register`` with a KeyError (sealed body) or a
        ValueError (payload) instead of the named error."""
        entity = dep.add_traced_entity("svc")
        manager = dep.manager_of("b1")
        publish = manager._publish_plain

        def corrupting(topic, body):
            if "Registration-Response" in topic.canonical:
                if layer == "sealed-body":
                    body = {"wrapped_key": 7}
                else:
                    body = seal_for(
                        {"request_id": "x"}, entity.credentials.public_key, random.Random(1)
                    ).to_dict()
            publish(topic, body)

        manager._publish_plain = corrupting
        proc = entity.start("b1")
        dep.sim.run(until=30_000)
        assert proc.triggered and not succeeded(proc)
        with pytest.raises(RegistrationError):
            _ = proc.value


class TestStateMachine:
    def test_full_lifecycle(self, dep):
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=3_000)
        assert entity.state is EntityState.READY
        run_process(dep.sim, entity.report_state(EntityState.RECOVERING))
        assert entity.state is EntityState.RECOVERING
        run_process(dep.sim, entity.report_state(EntityState.READY))
        run_process(dep.sim, entity.report_state(EntityState.SHUTDOWN))
        assert entity.state is EntityState.SHUTDOWN

    def test_shutdown_is_terminal(self, dep):
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=3_000)
        run_process(dep.sim, entity.shutdown())
        with pytest.raises(ValueError):
            run_process(dep.sim, entity.report_state(EntityState.READY))

    def test_same_state_report_allowed(self, dep):
        """Re-announcing the current state is a refresh, not a transition."""
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=3_000)
        run_process(dep.sim, entity.report_state(EntityState.READY))
        assert entity.state is EntityState.READY


class TestCrashSemantics:
    def test_crashed_entity_ignores_pings(self, dep):
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=3_000)
        answered_before = dep.metrics.counter_value("entity.pings_answered")
        entity.crash()
        dep.sim.run(until=10_000)
        assert dep.metrics.counter_value("entity.pings_answered") <= answered_before + 1

    def test_silent_entity_ignores_pings(self, dep):
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=3_000)
        run_process(dep.sim, entity.disable_tracing())
        answered = dep.metrics.counter_value("entity.pings_answered")
        dep.sim.run(until=15_000)
        assert dep.metrics.counter_value("entity.pings_answered") == answered


class TestMalformedPing:
    def test_malformed_ping_is_counted_and_dropped(self, dep):
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=3_000)
        dep.network.broker("b1").publish_from_broker(
            Message(
                topic=entity.topics.broker_to_entity(entity.session_id),
                body={"kind": "ping", "number": "x", "issued_ms": 0.0},
                source="b1",
                created_ms=dep.sim.now,
            )
        )
        dep.sim.run(until=3_500)
        assert dep.metrics.counter_value("entity.pings_malformed") == 1
        answered = dep.metrics.counter_value("entity.pings_answered")
        dep.sim.run(until=10_000)
        assert dep.metrics.counter_value("entity.pings_answered") > answered


    @pytest.mark.parametrize("pings", [7, [7], [{"entity_id": "svc", "number": 1}, None]])
    def test_malformed_ping_batch_is_counted_and_dropped(self, dep, pings):
        """``"pings": 7`` used to raise TypeError out of ``Simulator.run``."""
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=3_000)
        dep.network.broker("b1").publish_from_broker(
            Message(
                topic=entity.topics.broker_to_entity(entity.session_id),
                body={"kind": "ping_batch", "pings": pings},
                source="b1",
                created_ms=dep.sim.now,
            )
        )
        dep.sim.run(until=3_500)
        assert dep.metrics.counter_value("entity.pings_malformed") == 1
        answered = dep.metrics.counter_value("entity.pings_answered")
        dep.sim.run(until=10_000)
        assert dep.metrics.counter_value("entity.pings_answered") > answered


class TestTrackerPreconditions:
    def test_track_before_connect_raises(self, dep):
        from repro.errors import NotConnectedError

        tracker = dep.add_tracker("w")
        proc = tracker.track("anything")
        dep.sim.run(until=1_000)
        assert proc.triggered and not succeeded(proc)
        with pytest.raises(NotConnectedError):
            _ = proc.value
