"""Authorization end to end: discovery restrictions, tokens, tampering."""

import pytest

from repro import build_deployment
from repro.crypto.signing import sign_payload
from repro.errors import DiscoveryError
from repro.messaging.message import Message
from repro.tdn.query import DiscoveryRestrictions
from repro.tracing.traces import TraceType
from repro.util.serialization import Canonical
from tests.support import succeeded


@pytest.fixture
def dep():
    return build_deployment(broker_ids=["b1", "b2"], seed=400)


class TestDiscoveryRestrictions:
    def test_unauthorized_tracker_cannot_proceed(self, dep):
        entity = dep.add_traced_entity(
            "svc", restrictions=DiscoveryRestrictions.allow_only("friend")
        )
        stranger = dep.add_tracker("stranger")
        stranger.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        proc = stranger.track("svc")
        dep.sim.run(until=5_000)
        assert proc.triggered and not succeeded(proc)
        with pytest.raises(DiscoveryError):
            _ = proc.value

    def test_authorized_tracker_proceeds(self, dep):
        entity = dep.add_traced_entity(
            "svc", restrictions=DiscoveryRestrictions.allow_only("friend")
        )
        friend = dep.add_tracker("friend")
        friend.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        friend.track("svc")
        dep.sim.run(until=20_000)
        assert friend.traces_of_type(TraceType.ALLS_WELL)


class TestTokenEnforcement:
    def test_traces_carry_valid_tokens(self, dep):
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=20_000)
        assert tracker.received
        assert dep.metrics.counter_value("tracker.tokens_rejected") == 0
        assert dep.metrics.counter_value("auth.invalid_token") == 0

    def test_expired_token_stops_publication(self):
        dep = build_deployment(broker_ids=["b1"], seed=401)
        entity = dep.add_traced_entity("svc")
        entity.token_validity_ms = 10_000.0  # short-lived token
        tracker = dep.add_tracker("w")
        tracker.connect("b1")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=60_000)
        # publication halted once the token expired (entity never refreshed)
        assert dep.metrics.counter_value("trace.token_expired") > 0
        last_received = max(t.received_ms for t in tracker.received)
        assert last_received < 12_000.0

    def test_token_refresh_restores_publication(self):
        dep = build_deployment(broker_ids=["b1"], seed=402)
        entity = dep.add_traced_entity("svc")
        entity.token_validity_ms = 10_000.0
        tracker = dep.add_tracker("w")
        tracker.connect("b1")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=15_000)  # token now expired

        def refresh():
            yield from entity.refresh_token()

        dep.sim.process(refresh())
        dep.sim.run(until=40_000)
        assert any(t.received_ms > 16_000 for t in tracker.received)


#: Tokens that are not one, by what breaks: the wire type, the bytes, the value.
MALFORMED_TOKENS = {
    "not-canonical": lambda token: token.to_dict(),
    "undecodable": lambda token: Canonical(token.wire.data[:-1]),
    "not-a-token": lambda token: Canonical.of([token.to_dict()]),
}


class TestMalformedTokens:
    """A malformed token is counted where it is checked, never raised: the
    type is checked first, then the bytes hashed, then decoded on a miss."""

    @pytest.fixture
    def tracked(self, dep):
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=10_000)
        return dep.manager_of("b1").session_of("svc"), tracker

    def _forged_failure(self, dep, session, malformed):
        body = {"trace_type": "FAILED", "entity_id": "svc", "payload": {}}
        return Message(
            topic=session.topics.change_notifications,
            body=body,
            source="b1",
            created_ms=dep.sim.now,
            signature=sign_payload(body, session.token_private_key).to_dict(),
            auth_token=MALFORMED_TOKENS[malformed](session.token),
        )

    @pytest.mark.parametrize("malformed", sorted(MALFORMED_TOKENS))
    def test_at_the_broker_guard(self, dep, tracked, malformed):
        session, tracker = tracked
        before = dep.metrics.counter_value("auth.invalid_token")
        dep.network.broker("b1").publish_from_broker(
            self._forged_failure(dep, session, malformed)
        )
        dep.sim.run(until=dep.sim.now + 5_000)
        assert dep.metrics.counter_value("auth.invalid_token") == before + 1
        assert not tracker.traces_of_type(TraceType.FAILED)
        assert tracker.traces_of_type(TraceType.ALLS_WELL)[-1].received_ms > dep.sim.now - 5_000

    @pytest.mark.parametrize("malformed", sorted(MALFORMED_TOKENS))
    def test_at_the_tracker(self, dep, tracked, malformed):
        session, tracker = tracked
        before = dep.metrics.counter_value("tracker.tokens_rejected")
        # delivered as the tracker's link would, past every broker guard
        tracker.client._receive(self._forged_failure(dep, session, malformed))
        dep.sim.run(until=dep.sim.now + 5_000)
        assert dep.metrics.counter_value("tracker.tokens_rejected") == before + 1
        assert not tracker.traces_of_type(TraceType.FAILED)
        assert tracker.traces_of_type(TraceType.ALLS_WELL)[-1].received_ms > dep.sim.now - 5_000


class TestMessageIntegrity:
    def test_tampered_entity_message_rejected(self, dep):
        """A message whose signature covers different bytes is dropped."""
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=3_000)
        session = dep.manager_of("b1").session_of("svc")
        topic = session.topics.entity_to_broker(session.session_id)

        body = {"kind": "state_transition", "state": "SHUTDOWN", "stamp_ms": 0.0}
        envelope = entity.credentials.sign({"something": "else"})
        entity.client.publish(topic, body, signature=envelope.to_dict())
        dep.sim.run(until=6_000)
        assert dep.metrics.counter_value("trace.entity_messages_rejected") >= 1
        assert session.entity_state.value != "SHUTDOWN"

    def test_unsigned_entity_message_rejected(self, dep):
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=3_000)
        session = dep.manager_of("b1").session_of("svc")
        topic = session.topics.entity_to_broker(session.session_id)
        entity.client.publish(
            topic, {"kind": "state_transition", "state": "SHUTDOWN"}
        )
        dep.sim.run(until=6_000)
        assert session.entity_state.value != "SHUTDOWN"

    def test_message_signed_by_other_key_rejected(self, dep):
        """Another registered entity cannot impersonate svc."""
        entity = dep.add_traced_entity("svc")
        imposter = dep.add_traced_entity("imposter")
        entity.start("b1")
        imposter.start("b1")
        dep.sim.run(until=5_000)
        session = dep.manager_of("b1").session_of("svc")
        topic = session.topics.entity_to_broker(session.session_id)

        body = {"kind": "disable_tracing", "stamp_ms": 0.0}
        envelope = imposter.credentials.sign(body)
        imposter.client.publish(topic, body, signature=envelope.to_dict())
        dep.sim.run(until=8_000)
        assert session.active  # the forged disable was ignored

    def test_malformed_signature_mapping_is_rejected_not_fatal(self):
        """A signature mapping without its bytes, or with an integer where
        the bytes belong, is counted and journaled on all three verifying
        paths.  The first used to raise KeyError out of the session worker
        and the second MemoryError (``bytes(1 << 44)``), after which the
        healthy entity was declared FAILED."""
        dep = build_deployment(broker_ids=["b1", "b2"], seed=1)
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=10_000)
        session = dep.manager_of("b1").session_of("svc")
        counters = (
            "trace.entity_messages_rejected",
            "trace.interest_bad_signature",
            "tracker.traces_bad_signature",
        )
        before = [dep.metrics.counter_value(name) for name in counters]
        for malformed in (
            {"payload": {}},
            {"payload": {}, "signature": 1 << 44, "signer_fingerprint": b""},
        ):
            entity.client.publish(
                session.topics.entity_to_broker(session.session_id),
                {"kind": "ping_response"},
                signature=malformed,
            )
            tracker.client.publish(
                session.topics.interest_response, {"tracker_id": "w"}, signature=malformed
            )
            dep.network.broker("b1").publish_from_broker(
                Message(
                    topic=session.topics.all_updates,
                    body={"trace_type": "FAILED", "entity_id": "svc"},
                    source="b1",
                    created_ms=dep.sim.now,
                    signature=malformed,
                    auth_token=session.token.wire,
                )
            )
        injected_at = dep.sim.now
        dep.sim.run(until=injected_at + 40_000)

        assert [dep.metrics.counter_value(name) for name in counters] == [n + 2 for n in before]
        records = dep.journal.records("envelope.malformed")
        assert len(records) == 6
        assert records[0].fields["session"] == session.hex_id[:8]
        assert records[0].fields["broker"] == "b1"
        assert all(record.fields["entity"] == "svc" for record in records)
        assert session.active and not tracker.traces_of_type(TraceType.FAILED)
        assert tracker.traces_of_type(TraceType.ALLS_WELL)[-1].received_ms > injected_at + 30_000
