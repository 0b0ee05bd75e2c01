"""Unit-level tests of the broker-side TraceManager.

Integration flows are in tests/integration/; these hit the rejection and
bookkeeping paths directly.
"""

import random
import sys
from dataclasses import replace

import pytest

import repro.auth.tokens as tokens_module
import repro.tracing.broker_ops as broker_ops
import repro.tracing.entity as entity_module
from repro import build_deployment
from repro.auth.credentials import EntityCredentials
from repro.auth.tokens import AuthorizationToken, TokenRights
from repro.auth.verification import TokenVerifier
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.keys import KeyPair
from repro.errors import RegistrationError, SignatureError, TokenError
from repro.faults.scenarios import run_scenario
from repro.tdn.advertisement import TopicLifetime
from repro.tracing.broker_ops import category_of
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.interest import InterestCategory
from repro.tracing.pings import PingResponse
from repro.tracing.traces import EntityState, LoadInformation, TraceType
from repro.util.serialization import Canonical
from tests.support import TraceLog, run_process, succeeded


@pytest.fixture
def dep():
    return build_deployment(broker_ids=["b1"], seed=800)


def registered_entity(dep, name="svc", **kwargs):
    entity = dep.add_traced_entity(name, **kwargs)
    entity.start("b1")
    dep.sim.run(until=dep.sim.now + 3_000)
    return entity


def send_signed(entity, body):
    """Publish a hand-built session body, signed, as the entity's client."""
    signed = Canonical.of(body)
    entity.client.publish(
        entity.topics.entity_to_broker(entity.session_id),
        signed,
        signature=entity.credentials.sign(signed).to_dict(),
    )


class TestCategoryOf:
    def test_mapping(self):
        assert category_of(TraceType.JOIN) is InterestCategory.CHANGE_NOTIFICATIONS
        assert category_of(TraceType.FAILED) is InterestCategory.CHANGE_NOTIFICATIONS
        assert category_of(TraceType.READY) is InterestCategory.STATE_TRANSITIONS
        assert category_of(TraceType.ALLS_WELL) is InterestCategory.ALL_UPDATES
        assert category_of(TraceType.LOAD_INFORMATION) is InterestCategory.LOAD
        assert (
            category_of(TraceType.NETWORK_METRICS)
            is InterestCategory.NETWORK_METRICS
        )
        # every type but GUAGE_INTEREST is gated by exactly one category,
        # and every category gates something
        gated = {t: category_of(t) for t in TraceType if t is not TraceType.GUAGE_INTEREST}
        assert len(gated) == len(TraceType) - 1
        assert set(gated.values()) == set(InterestCategory)

    def test_gauge_has_no_category(self):
        with pytest.raises(ValueError):
            category_of(TraceType.GUAGE_INTEREST)


class TestRegistrationRejections:
    def test_rogue_ca_credentials_rejected(self, dep):
        """An entity with credentials from an untrusted CA is refused."""
        from repro.errors import RegistrationError
        from repro.tracing.entity import TracedEntity
        from repro.util.identifiers import EntityId

        rogue_ca = CertificateAuthority(
            "rogue", dep.network.streams.stream("rogue")
        )
        machine = dep.network.machine("machine-rogue-entity")
        credentials = EntityCredentials.issue("rogue-svc", rogue_ca, machine.rng)
        entity = TracedEntity(
            sim=dep.sim,
            entity_id=EntityId("rogue-svc"),
            network=dep.network,
            machine=machine,
            credentials=credentials,
            tdn=dep.tdn,
            monitor=dep.monitor,
        )
        proc = entity.start("b1")
        dep.sim.run(until=15_000)
        # the TDN already refuses the topic creation
        assert proc.triggered and not succeeded(proc)
        assert dep.manager_of("b1").session_of("rogue-svc") is None

    def test_advertisement_owned_by_other_entity_rejected(self, dep):
        """Registering with someone else's advertisement fails."""
        victim = registered_entity(dep, "victim")
        imposter = dep.add_traced_entity("imposter")
        run_process(dep.sim, imposter.create_trace_topic())
        imposter.connect("b1")
        # swap in the victim's advertisement
        imposter.advertisement = victim.advertisement
        from repro.errors import RegistrationError

        proc = dep.sim.process(imposter.register())
        dep.sim.run(until=dep.sim.now + 15_000)
        assert proc.triggered and not succeeded(proc)
        assert dep.metrics.counter_value("trace.registrations_rejected") >= 1

    @pytest.mark.parametrize(
        "doctor, reason",
        [
            (lambda ad: ad, None),
            (
                lambda ad: replace(ad, fields=replace(ad.fields, issuing_tdn="tdn-9")),
                "advertisement from unknown TDN",
            ),
            (
                lambda ad: replace(
                    ad,
                    fields=replace(
                        ad.fields, lifetime=TopicLifetime(ad.fields.lifetime.created_ms, 1e12)
                    ),
                ),
                "advertisement signature invalid",
            ),
            (
                lambda ad: replace(
                    ad, signature=replace(ad.signature, signature=bytes(64))
                ),
                "advertisement signature invalid",
            ),
        ],
        ids=["good", "unknown-tdn", "edited-field", "bad-signature"],
    )
    def test_advertisement_provenance(self, dep, doctor, reason):
        """One check, two callers: the token verifier and registration
        step 3 agree on every row, and the broker sends the reason
        verbatim."""
        entity = dep.add_traced_entity("svc")
        run_process(dep.sim, entity.create_trace_topic())
        entity.connect("b1")
        advertisement = entity.advertisement = doctor(entity.advertisement)
        trusted = dep.token_verifier.trusted_tdn_keys

        if reason is None:
            advertisement.verify_provenance(trusted)
        else:
            with pytest.raises(SignatureError, match=f"^{reason}$"):
                advertisement.verify_provenance(trusted)

        token, _ = AuthorizationToken.create(
            advertisement, entity.credentials.keys.private, TokenRights.PUBLISH,
            dep.sim.now, 10_000.0, entity.machine.rng,
        )
        verifier = TokenVerifier(trusted)
        if reason is None:
            verifier.verify(token.wire, dep.sim.now)
        else:
            with pytest.raises(TokenError, match=f"^{reason}$"):
                verifier.verify(token.wire, dep.sim.now)

        proc = dep.sim.process(entity.register())
        dep.sim.run(until=dep.sim.now + 15_000)
        assert proc.triggered and succeeded(proc) is (reason is None)
        if reason is not None:
            with pytest.raises(RegistrationError, match=f"rejected registration: {reason}$"):
                _ = proc.value

    def test_expired_topic_lifetime_rejected(self, dep):
        entity = dep.add_traced_entity("svc")
        entity.topic_lifetime_ms = 100.0  # expires almost immediately
        run_process(dep.sim, entity.create_trace_topic())
        entity.connect("b1")
        dep.sim.run(until=dep.sim.now + 5_000)  # let the lifetime lapse
        proc = dep.sim.process(entity.register())
        dep.sim.run(until=dep.sim.now + 15_000)
        assert proc.triggered and not succeeded(proc)


#: Every entity->broker session message: its kind, an entity call that
#: sends one built by its record, and what the broker's handler counts.
SESSION_MESSAGES = [
    (
        "ping_response",
        lambda entity: entity._send_session_message(PingResponse(10**6, 0.0, 0.0)),
        "trace.ping_responses_unmatched",
    ),
    (
        "state_transition",
        lambda entity: entity.report_state(EntityState.RECOVERING),
        "trace.published.RECOVERING",
    ),
    (
        "load",
        lambda entity: entity.report_load(LoadInformation(0.5, 1.0, 2.0, 1)),
        "trace.published.LOAD_INFORMATION",
    ),
    (
        "disable_tracing",
        lambda entity: entity.disable_tracing(),
        "trace.published.REVERTING_TO_SILENT_MODE",
    ),
    ("token_delivery", lambda entity: entity.deliver_token(), "trace.tokens_received"),
    ("trace_key", lambda entity: entity.establish_trace_key(), "trace.trace_keys_received"),
    ("channel_key", lambda entity: entity.establish_channel_key(), "trace.channel_keys_received"),
    # with a channel key shared, a report travels inside a sym frame
    (
        "sym",
        lambda entity: entity.report_load(LoadInformation(0.5, 1.0, 2.0, 1)),
        "trace.published.LOAD_INFORMATION",
    ),
]


def test_every_session_record_is_a_case():
    declared = {
        cls._wire[0]
        for cls in vars(entity_module).values()
        if isinstance(cls, type) and cls.__module__ == entity_module.__name__
        and getattr(cls, "_wire", (None,))[0] is not None
    }
    assert declared | {"ping_response"} == {kind for kind, _, _ in SESSION_MESSAGES}


class TestEntityMessageHandling:
    @pytest.mark.parametrize(
        "kind, send, handled", SESSION_MESSAGES, ids=[case[0] for case in SESSION_MESSAGES]
    )
    def test_every_session_kind_reaches_its_handler(self, dep, kind, send, handled):
        """The entity builds each kind by its record; the broker's session
        worker must dispatch it to the handler that counts it."""
        entity = registered_entity(dep, use_symmetric_channel=kind == "sym")
        assert (entity.channel_key is not None) == (kind == "sym")
        tracker = dep.add_tracker("w")
        tracker.connect("b1")
        tracker.track("svc")
        dep.sim.run(until=dep.sim.now + 2_000)

        def count():
            return dep.monitor.count(handled) + dep.metrics.counter_value(handled)

        before = count()
        run_process(dep.sim, send(entity))
        dep.sim.run(until=dep.sim.now + 2_000)
        assert count() > before
        assert dep.metrics.counter_value("trace.entity_messages_unknown") == 0
        assert dep.metrics.counter_value("trace.entity_messages_rejected") == 0

    def test_unknown_kind_counted(self, dep):
        entity = registered_entity(dep)
        send_signed(entity, {"kind": "mystery"})
        dep.sim.run(until=dep.sim.now + 2_000)
        assert dep.metrics.counter_value("trace.entity_messages_unknown") == 1

    def test_malformed_load_report_counted(self, dep):
        entity = registered_entity(dep)
        send_signed(entity, {"kind": "load", "load": {"bogus": 1}})
        dep.sim.run(until=dep.sim.now + 2_000)
        assert dep.metrics.counter_value("trace.load_reports_malformed") == 1

    def test_malformed_state_report_counted(self, dep):
        entity = registered_entity(dep)
        send_signed(entity, {"kind": "state_transition", "state": "CONFUSED"})
        dep.sim.run(until=dep.sim.now + 2_000)
        assert dep.metrics.counter_value("trace.state_reports_malformed") == 1

    @pytest.mark.parametrize(
        "kind, report",
        [
            ("state", {"kind": "state_transition", "state": "READY"}),
            (
                "load",
                {
                    "kind": "load",
                    "load": {
                        "cpu_utilization": 0.5,
                        "memory_used_mb": 1.0,
                        "memory_total_mb": 2.0,
                        "workload": 1,
                    },
                },
            ),
        ],
    )
    def test_report_with_a_bad_stamp_is_rejected_at_the_broker(self, dep, kind, report):
        """Used to be signed into a trace whose ``float(origin)`` raised
        ValueError in every subscribed tracker's handler process."""
        entity = registered_entity(dep)
        tracker = dep.add_tracker("w")
        tracker.connect("b1")
        log = TraceLog(tracker)
        tracker.track("svc")
        dep.sim.run(until=dep.sim.now + 2_000)
        received = len(log)
        stamps = ["soon", float("nan"), float("inf"), True]
        for stamp in stamps:
            send_signed(entity, {**report, "stamp_ms": stamp})
        dep.sim.run(until=dep.sim.now + 500)
        assert dep.metrics.counter_value(f"trace.{kind}_reports_malformed") == len(stamps)
        assert dep.metrics.counter_value("tracker.traces_malformed") == 0
        reported = (TraceType.READY, TraceType.LOAD_INFORMATION)
        assert not [t for t in log.traces[received:] if t.trace_type in reported]

    def test_messages_processed_in_order(self, dep):
        """The per-session worker preserves arrival order even though the
        handlers charge different CPU durations."""
        entity = registered_entity(dep)
        tracker = dep.add_tracker("w")
        tracker.connect("b1")
        log = TraceLog(tracker)
        tracker.track("svc")
        dep.sim.run(until=dep.sim.now + 2_000)

        from repro.tracing.traces import EntityState

        dep.sim.process(entity.report_state(EntityState.RECOVERING))
        dep.sim.process(entity.report_state(EntityState.READY))
        dep.sim.run(until=dep.sim.now + 5_000)
        states = [
            t.trace_type for t in log.traces
            if t.trace_type in (TraceType.RECOVERING, TraceType.READY)
        ]
        assert states == [TraceType.RECOVERING, TraceType.READY]


class _ShortKeyPair:
    """Token key pairs that are self-consistent but 16 bytes long."""

    @staticmethod
    def generate(rng):
        return KeyPair.generate(rng, bits=128)


class TestTokenDelivery:
    @pytest.mark.parametrize("unusable", ["short-modulus", "foreign-key", "unusable-crt"])
    def test_a_token_key_that_cannot_sign_is_refused_and_a_later_one_accepted(
        self, dep, monkeypatch, unusable
    ):
        """A delivered key the broker cannot sign with used to be accepted:
        a 128-bit one raised KeyMaterialError (``p = 0``: ValueError) out of
        the JOIN ``publish_trace``, which killed the session worker, so no
        JOIN, no ping or gauge loop, an inbox nobody read and nothing
        counted; a key of another pair signed traces no tracker accepts."""
        create = AuthorizationToken.create.__func__

        def unusable_create(cls, *args, **kwargs):
            token, private = create(cls, *args, **kwargs)
            if unusable == "foreign-key":
                private = KeyPair.generate(random.Random(7)).private
            elif unusable == "unusable-crt":
                private = replace(private, p=0)
            return token, private

        if unusable == "short-modulus":
            monkeypatch.setattr(tokens_module, "KeyPair", _ShortKeyPair)
        monkeypatch.setattr(AuthorizationToken, "create", classmethod(unusable_create))
        entity = registered_entity(dep)
        session = dep.manager_of("b1").session_of("svc")

        assert dep.metrics.counter_value("trace.token_delivery_malformed") == 1
        assert session.token is None and dep.monitor.count("trace.published.JOIN") == 0
        (record,) = dep.journal.records("envelope.malformed")
        assert record.fields["broker"] == "b1"
        assert record.fields["session"] == session.hex_id[:8]
        assert "'token_private'" in record.fields["reason"]
        # the worker survived: the READY report behind the delivery was handled
        assert session.entity_state.value == "READY"

        monkeypatch.undo()
        run_process(dep.sim, entity.deliver_token())
        dep.sim.run(until=dep.sim.now + 2_000)
        assert session.token == entity.token
        assert dep.metrics.counter_value("trace.tokens_received") == 1
        assert dep.monitor.count("trace.published.JOIN") == 1
        assert dep.metrics.counter_value("trace.token_delivery_malformed") == 1


class TestSessionBookkeeping:
    def test_active_sessions(self, dep):
        registered_entity(dep, "a")
        registered_entity(dep, "b")
        manager = dep.manager_of("b1")
        assert len(manager.active_sessions()) == 2

    def test_session_of_unknown(self, dep):
        assert dep.manager_of("b1").session_of("ghost") is None

    def test_disconnect_of_unknown_is_noop(self, dep):
        dep.manager_of("b1").handle_client_disconnect("ghost")
        assert dep.monitor.count("trace.published.DISCONNECT") == 0


#: A policy whose interval never moves: 500 ms whatever the history.
FIXED_500 = AdaptivePingPolicy(
    base_interval_ms=500.0,
    min_interval_ms=500.0,
    max_interval_ms=500.0,
    growth_factor=1.0,
    response_deadline_ms=200.0,
)


class TestPingLoop:
    """A due ping goes out when it is due, in a frame of its own (§3.3)."""

    @pytest.fixture
    def published(self):
        """Six entities on one host under FIXED_500; every body b1 publishes."""
        dep = build_deployment(broker_ids=["b1"], seed=801, ping_policy=FIXED_500)
        manager = dep.manager_of("b1")
        frames = []
        publish = manager._publish_plain

        def recording(topic, body):
            frames.append((str(topic), body))
            publish(topic, body)

        manager._publish_plain = recording
        for index in range(6):
            dep.add_traced_entity(f"e{index}", machine_name="shared-host").start("b1")
        dep.sim.run(until=20_000)
        return dep, frames

    def test_consecutive_pings_are_one_interval_apart(self, published):
        _, frames = published
        issued = {}
        for topic, body in frames:
            if body.get("kind") == "ping":
                issued.setdefault(topic, []).append(body["issued_ms"])
        assert len(issued) == 6
        for times in issued.values():
            assert len(times) >= 30
            gaps = [later - earlier for earlier, later in zip(times, times[1:])]
            assert gaps == pytest.approx([500.0] * len(gaps), abs=1e-9)

    def test_each_ping_has_its_own_frame(self, published):
        dep, frames = published
        pings = [body for _, body in frames if body.get("kind") == "ping"]
        assert len(pings) == dep.metrics.counter_value("tracker.pings.sent") > 0


class TestTracesSignedOnce:
    """Every trace a broker publishes is signed once, and a session that
    ``_retire`` removed from ``sessions`` publishes nothing after that but
    the one trace that announces its end."""

    #: The traces published for a session already retired (section 3.3).
    _ENDINGS = {TraceType.FAILED, TraceType.DISCONNECT, TraceType.REVERTING_TO_SILENT_MODE}

    @pytest.mark.parametrize("scenario", ["broker-crash", "entity-churn"])
    def test_signatures_equal_publications(self, scenario, monkeypatch):
        signed = []
        sign = broker_ops.sign_payload

        def counting(payload, private_key):
            caller = sys._getframe(1)
            assert caller.f_code.co_name == "publish_trace"
            manager, session = caller.f_locals["self"], caller.f_locals["session"]
            live = manager.sessions.get(str(session.entity_id)) is session
            signed.append((session, caller.f_locals["trace_type"], live))
            return sign(payload, private_key)

        monkeypatch.setattr(broker_ops, "sign_payload", counting)
        counts = {}
        run_scenario(
            scenario, deployment_probe=lambda dep: counts.update(dep.monitor.counters())
        )

        published = sum(n for name, n in counts.items() if name.startswith("trace.published."))
        assert len(signed) == published > 0
        after_retirement = [(session, kind) for session, kind, live in signed if not live]
        assert after_retirement  # each scenario retires a session that says so
        assert {kind for _, kind in after_retirement} <= self._ENDINGS
        retired = [id(session) for session, _ in after_retirement]
        assert len(retired) == len(set(retired))
