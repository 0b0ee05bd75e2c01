"""Each signed statement is accepted only over the bytes its signer signed.

Five statements carry the provenance chain: the topic-creation request and
the renewal a TDN checks, the advertisement a broker and a token verifier
check, the registration claim a broker checks and the token grant every
routing broker checks.  Each check rebuilds the statement it expects and
hands it to ``verify_signed``; an envelope carries no copy of what it
signs.  For each one, an envelope signed by another key is refused with
the check's foreign-key reason, and an envelope over another statement,
or over a statement ``==`` to it with other canonical bytes (``5`` for
``5.0``, ``True`` for ``1``), with its bad-signature reason: the signature
is verified over the statement's own bytes.  The reasons are the exact
strings the checks raise or send, because a broker's registration
rejection carries its reason on the wire.
"""

from dataclasses import dataclass, replace
from typing import Any, Callable

import pytest

from repro import build_deployment
from repro.auth.tokens import AuthorizationToken, TokenRights
from repro.crypto.signing import sign_payload
from repro.errors import RegistrationError, SignatureError, TokenError
from repro.messaging.message import RoutedFrame
from repro.tdn.advertisement import TopicAdvertisement, TopicCreationRequest, TopicRenewal
from repro.tdn.query import DiscoveryRestrictions, trace_descriptor
from repro.tracing.registration import TraceRegistrationRequest
from repro.transport.link import Link
from repro.util.identifiers import RequestId
from repro.util.serialization import canonical_decode, canonical_encode
from repro.wire.codec import get_codec
from tests.support import run_process

FOREIGN_KEY = "envelope was not signed by the presented key"
BAD_SIGNATURE = "signature does not verify"


@dataclass
class World:
    """One deployment with a traced entity that has created its topic."""

    dep: Any
    entity: Any
    tdn_pair: Any  # stands in for the issuing TDN's key
    stranger: Any  # a key pair no check trusts


@dataclass(frozen=True)
class Check:
    """One statement check: how to build what it expects and how to run it."""

    name: str
    #: ``(statement, its signer's private key, run)``; ``run(envelope)`` is
    #: the check's refusal reason, or None when it accepts
    setup: Callable[[World], tuple[dict, Any, Callable[[Any], str | None]]]
    key: str  # the statement field the cases vary
    other: Callable[[Any], Any]  # another value: another statement
    equal: Callable[[Any], Any]  # a value == to it with other canonical bytes
    refused: str  # the signature reason; ``{}`` is where the cause goes


def _reason(errors, call) -> str | None:
    try:
        call()
    except errors as exc:
        return str(exc)
    return None


def _token(world):
    entity = world.entity
    token, _ = AuthorizationToken.create(
        entity.advertisement, entity.credentials.keys.private, TokenRights.PUBLISH,
        1_000.0, 10_000.0, entity.machine.rng,
    )  # fmt: skip

    def run(envelope):
        forged = replace(token, owner_signature=envelope)
        return _reason(TokenError, forged.verify_owner_signature)

    return token.grant().to_dict(), entity.credentials.keys.private, run


def _registration(world):
    entity, dep = world.entity, world.dep
    request = TraceRegistrationRequest(
        entity.entity_id, entity.credentials.certificate, entity.advertisement,
        RequestId(1), None,
    )  # fmt: skip
    manager = dep.manager_of("b1")

    def run(envelope):
        signed = replace(request, signature=envelope)
        return run_process(dep.sim, manager._registration_fault(signed))

    return request.claim().to_dict(), entity.credentials.keys.private, run


def _advertisement(world):
    fields = world.entity.advertisement.fields
    trusted = {fields.issuing_tdn: world.tdn_pair.public}

    def run(envelope):
        signed = TopicAdvertisement(fields, envelope)
        return _reason(SignatureError, lambda: signed.verify_provenance(trusted))

    return fields.to_dict(), world.tdn_pair.private, run


def _creation(world):
    entity, dep = world.entity, world.dep
    request = TopicCreationRequest(
        entity.credentials.certificate, trace_descriptor("svc"),
        DiscoveryRestrictions.open_to_authenticated(), 60_000.0, RequestId(9),
    )  # fmt: skip

    def run(envelope):
        return _reason(
            RegistrationError, lambda: run_process(dep.sim, dep.tdn.create_topic(request, envelope))
        )

    return request.to_dict(), entity.credentials.keys.private, run


def _renewal(world):
    entity, dep = world.entity, world.dep
    fields = entity.advertisement.fields
    renewal = TopicRenewal(fields.trace_topic, fields.lifetime.duration_ms, 5_000.0)

    def run(envelope):
        return _reason(
            RegistrationError, lambda: run_process(dep.sim, dep.tdn.renew_topic(renewal, envelope))
        )

    return renewal.to_dict(), entity.credentials.keys.private, run


CHECKS = [
    Check(
        "token", _token, "valid_from_ms", lambda v: v + 1.0, int,
        "token not signed by topic owner: {}",
    ),
    Check(
        "registration", _registration, "request_id", lambda v: v + 1, bool,
        "{}",
    ),
    Check(
        "advertisement", _advertisement, "lifetime",
        lambda v: {**v, "duration_ms": v["duration_ms"] + 1.0},
        lambda v: {**v, "duration_ms": int(v["duration_ms"])},
        "advertisement signature invalid",
    ),
    Check(
        "creation", _creation, "lifetime_ms", lambda v: v + 1.0, int,
        "request signature invalid: {}",
    ),
    Check(
        "renewal", _renewal, "additional_lifetime_ms", lambda v: v + 1.0, int,
        "renewal not signed by owner: {}",
    ),
]  # fmt: skip


@pytest.fixture
def world(keypair, second_keypair):
    dep = build_deployment(broker_ids=["b1"], seed=4900)
    entity = dep.add_traced_entity("svc")
    run_process(dep.sim, entity.create_trace_topic())
    entity.connect("b1")
    return World(dep, entity, tdn_pair=keypair, stranger=second_keypair)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.name)
def test_the_statement_itself_is_accepted(check, world):
    statement, signer, run = check.setup(world)
    assert run(sign_payload(statement, signer)) is None


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.name)
def test_an_envelope_over_another_statement_is_a_mismatch(check, world):
    statement, signer, run = check.setup(world)
    other = {**statement, check.key: check.other(statement[check.key])}
    assert other != statement
    assert run(sign_payload(other, signer)) == check.refused.format(BAD_SIGNATURE)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.name)
def test_a_signature_by_another_key_is_refused(check, world):
    statement, _, run = check.setup(world)
    assert run(sign_payload(statement, world.stranger.private)) == check.refused.format(
        FOREIGN_KEY
    )


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.name)
def test_an_equal_payload_signed_over_other_bytes_is_refused(check, world):
    statement, signer, run = check.setup(world)
    equal = {**statement, check.key: check.equal(statement[check.key])}
    assert equal == statement
    assert run(sign_payload(equal, signer)) == check.refused.format(BAD_SIGNATURE)


def test_a_statement_built_with_an_int_where_a_float_goes_still_verifies():
    """An entity whose topic lifetime is the int ``60_000`` registers: the
    TDN signs the advertisement's lifetime as that int, and the broker
    rebuilds the int it read from the wire."""
    dep = build_deployment(broker_ids=["b1"], seed=4900)
    entity = dep.add_traced_entity("svc")
    entity.topic_lifetime_ms = 60_000
    entity.start("b1")
    dep.sim.run(until=5_000)
    assert entity.session_id is not None
    assert dep.metrics.counter_value("trace.registrations_rejected") == 0


def test_a_published_trace_carries_each_signed_statement_once(monkeypatch):
    """A signature is a digest, not a copy: the encoded frame of a trace
    holds its body once and its token's advertised fields once, and the
    grant the owner signed not at all (the token carries its fields, the
    signature covers them)."""
    sent = []
    send = Link.send

    def record(link, payload):
        sent.append(payload)
        return send(link, payload)

    monkeypatch.setattr(Link, "send", record)
    dep = build_deployment(broker_ids=["b1", "b2"], seed=4900)
    entity = dep.add_traced_entity("svc")
    tracker = dep.add_tracker("w")
    tracker.connect("b2")
    entity.start("b1")
    dep.sim.run(until=3_000)
    tracker.track("svc")
    dep.sim.run(until=10_000)

    trace = next(
        frame.message
        for frame in sent
        if isinstance(frame, RoutedFrame) and frame.message.auth_token is not None
    )
    token = AuthorizationToken.from_dict(canonical_decode(trace.auth_token.data))
    wire = get_codec("json").encode(trace)
    assert wire.count(canonical_encode(trace.body)) == 1
    assert wire.count(canonical_encode(token.advertisement.fields.to_dict())) == 1
    assert wire.count(canonical_encode(token.grant().to_dict())) == 0
