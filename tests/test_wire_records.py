"""Every ``@wire_record`` class's exact wire form, pinned.

A declared record takes its wire keys from its field names, so renaming a
field renames a key on the wire; this table is where that shows.  Each
expected form is a literal, its sequences ``list``s.  ``TokenGrant``,
``RegistrationClaim`` and ``AdvertisedTopic`` are what a signature
covers, and they ride broker links: a change to their form is a change
to the bytes every signer signs.
"""

import pytest

from repro.auth.tokens import AuthorizationToken, TokenGrant, TokenRights
from repro.campaigns.spec import Axis, CampaignSpec
from repro.crypto.certificates import Certificate
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.crypto.signing import SealedPayload, SignedEnvelope
from repro.faults.plan import FaultEvent, FaultKind
from repro.security.confidentiality import SecuredTrace
from repro.security.keydist import KeyDistributionPayload
from repro.tdn.advertisement import (
    AdvertisedTopic,
    TopicAdvertisement,
    TopicCreationRequest,
    TopicLifetime,
    TopicRenewal,
)
from repro.tdn.query import DiscoveryRestrictions
from repro.tracing.entity import (
    ChannelKeyDelivery,
    DisableTracing,
    LoadReport,
    StateReport,
    SymFrame,
    TokenDelivery,
    TokenDeliveryPayload,
    TraceKeyDelivery,
)
from repro.tracing.interest import InterestResponse
from repro.tracing.pings import Ping, PingResponse
from repro.tracing.registration import (
    RegistrationClaim,
    RegistrationError_Response,
    RegistrationResponse,
    TraceRegistrationRequest,
)
from repro.tracing.traces import (
    EntityState,
    LoadInformation,
    NetworkMetrics,
    TraceBody,
    TraceType,
)
from repro.util.identifiers import UUID128, EntityId, RequestId, SessionId
from repro.util.serialization import canonical_encode

from tests.test_decode_contract import WIRE_RECORDS

SEALED = SealedPayload(b"wrapped", "AES-192", "PKCS7", b"cipher")
SEALED_WIRE = {
    "wrapped_key": b"wrapped",
    "algorithm": "AES-192",
    "padding": "PKCS7",
    "ciphertext": b"cipher",
}
ENVELOPE = SignedEnvelope(b"sig", b"fp")
ENVELOPE_WIRE = {"signature": b"sig", "signer_fingerprint": b"fp"}
KEY = RSAPublicKey(77, 3)
PRIVATE = RSAPrivateKey(n=77, e=7, d=43, p=7, q=11, d_p=1, d_q=3, q_inv=2)
PRIVATE_WIRE = {"n": 77, "e": 7, "d": 43, "p": 7, "q": 11, "d_p": 1, "d_q": 3, "q_inv": 2}
CERTIFICATE = Certificate("svc", "ca", KEY, 2, -1.0, float("inf"), b"ca-sig")
CERTIFICATE_WIRE = {
    "subject": "svc",
    "issuer": "ca",
    "n": 77,
    "e": 3,
    "serial": 2,
    "not_before_ms": -1.0,
    "not_after_ms": float("inf"),
    "signature": b"ca-sig",
}
ADVERTISED = AdvertisedTopic(
    UUID128(0xAB),
    "Availability/Traces/svc",
    "svc",
    KEY,
    DiscoveryRestrictions(),
    TopicLifetime(0.0, 60_000.0),
    "tdn-0",
)
ADVERTISED_WIRE = {
    "trace_topic": "000000000000000000000000000000ab",
    "descriptor": "Availability/Traces/svc",
    "owner_subject": "svc",
    "owner_n": 77,
    "owner_e": 3,
    "restrictions": {"allowed_subjects": None, "denied_subjects": []},
    "lifetime": {"created_ms": 0.0, "duration_ms": 60000.0},
    "issuing_tdn": "tdn-0",
}
ADVERTISEMENT = TopicAdvertisement(ADVERTISED, ENVELOPE)
ADVERTISEMENT_WIRE = {"fields": ADVERTISED_WIRE, "signature": ENVELOPE_WIRE}
TOKEN = AuthorizationToken(ADVERTISEMENT, KEY, TokenRights.PUBLISH, 0.0, 600.0, ENVELOPE)
TOKEN_WIRE = {
    "advertisement": ADVERTISEMENT_WIRE,
    "token_n": 77,
    "token_e": 3,
    "rights": "publish",
    "valid_from_ms": 0.0,
    "valid_until_ms": 600.0,
    "owner_signature": ENVELOPE_WIRE,
}
LOAD = LoadInformation(0.25, 512.0, 2048.0, 3)
LOAD_WIRE = {
    "cpu_utilization": 0.25,
    "memory_used_mb": 512.0,
    "memory_total_mb": 2048.0,
    "workload": 3,
}
TOPIC_HEX = "ab" * 16

PINNED = [
    (Ping(7, 12.5), {"kind": "ping", "number": 7, "issued_ms": 12.5}),
    (
        PingResponse(7, 12.5, 30.0, 30.0),
        {
            "kind": "ping_response",
            "number": 7,
            "issued_ms": 12.5,
            "entity_stamp_ms": 30.0,
            "stamp_ms": 30.0,
        },
    ),
    (LOAD, LOAD_WIRE),
    (
        NetworkMetrics(0.1, 20.0, 2.5, 0.0, 100_000.0),
        {
            "loss_rate": 0.1,
            "mean_rtt_ms": 20.0,
            "jitter_ms": 2.5,
            "out_of_order_rate": 0.0,
            "bandwidth_estimate_kbps": 100_000.0,
        },
    ),
    (TopicLifetime(1_000.0, 60_000.0), {"created_ms": 1_000.0, "duration_ms": 60_000.0}),
    (SEALED, SEALED_WIRE),
    (ENVELOPE, ENVELOPE_WIRE),
    (
        DiscoveryRestrictions(frozenset({"w2", "w1"}), frozenset({"x"})),
        {"allowed_subjects": ["w1", "w2"], "denied_subjects": ["x"]},
    ),
    (DiscoveryRestrictions(), {"allowed_subjects": None, "denied_subjects": []}),
    (
        FaultEvent(FaultKind.BROKER_CRASH, 100.0, "b1", failover_to="b2"),
        {
            "kind": "broker_crash",
            "at_ms": 100.0,
            "target": "b1",
            "duration_ms": None,
            "peer": None,
            "loss_probability": 0.0,
            "extra_delay_ms": 0.0,
            "failover_to": "b2",
            "detect_after_ms": 2000.0,
        },
    ),
    (
        KeyDistributionPayload("ab" * 16, SEALED),
        {"kind": "key_distribution", "trace_topic": "ab" * 16, "sealed": SEALED_WIRE},
    ),
    (Axis("entities", (2, 3)), {"name": "entities", "values": [2, 3]}),
    (CERTIFICATE, CERTIFICATE_WIRE),
    (PRIVATE, PRIVATE_WIRE),
    (ADVERTISED, ADVERTISED_WIRE),
    (ADVERTISEMENT, ADVERTISEMENT_WIRE),
    (
        TokenGrant(UUID128(0xAB), KEY, TokenRights.PUBLISH, 0.0, 600.0),
        {
            "trace_topic": "000000000000000000000000000000ab",
            "token_n": 77,
            "token_e": 3,
            "rights": "publish",
            "valid_from_ms": 0.0,
            "valid_until_ms": 600.0,
        },
    ),
    (TOKEN, TOKEN_WIRE),
    (
        RegistrationClaim(EntityId("svc"), CERTIFICATE.fingerprint(), UUID128(0xAB), RequestId(4)),
        {
            "entity_id": "svc",
            "credential_fingerprint": b"\x07\xe1G0\xe7\x01\xc0[|\x80\xab[o\x88\xe2\xe4u\x80\xa46",
            "trace_topic": "000000000000000000000000000000ab",
            "request_id": 4,
        },
    ),
    (
        TopicCreationRequest(
            CERTIFICATE, "Availability/Traces/svc", DiscoveryRestrictions(), 60_000.0, RequestId(4)
        ),
        {
            "credentials": CERTIFICATE_WIRE,
            "descriptor": "Availability/Traces/svc",
            "restrictions": {"allowed_subjects": None, "denied_subjects": []},
            "lifetime_ms": 60_000.0,
            "request_id": 4,
        },
    ),
    (
        TopicRenewal(UUID128(0xAB), 60_000.0, 120_000.0),
        {
            "trace_topic": "000000000000000000000000000000ab",
            "current_duration_ms": 60_000.0,
            "additional_lifetime_ms": 120_000.0,
        },
    ),
    (
        TraceRegistrationRequest(EntityId("svc"), CERTIFICATE, ADVERTISEMENT, RequestId(4), ENVELOPE),
        {
            "entity_id": "svc",
            "credentials": CERTIFICATE_WIRE,
            "advertisement": ADVERTISEMENT_WIRE,
            "request_id": 4,
            "signature": ENVELOPE_WIRE,
        },
    ),
    (
        RegistrationResponse(RequestId(4), SessionId(UUID128(0xCD)), "b1", KEY),
        {
            "request_id": 4,
            "session_id": "cd".zfill(32),
            "broker_id": "b1",
            "broker_n": 77,
            "broker_e": 3,
        },
    ),
    (
        RegistrationError_Response(RequestId(4), "trace topic lifetime expired"),
        {"request_id": 4, "error": "trace topic lifetime expired"},
    ),
    (StateReport(EntityState.READY, 5.0), {"kind": "state_transition", "state": "READY", "stamp_ms": 5.0}),
    (LoadReport(LOAD, 5.0), {"kind": "load", "load": LOAD_WIRE, "stamp_ms": 5.0}),
    (DisableTracing(5.0), {"kind": "disable_tracing", "stamp_ms": 5.0}),
    (TokenDelivery(SEALED, 5.0), {"kind": "token_delivery", "sealed": SEALED_WIRE, "stamp_ms": 5.0}),
    (TraceKeyDelivery(SEALED, 5.0), {"kind": "trace_key", "sealed": SEALED_WIRE, "stamp_ms": 5.0}),
    (
        ChannelKeyDelivery(SEALED, 5.0),
        {"kind": "channel_key", "sealed": SEALED_WIRE, "stamp_ms": 5.0},
    ),
    (SymFrame(b"cipher"), {"kind": "sym", "ciphertext": b"cipher"}),
    (TokenDeliveryPayload(TOKEN, PRIVATE), {"token": TOKEN_WIRE, "token_private": PRIVATE_WIRE}),
    (
        TraceBody(
            TraceType.ALLS_WELL,
            "svc",
            {"ping_number": 3, "rtt_ms": 2.5},
            trace_topic=TOPIC_HEX,
            session="cd".zfill(32),
            seq=7,
            origin_stamp_ms=None,
            broker_stamp_ms=12.0,
        ),
        {
            "trace_type": "ALLS_WELL",
            "entity_id": "svc",
            "payload": {"ping_number": 3, "rtt_ms": 2.5},
            "trace_topic": TOPIC_HEX,
            "session": "cd".zfill(32),
            "seq": 7,
            "origin_stamp_ms": None,
            "broker_stamp_ms": 12.0,
        },
    ),
    (
        SecuredTrace(b"cipher", True, TOPIC_HEX),
        {"ciphertext": b"cipher", "secured": True, "trace_topic": TOPIC_HEX},
    ),
    (
        InterestResponse(("all_updates", "load"), CERTIFICATE, 5.0),
        {
            "categories": ["all_updates", "load"],
            "certificate": CERTIFICATE_WIRE,
            "stamp_ms": 5.0,
        },
    ),
    (
        CampaignSpec(
            name="c",
            workloads=("churn-mobile",),
            axes=(Axis("entities", (2, 3)),),
            baselines=("baseline-gossip",),
            fixed={"brokers": 3},
        ),
        {
            "name": "c",
            "workloads": ["churn-mobile"],
            "axes": [{"name": "entities", "values": [2, 3]}],
            "baselines": ["baseline-gossip"],
            "fixed": {"brokers": 3},
            "repetitions": 1,
            "base_seed": 42,
            "description": "",
        },
    ),
]


def _id(case) -> str:
    record, wire = case
    return f"{type(record).__name__}-{len(wire)}"


@pytest.mark.parametrize("record, wire", PINNED, ids=[_id(case) for case in PINNED])
def test_wire_form_is_pinned(record, wire):
    assert record.to_dict() == wire
    assert list(record.to_dict())[:1] == list(wire)[:1]  # a tag, where there is one, first
    assert type(record).from_dict(wire) == record


def test_every_wire_record_is_pinned():
    assert {type(record) for record, _ in PINNED} == set(WIRE_RECORDS)


def test_a_float_field_keeps_the_number_it_received():
    """A verifier rebuilds a signed statement from the fields it read, so
    a read keeps an int an int: the rebuilt lifetime encodes to the bytes
    its sender wrote."""
    wire = {"created_ms": 0, "duration_ms": 60_000}
    rebuilt = TopicLifetime.from_dict(wire).to_dict()
    assert canonical_encode(rebuilt) == canonical_encode(wire)
