"""Every ``@wire_record`` class's exact wire form, pinned.

A declared record takes its wire keys from its field names, so renaming a
field renames a key on the wire; this table is where that shows.  Each
expected form is a literal: its sequences are ``list``s, because
``verify_provenance`` and ``verify_signed_body`` compare decoded payloads
with ``==`` and ``[1] != (1,)``.
"""

import pytest

from repro.campaigns.spec import Axis, CampaignSpec
from repro.crypto.signing import SealedPayload, SignedEnvelope
from repro.faults.plan import FaultEvent, FaultKind
from repro.security.keydist import KeyDistributionPayload
from repro.tdn.advertisement import TopicLifetime
from repro.tdn.query import DiscoveryRestrictions
from repro.tracing.pings import Ping, PingResponse
from repro.tracing.traces import LoadInformation, NetworkMetrics

from tests.test_decode_contract import WIRE_RECORDS

SEALED = SealedPayload(b"wrapped", "AES-192", "PKCS7", b"cipher")
SEALED_WIRE = {
    "wrapped_key": b"wrapped",
    "algorithm": "AES-192",
    "padding": "PKCS7",
    "ciphertext": b"cipher",
}

PINNED = [
    (Ping(7, 12.5), {"kind": "ping", "number": 7, "issued_ms": 12.5}),
    (
        PingResponse(7, 12.5, 30.0),
        {"kind": "ping_response", "number": 7, "issued_ms": 12.5, "entity_stamp_ms": 30.0},
    ),
    (
        LoadInformation(0.25, 512.0, 2048.0, 3),
        {
            "cpu_utilization": 0.25,
            "memory_used_mb": 512.0,
            "memory_total_mb": 2048.0,
            "workload": 3,
        },
    ),
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
    (
        SignedEnvelope({"ids": [1, 2], "topic": "t"}, b"sig", b"fp"),
        {
            "payload": {"ids": [1, 2], "topic": "t"},
            "signature": b"sig",
            "signer_fingerprint": b"fp",
        },
    ),
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
