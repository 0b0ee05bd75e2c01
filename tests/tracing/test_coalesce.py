"""Tests for ping coalescing (repro.tracing.coalesce).

Unit coverage of the host-level ping sinks and batch demultiplexer,
then deployment-level properties: co-located entities actually share wire
frames, a crashed delegate still relays its siblings' pings (only its own
response is suppressed, so *it* — and nobody else — is declared failed),
and co-located entities spend measurably fewer transport bytes than the
same population spread over one host each.
"""

import pytest

from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.tracing.coalesce import PING_BATCH_KIND, relay_ping_batch
from repro.tracing.failure import AdaptivePingPolicy

FAST_POLICY = AdaptivePingPolicy(
    base_interval_ms=500.0,
    min_interval_ms=125.0,
    max_interval_ms=1_000.0,
    response_deadline_ms=200.0,
)


def batch_body(*entries):
    return {
        "kind": PING_BATCH_KIND,
        "pings": [
            {"entity_id": eid, "number": number, "issued_ms": issued}
            for eid, number, issued in entries
        ],
    }


class TestRelayRegistry:
    @pytest.fixture
    def host(self):
        import random

        from repro.crypto.costmodel import CryptoCostModel

        return Machine(
            Simulator(), "host", CryptoCostModel.free(), random.Random(1)
        )

    def test_relay_delivers_to_registered_sinks(self, host):
        got = []
        host.ping_sinks["a"] = lambda ping: got.append(("a", ping.number))
        host.ping_sinks["b"] = lambda ping: got.append(("b", ping.number))
        delivered = relay_ping_batch(
            host, batch_body(("a", 1, 0.0), ("b", 7, 0.0))
        )
        assert delivered == 2
        assert got == [("a", 1), ("b", 7)]

    def test_unknown_and_malformed_entries_dropped(self, host):
        got = []
        host.ping_sinks["a"] = lambda ping: got.append(ping.number)
        body = batch_body(("a", 3, 1.0), ("stranger", 9, 1.0))
        body["pings"].append({"entity_id": "a"})  # malformed: no number
        body["pings"].append({"entity_id": "a", "number": "x", "issued_ms": "y"})
        assert relay_ping_batch(host, body) == 1
        assert got == [3]

    def test_reregistration_overwrites_and_unregister_forgets(self, host):
        first, second = [], []
        host.ping_sinks["a"] = lambda ping: first.append(ping)
        host.ping_sinks["a"] = lambda ping: second.append(ping)
        relay_ping_batch(host, batch_body(("a", 1, 0.0)))
        assert not first and len(second) == 1
        del host.ping_sinks["a"]
        assert relay_ping_batch(host, batch_body(("a", 2, 0.0))) == 0

    def test_relay_on_unknown_machine_is_empty(self, host):
        assert relay_ping_batch(host, batch_body(("a", 1, 0.0))) == 0


def build_colocated(entity_count=3, seed=11, shared_host=True):
    from repro import build_deployment
    dep = build_deployment(
        broker_ids=["b1", "b2"],
        seed=seed,
        ping_policy=FAST_POLICY,
    )
    entities = [
        dep.add_traced_entity(
            f"e-{i}", machine_name="shared-host" if shared_host else f"host-{i}"
        )
        for i in range(entity_count)
    ]
    tracker = dep.add_tracker("w")
    tracker.connect("b2")
    for entity in entities:
        entity.start("b1")
    dep.sim.run(until=2_000)
    for entity in entities:
        tracker.track(str(entity.entity_id))
    return dep, entities, tracker


class TestDeploymentCoalescing:
    def test_colocated_sessions_share_frames(self):
        dep, _, _ = build_colocated()
        dep.sim.run(until=30_000)
        counters = dep.snapshot()["counters"]
        assert counters["tracker.pings.coalesced"] > 0
        batch = dep.snapshot()["histograms"]["tracker.ping.batch_size"]
        assert batch["count"] > 0 and batch["max"] <= 3

    def test_crashed_delegate_still_relays_siblings(self):
        dep, entities, _ = build_colocated()
        dep.sim.run(until=15_000)
        # e-0 sorts first, so it is the preferred delegate while attached
        entities[0].crash()
        dep.sim.run(until=60_000)
        managers = dep.managers["b1"].sessions_by_entity
        failed = {
            eid for eid, s in managers.items() if s.declared_failed
        }
        assert failed == {"e-0"}

    def test_coalescing_saves_transport_bytes(self):
        shared, _, _ = build_colocated(seed=11)
        shared.sim.run(until=30_000)
        spread, _, _ = build_colocated(seed=11, shared_host=False)
        spread.sim.run(until=30_000)
        shared_counters = shared.snapshot()["counters"]
        spread_counters = spread.snapshot()["counters"]
        # same ping workload either way; only the co-located one batches
        assert (
            shared_counters["tracker.pings.sent"]
            == spread_counters["tracker.pings.sent"]
        )
        assert spread_counters.get("tracker.pings.coalesced", 0) == 0
        assert (
            shared_counters["transport.bytes.sent"]
            < spread_counters["transport.bytes.sent"]
        )
