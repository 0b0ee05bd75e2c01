"""Equivalence suite: summarized interest must route like verbatim flooding.

Every committed scenario stays within the federation hot-set limit, so
its summaries are exact and a federated fabric must deliver *exactly*
the frames the verbatim control plane delivers — same counters, same
snapshots, bit for bit.  This is the guarantee that lets the committed
seed snapshots keep gating a fabric whose control plane was swapped out.
"""

import json

import pytest

from repro.bench.routing_smoke import run_routing_smoke
from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message
from repro.messaging.topics import Topic
from repro.seeds import RESULTS_DIR, SEED_GROUPS
from repro.sim.engine import Simulator
from repro.util.snapshots import render_snapshot


def committed_seed(name: str) -> dict:
    return json.loads((RESULTS_DIR / SEED_GROUPS[name].files[0]).read_text())


def build_fabric(topology: str, federation: bool, seed: int = 23) -> tuple:
    sim = Simulator()
    network = BrokerNetwork(sim, seed=seed, federation=federation)
    ids = ["b1", "b2", "b3", "b4"]
    for broker_id in ids:
        network.add_broker(broker_id)
    if topology == "chain":
        edges = list(zip(ids, ids[1:], strict=False))
    elif topology == "ring":
        edges = list(zip(ids, ids[1:], strict=False)) + [(ids[-1], ids[0])]
    elif topology == "star":
        edges = [(ids[0], spoke) for spoke in ids[1:]]
    else:  # pragma: no cover - guard for new parametrizations
        raise AssertionError(topology)
    for a, b in edges:
        network.connect_brokers(a, b)
    return sim, network


SUBSCRIPTIONS = [
    ("b2", "alerts/>"),
    ("b3", "alerts/disk/*"),
    ("b4", "metrics/cpu"),
    ("b4", "alerts/disk/full"),
]

PUBLISHES = [
    ("b1", "alerts/disk/full"),
    ("b1", "metrics/cpu"),
    ("b2", "alerts/net/down"),
    ("b3", "metrics/ram"),  # nobody wants this
    ("b4", "alerts/disk/slow"),
]


def run_traffic(topology: str, federation: bool) -> dict:
    """Drive the same subscribe/publish script; return delivery log + counters."""
    sim, network = build_fabric(topology, federation)
    received: dict[str, list[tuple[str, int]]] = {}
    for broker_id, pattern in SUBSCRIPTIONS:
        log = received.setdefault(broker_id, [])
        network.broker(broker_id).subscribe_local(
            pattern, lambda m, log=log: log.append((str(m.topic), m.body))
        )
    for index, (origin, topic) in enumerate(PUBLISHES):
        network.broker(origin).publish_from_broker(
            Message(topic=Topic(topic), body=index, source=origin, message_id=index)
        )
    sim.run()
    metrics = network.monitor.metrics
    return {
        "received": {k: sorted(v) for k, v in sorted(received.items())},
        "delivered": metrics.counter_value("broker.msgs.delivered"),
        "forwarded": metrics.counter_value("broker.msgs.forwarded_out"),
        "unroutable": metrics.counter_value("broker.msgs.unroutable"),
        "stale": metrics.counter_value("broker.interest.stale_forwards"),
        "false_positives": metrics.counter_value("fed.forwards.false_positive"),
    }


class TestTopologyEquivalence:
    @pytest.mark.parametrize("topology", ["chain", "ring", "star"])
    def test_same_deliveries_and_counters(self, topology):
        verbatim = run_traffic(topology, federation=False)
        federated = run_traffic(topology, federation=True)
        assert federated["received"] == verbatim["received"]
        assert federated["delivered"] == verbatim["delivered"]
        assert federated["forwarded"] == verbatim["forwarded"]
        assert federated["unroutable"] == verbatim["unroutable"]
        assert federated["stale"] == verbatim["stale"] == 0
        # exact summaries: summarization introduces zero waste here
        assert federated["false_positives"] == 0


class TestScenarioEquivalence:
    def test_routing_smoke_matches_committed_seed(self):
        """The federated routing smoke reproduces the committed verbatim
        seed's counters exactly — control-plane swap, zero data-plane
        drift.  The pattern-entry gauge is legitimately *lower*: peers no
        longer mirror remote interest into their local indexes."""
        snapshot = run_routing_smoke(federation=True)
        committed = committed_seed("routing")
        assert snapshot["counters"] == committed["counters"]
        assert (
            snapshot["interest_patterns_gauge"]
            < committed["interest_patterns_gauge"]
        )

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_chaos_scenarios_match_verbatim(self, scenario):
        """Every chaos scenario (crash, partition, loss, delay, churn)
        produces the identical snapshot under federation."""
        federated = run_scenario(scenario, federation=True)
        verbatim = run_scenario(scenario, federation=False)
        assert render_snapshot(federated) == render_snapshot(verbatim)

    def test_broker_crash_matches_committed_seed(self):
        snapshot = run_scenario("broker-crash", federation=True)
        committed = committed_seed("chaos")
        assert render_snapshot(snapshot) == render_snapshot(committed)


class TestLateJoiner:
    @pytest.mark.parametrize("federation", [False, True])
    def test_late_joiner_routes_established_interest(self, federation):
        """A broker added after subscriptions exist must route toward them
        — via one summary per peer when federated, not a pattern replay."""
        sim = Simulator()
        network = BrokerNetwork(sim, seed=5, federation=federation)
        network.build_chain(["b1", "b2"])
        seen: list[int] = []
        network.broker("b1").subscribe_local("late/topic", lambda m: seen.append(m.body))
        sim.run()

        network.add_broker("b3")
        network.connect_brokers("b2", "b3")
        network.broker("b3").publish_from_broker(
            Message(topic=Topic("late/topic"), body=42, source="b3", message_id=900)
        )
        sim.run()
        assert seen == [42]
        if federation:
            floods = network.monitor.count("control.floods")
            assert floods <= 1  # one summary broadcast, however many patterns

    def test_late_joiner_summary_replay_is_per_peer(self):
        sim = Simulator()
        network = BrokerNetwork(sim, seed=5, federation=True)
        network.build_chain(["b1", "b2"])
        for i in range(10):
            network.broker("b1").subscribe_local(f"t/{i}", lambda m: None)
        network.broker("b1")._interested_brokers("t/0")  # force a flush
        network.add_broker("b3")
        # one replay for b1's (10-pattern) summary; b2 has no interest
        assert network.monitor.metrics.counter_value("fed.summary.replays") == 1


class TestPartitionHealReconvergence:
    @pytest.mark.parametrize("federation", [False, True])
    def test_delivery_resumes_after_heal(self, federation):
        """Partition the only path, publish (unroutable), heal, publish:
        both planes reconverge to identical routing."""
        sim = Simulator()
        network = BrokerNetwork(sim, seed=9, federation=federation)
        network.build_chain(["b1", "b2", "b3"])
        seen: list[int] = []
        network.broker("b3").subscribe_local("p/t", lambda m: seen.append(m.body))
        sim.run()

        network.partition_link("b2", "b3")
        network.broker("b1").publish_from_broker(
            Message(topic=Topic("p/t"), body=1, source="b1", message_id=901)
        )
        sim.run()
        assert seen == []

        network.heal_link("b2", "b3")
        network.broker("b1").publish_from_broker(
            Message(topic=Topic("p/t"), body=2, source="b1", message_id=902)
        )
        sim.run()
        assert seen == [2]
        assert (
            network.monitor.metrics.counter_value("broker.interest.stale_forwards")
            == 0
        )
