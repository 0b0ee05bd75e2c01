"""Partition state must survive broker crash/recover cycles.

The bug under test: ``recover_broker`` restored every neighbor link it
was handed, including edges an active ``partition_link`` had severed —
a crash/recover cycle of either endpoint silently healed the partition.
Partitions are independent faults with their own lifetime: only
``heal_link`` may end one.
"""

import pytest

from repro import build_deployment
from repro.faults.scenarios import CHAOS_PING_POLICY
from repro.messaging.broker_network import BrokerNetwork
from repro.sim.engine import Simulator
from tests.support import build_chain, network_hops


@pytest.fixture
def net():
    sim = Simulator()
    network = BrokerNetwork(sim, seed=13)
    build_chain(network, ["b1", "b2", "b3"])
    network.connect_brokers("b1", "b3")  # ring: partitions leave a detour
    return sim, network


class TestPartitionSurvivesRecovery:
    def test_recover_does_not_heal_partitioned_edge(self, net):
        _, network = net
        network.partition_link("b1", "b3")
        neighbors = network.neighbors_of("b1")  # ("b2",) — b3 already severed

        network.fail_broker("b1")
        network.recover_broker("b1", ["b2", "b3"])  # naive caller passes both
        assert "b3" not in network.neighbors_of("b1")
        assert "b1" not in network.neighbors_of("b3")
        assert network.neighbors_of("b1") == neighbors

    def test_crash_of_far_endpoint_also_preserved(self, net):
        _, network = net
        network.partition_link("b1", "b3")
        network.fail_broker("b3")
        network.recover_broker("b3", ["b1", "b2"])
        assert network.neighbors_of("b3") == ("b2",)

    def test_heal_then_recover_restores_edge(self, net):
        _, network = net
        network.partition_link("b1", "b3")
        network.fail_broker("b1")
        network.heal_link("b1", "b3")  # healed while down: no-op on adjacency
        assert "b1" not in network.neighbors_of("b3")
        network.recover_broker("b1", ["b2", "b3"])
        assert "b3" in network.neighbors_of("b1")

    def test_recover_skips_still_failed_neighbor(self, net):
        """Same latent bug family: adjacency to a crashed peer must wait
        for *that* peer's recovery."""
        _, network = net
        network.fail_broker("b1")
        network.fail_broker("b2")
        network.recover_broker("b1", ["b2", "b3"])
        assert network.neighbors_of("b1") == ("b3",)
        network.recover_broker("b2", ["b1", "b3"])
        assert network.neighbors_of("b2") == ("b1", "b3")

    def test_hop_routing_uses_detour_after_recovery(self, net):
        _, network = net
        network.partition_link("b1", "b3")
        network.fail_broker("b1")
        network.recover_broker("b1", ["b2", "b3"])
        assert network_hops(network, "b1", "b3") == 2  # via b2, not the cut edge


class TestPartitionSurvivesRestartScenario:
    def test_deployment_restart_keeps_partition(self):
        """End-to-end scenario through ``Deployment.restart_broker`` (the
        path chaos recovery takes): partition b1–b3, crash b1 mid-run,
        restart it with its pre-crash neighbor set, and verify traffic
        still detours and the cut edge stays out of the routing graph."""
        dep = build_deployment(
            broker_ids=["b1", "b2", "b3"],
            seed=42,
            ping_policy=CHAOS_PING_POLICY,
            extra_links=[("b1", "b3")],
            codec="json",
        )
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b3")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=10_000)

        dep.network.partition_link("b1", "b3")
        neighbors = ("b2", "b3")  # a careless caller hands back everything
        dep.network.fail_broker("b1")
        dep.sim.run(until=15_000)
        dep.restart_broker("b1", neighbors)
        dep.sim.run(until=30_000)

        assert "b3" not in dep.network.neighbors_of("b1")
        assert network_hops(dep.network, "b1", "b3") == 2
        # traffic kept flowing over the detour after the restart
        assert dep.metrics.counter_value("broker.msgs.delivered") > 0
