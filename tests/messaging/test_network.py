"""Tests for the broker-network fabric."""

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.messaging.broker_network import BrokerNetwork
from repro.sim.engine import Simulator
from repro.transport.udp import udp_profile
from tests.support import build_chain, network_hops


@pytest.fixture
def sim():
    return Simulator()


class TestTopology:
    def test_build_chain(self, sim):
        network = BrokerNetwork(sim, seed=0)
        brokers = build_chain(network, ["a", "b", "c", "d"])
        assert [b.broker_id for b in brokers] == ["a", "b", "c", "d"]
        assert network_hops(network, "a", "d") == 3

    def test_duplicate_broker_rejected(self, sim):
        network = BrokerNetwork(sim, seed=0)
        network.add_broker("x")
        with pytest.raises(ConfigurationError):
            network.add_broker("x")

    def test_self_link_rejected(self, sim):
        network = BrokerNetwork(sim, seed=0)
        network.add_broker("x")
        with pytest.raises(ConfigurationError):
            network.connect_brokers("x", "x")

    def test_unknown_broker(self, sim):
        network = BrokerNetwork(sim, seed=0)
        with pytest.raises(RoutingError):
            network.broker("ghost")

    def test_routing_tables_updated_on_new_links(self, sim):
        network = BrokerNetwork(sim, seed=0)
        build_chain(network, ["a", "b", "c"])
        assert network.broker("a").routing_table["c"] == "b"
        network.connect_brokers("a", "c")
        assert network.broker("a").routing_table["c"] == "c"

    def test_brokers_sorted(self, sim):
        network = BrokerNetwork(sim, seed=0)
        network.add_broker("z")
        network.add_broker("a")
        assert [b.broker_id for b in network.brokers()] == ["a", "z"]


class TestMachines:
    def test_machine_get_or_create(self, sim):
        network = BrokerNetwork(sim, seed=0)
        assert network.machine("m") is network.machine("m")

    def test_machines_have_independent_rngs(self, sim):
        network = BrokerNetwork(sim, seed=0)
        a = network.machine("a").rng.random()
        b = network.machine("b").rng.random()
        assert a != b

    def test_deterministic_across_builds(self):
        values = []
        for _ in range(2):
            network = BrokerNetwork(Simulator(), seed=123)
            values.append(network.machine("m").rng.random())
        assert values[0] == values[1]

    def test_shared_machine_for_colocation(self, sim):
        network = BrokerNetwork(sim, seed=0)
        broker = network.add_broker("b", machine_name="host-1")
        client = network.add_client("c", machine_name="host-1")
        assert broker.machine is client.machine

    def test_ntp_model_applies_skew(self, sim):
        from repro.util.clock import NTPSkewModel

        network = BrokerNetwork(sim, seed=0, ntp_model=NTPSkewModel(seed=5))
        machine = network.machine("m")
        assert machine.now() != 0.0
        assert 30.0 <= abs(machine.now()) <= 100.0


class TestClients:
    def test_duplicate_client_rejected(self, sim):
        network = BrokerNetwork(sim, seed=0)
        network.add_client("c")
        with pytest.raises(ConfigurationError):
            network.add_client("c")

    def test_connect_by_name(self, sim):
        network = BrokerNetwork(sim, seed=0)
        network.add_broker("b")
        network.add_client("c")
        client = network.connect_client("c", "b")
        assert client.connected
        assert client.broker.broker_id == "b"

    def test_custom_profile(self, sim):
        network = BrokerNetwork(sim, seed=0)
        network.add_broker("b")
        client = network.add_client("c")
        network.connect_client(client, "b", profile=udp_profile())
        assert client._link_to_broker.profile.name == "UDP"


class TestClientLifecycle:
    def test_remove_client_frees_id(self, sim):
        network = BrokerNetwork(sim, seed=0)
        network.add_broker("b")
        client = network.add_client("c")
        network.connect_client(client, "b")
        network.remove_client("c")
        assert not client.connected
        again = network.add_client("c")  # id reusable
        assert again is not client

    def test_remove_unknown_client_is_noop(self, sim):
        BrokerNetwork(sim, seed=0).remove_client("ghost")


class TestBrokerFailureFabric:
    def test_fail_broker_updates_routes(self, sim):
        network = BrokerNetwork(sim, seed=0)
        build_chain(network, ["a", "b", "c"])
        network.connect_brokers("a", "c")
        network.fail_broker("b")
        assert network.broker("a").routing_table.get("c") == "c"
        assert "b" not in network.broker("a").routing_table

    def test_recover_broker_restores_adjacency(self, sim):
        network = BrokerNetwork(sim, seed=0)
        build_chain(network, ["a", "b", "c"])
        network.fail_broker("b")
        assert "b" not in network.broker("a").routing_table
        network.recover_broker("b", neighbors=["a", "c"])
        assert network.broker("a").routing_table["c"] == "b"
        assert not network.broker("b").failed
