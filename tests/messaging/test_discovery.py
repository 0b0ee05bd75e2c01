"""Tests for the broker discovery service."""

import pytest

from repro.errors import DiscoveryError
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.discovery import (
    RESPONSE_DELAY_MS,
    BrokerDiscoveryService,
    PlacementPolicy,
)
from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from tests.support import build_chain, run_process


@pytest.fixture
def setup():
    sim = Simulator()
    network = BrokerNetwork(sim, seed=0)
    build_chain(network, ["b1", "b2", "b3"])
    service = BrokerDiscoveryService(sim, network.monitor)
    for broker in network.brokers():
        service.register_broker(broker)
    return sim, network, service


class TestDiscovery:
    def test_charges_response_delay(self, setup):
        sim, _, service = setup
        broker = run_process(sim, service.discover())
        assert sim.now == pytest.approx(RESPONSE_DELAY_MS)
        assert broker.broker_id in ("b1", "b2", "b3")

    def test_round_robin_cycles(self, setup):
        sim, _, service = setup
        seen = [
            run_process(sim, service.discover(PlacementPolicy.ROUND_ROBIN)).broker_id
            for _ in range(6)
        ]
        assert seen == ["b1", "b2", "b3", "b1", "b2", "b3"]

    def test_first_policy(self, setup):
        sim, _, service = setup
        assert run_process(sim, service.discover(PlacementPolicy.FIRST)).broker_id == "b1"

    def test_least_loaded(self, setup):
        sim, network, service = setup
        for i in range(3):
            client = network.add_client(f"c{i}")
            network.connect_client(client, "b1")
        chosen = run_process(sim, service.discover(PlacementPolicy.LEAST_LOADED))
        assert chosen.broker_id in ("b2", "b3")

    def test_no_brokers_raises(self):
        sim = Simulator()
        service = BrokerDiscoveryService(sim, Monitor())
        with pytest.raises(DiscoveryError):
            run_process(sim, service.discover())

    def test_deregister(self, setup):
        sim, _, service = setup
        service.deregister_broker("b1")
        assert sorted(service._brokers) == ["b2", "b3"]
        assert run_process(sim, service.discover(PlacementPolicy.FIRST)).broker_id == "b2"
