"""Tests for the benchmark topology builders."""

import pytest

from repro.bench.topology import (
    MEASURE_HOST,
    hops_chain,
    single_broker_colocated,
    star_with_trackers,
)
from repro.transport.udp import udp_profile
from tests.support import network_hops


class TestHopsChain:
    def test_two_hops_is_single_broker(self):
        dep, entity, tracker = hops_chain(2)
        assert len(dep.network.brokers()) == 1

    def test_six_hops_is_five_broker_chain(self):
        dep, entity, tracker = hops_chain(6)
        assert len(dep.network.brokers()) == 5
        assert network_hops(dep.network, "broker-0", "broker-4") == 4

    def test_entity_and_tracker_colocated(self):
        """The paper's clock-synchronization trick."""
        dep, entity, tracker = hops_chain(3)
        assert entity.machine is tracker.machine
        assert entity.machine.name == MEASURE_HOST

    def test_rejects_fewer_than_two_hops(self):
        with pytest.raises(ValueError):
            hops_chain(1)

    def test_profile_applied(self):
        dep, entity, tracker = hops_chain(3, profile=udp_profile())
        assert dep.default_profile.name == "UDP"

    def test_secured_flag_propagates(self):
        dep, entity, _ = hops_chain(2, secured=True)
        assert entity.secured


class TestStarWithTrackers:
    def test_groups_of_ten_per_machine(self):
        dep, entity, measuring, load = star_with_trackers(25)
        machines = {t.machine.name for t in load}
        assert machines == {"tracker-host-0", "tracker-host-1", "tracker-host-2"}
        assert len(load) == 25

    def test_zero_trackers_allowed(self):
        dep, entity, measuring, load = star_with_trackers(0)
        assert load == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            star_with_trackers(-1)

    def test_measuring_tracker_colocated_with_entity(self):
        dep, entity, measuring, _ = star_with_trackers(10)
        assert measuring.machine is entity.machine


class TestSingleBrokerColocated:
    def test_everyone_on_one_machine(self):
        dep, entities, trackers = single_broker_colocated(5, tracker_count=6)
        for principal in entities + trackers:
            assert principal.machine.name == MEASURE_HOST

    def test_shared_machine_has_one_cpu(self):
        dep, entities, trackers = single_broker_colocated(2, tracker_count=2)
        assert dep.network.machine(MEASURE_HOST).cpu.capacity == 1

    def test_counts(self):
        dep, entities, trackers = single_broker_colocated(10, tracker_count=30)
        assert len(entities) == 10
        assert len(trackers) == 30

    def test_trackers_are_passive_receivers(self):
        dep, entities, trackers = single_broker_colocated(2, tracker_count=2)
        assert all(not t.verify_traces for t in trackers)
