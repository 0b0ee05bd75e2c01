"""Interest-lifecycle regressions: detach/terminate must retract interest.

The bug class under test: a broker that loses its last subscriber for a
pattern (client detach, DoS termination, unsubscribe) must retract its
interest, or peers keep forwarding matching traffic to it forever.
"""

import pytest

from repro.messaging.broker_network import BrokerNetwork
from repro.sim.engine import Simulator
from tests.support import build_chain, index_clients, stale_interest_entries, trie_nodes


@pytest.fixture
def net():
    sim = Simulator()
    network = BrokerNetwork(sim, seed=11)
    build_chain(network, ["b1", "b2", "b3"])
    return sim, network


def make_client(network, name, broker):
    client = network.add_client(name)
    network.connect_client(client, broker)
    return client


def forwarded_out(network):
    return network.monitor.metrics.counter_value("broker.msgs.forwarded_out")


class TestDetachRetractsInterest:
    def test_detach_stops_forwarding(self, net):
        """subscribe -> detach -> publish produces zero forwarded_out."""
        sim, network = net
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b3")
        sub.subscribe("stale/topic", lambda m: None)
        pub.publish("stale/topic", 1)
        sim.run()
        assert forwarded_out(network) > 0  # interest did route traffic

        network.broker("b3").detach_client("sub")
        before = forwarded_out(network)
        pub.publish("stale/topic", 2)
        sim.run()
        assert forwarded_out(network) == before
        assert network.broker("b1")._interested_brokers("stale/topic") == set()

    def test_terminate_client_stops_forwarding(self, net):
        """DoS termination (section 5.2) also retracts interest."""
        sim, network = net
        pub = make_client(network, "pub", "b1")
        mallory = make_client(network, "mallory", "b3")
        mallory.subscribe("watched/topic", lambda m: None)
        network.broker("b3").terminate_client("mallory")
        before = forwarded_out(network)
        pub.publish("watched/topic", 1)
        sim.run()
        assert forwarded_out(network) == before
        assert network.broker("b1")._interested_brokers("watched/topic") == set()

    def test_detach_keeps_other_subscribers_patterns(self, net):
        sim, network = net
        pub = make_client(network, "pub", "b1")
        leaving = make_client(network, "leaving", "b3")
        staying = make_client(network, "staying", "b3")
        got = []
        leaving.subscribe("shared/topic", lambda m: None)
        staying.subscribe("shared/topic", lambda m: got.append(m))
        network.broker("b3").detach_client("leaving")
        pub.publish("shared/topic", 1)
        sim.run()
        assert len(got) == 1  # interest NOT retracted while 'staying' remains

    def test_client_disconnect_retracts(self, net):
        sim, network = net
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b3")
        sub.subscribe("drop/topic", lambda m: None)
        sub.disconnect()
        before = forwarded_out(network)
        pub.publish("drop/topic", 1)
        sim.run()
        assert forwarded_out(network) == before


class TestIndexHygiene:
    def test_drop_remote_interest_prunes_empty_entries(self, net):
        """Retraction must not leave dead patterns behind to re-scan."""
        sim, network = net
        b1 = network.broker("b1")
        sub = make_client(network, "sub", "b3")
        sub.subscribe("dead/pattern", lambda m: None)
        assert "dead/pattern" in b1._subs
        sub.unsubscribe("dead/pattern")
        assert "dead/pattern" not in b1._subs
        assert len(b1._subs) == 0

    def test_detach_prunes_publisher_side_index(self, net):
        sim, network = net
        sub = make_client(network, "sub", "b3")
        sub.subscribe("a/b", lambda m: None)
        sub.subscribe("a/*", lambda m: None)
        sub.subscribe("c/>", lambda m: None)
        b1_index = network.broker("b1")._subs
        assert len(b1_index) == 3
        network.broker("b3").detach_client("sub")
        assert len(b1_index) == 0
        assert trie_nodes(b1_index) == 0

    def test_patterns_gauge_returns_to_baseline(self, net):
        sim, network = net
        registry = network.monitor.metrics
        baseline = registry.gauge_value("broker.interest.patterns")
        sub = make_client(network, "sub", "b3")
        sub.subscribe("g/topic", lambda m: None)
        # the subscribing broker holds a local entry; both peers hold a
        # remote-interest entry each
        assert registry.gauge_value("broker.interest.patterns") == baseline + 3
        network.broker("b3").detach_client("sub")
        assert registry.gauge_value("broker.interest.patterns") == baseline


class TestRetractionSymmetry:
    """The announce/retract guards must mirror each other, and
    ``remove_client`` must leave zero stale interest fabric-wide."""

    def test_drop_remote_interest_ignores_self(self, net):
        """A broker's own retraction flood must not touch its local
        index — the mirror of the ``note_remote_interest`` self-guard."""
        sim, network = net
        b3 = network.broker("b3")
        sub = make_client(network, "sub", "b3")
        staying = make_client(network, "staying", "b3")
        sub.subscribe("sym/topic", lambda m: None)
        staying.subscribe("sym/topic", lambda m: None)
        # a self-addressed drop (as a buggy flood echo would deliver) is a no-op
        b3.drop_remote_interest("sym/topic", "b3")
        assert b3.announced_patterns() == ["sym/topic"]
        assert index_clients(b3._subs, "sym/topic") == ["staying", "sub"]

    @pytest.mark.parametrize("federation", [False, True], ids=["verbatim", "federated"])
    def test_unannounced_suppressed_pattern_is_not_retracted(self, federation):
        """A suppressed broker-local pattern is never announced, so its
        unsubscribe must neither count a retraction nor flood one."""
        network = BrokerNetwork(Simulator(), seed=11, federation=federation)
        build_chain(network, ["b1", "b2"])
        b1, handler = network.broker("b1"), lambda m: None
        b1.subscribe_local("Constrained/Traces/Limited/sess-1", handler)
        b1.unsubscribe_local("Constrained/Traces/Limited/sess-1", handler)
        registry = network.monitor.metrics
        assert registry.counter_value("broker.interest.announced") == 0
        assert registry.counter_value("broker.interest.retracted") == 0
        assert registry.counter_value("broker.interest.retraction_floods") == 0
        # an announced pattern still retracts, on either plane
        b1.subscribe_local("open/topic", handler)
        b1.unsubscribe_local("open/topic", handler)
        assert registry.counter_value("broker.interest.retracted") == 1
        assert registry.counter_value("broker.interest.retraction_floods") == (
            0 if federation else 1
        )

    def test_note_remote_interest_ignores_self(self, net):
        _, network = net
        b3 = network.broker("b3")
        b3.note_remote_interest("self/topic", "b3")
        assert "self/topic" not in b3._subs

    def test_remove_client_sweeps_all_brokers(self, net):
        """A client that hopped brokers without unsubscribing leaves
        subscriptions on the old broker; ``remove_client`` must purge
        them everywhere and retract the orphaned interest."""
        sim, network = net
        pub = make_client(network, "pub", "b1")
        hopper = make_client(network, "hopper", "b2")
        hopper.subscribe("hop/topic", lambda m: None)
        # hop: attach to b3 without detaching from b2 (the leak)
        network.connect_client(hopper, "b3")
        assert network.broker("b2").announced_patterns() == ["hop/topic"]

        network.remove_client("hopper")
        assert network.broker("b2").announced_patterns() == []
        assert stale_interest_entries(network, "hopper") == []
        before = forwarded_out(network)
        pub.publish("hop/topic", 1)
        sim.run()
        assert forwarded_out(network) == before  # nothing forwarded on leftovers

    def test_no_stale_entries_after_normal_lifecycle(self, net):
        sim, network = net
        sub = make_client(network, "sub", "b3")
        sub.subscribe("clean/topic", lambda m: None)
        sim.run()
        network.remove_client("sub")
        assert stale_interest_entries(network) == []
        assert stale_interest_entries(network, "sub") == []

    def test_stale_diagnostic_detects_injected_leak(self, net):
        """The diagnostic itself must see a fabricated control-plane leak."""
        _, network = net
        network._interest.setdefault("leak/topic", set()).add("b2")
        findings = stale_interest_entries(network)
        assert findings == ["leak/topic advertised by b2 with no local subscriber"]

    def test_stale_diagnostic_in_federated_mode(self):
        sim = Simulator()
        network = BrokerNetwork(sim, seed=11, federation=True)
        build_chain(network, ["b1", "b2", "b3"])
        sub = make_client(network, "sub", "b3")
        sub.subscribe("fed/topic", lambda m: None)
        assert stale_interest_entries(network) == []
        network.remove_client("sub")
        assert stale_interest_entries(network, "sub") == []
        # inject a leak straight into the plane: the diagnostic reports it
        network.federation.announce("fed/leak", "b2")
        assert stale_interest_entries(network) == [
            "b2 announces 0 patterns, the plane counts 1"
        ]


def interest_counts(network):
    registry = network.monitor.metrics
    return (
        registry.counter_value("broker.interest.announced"),
        registry.counter_value("broker.interest.retracted"),
    )


def plane_count(network, broker_id):
    """How many patterns the fabric holds for ``broker_id``."""
    if network.federation is not None:
        return network.federation._accumulators[broker_id].count
    return sum(broker_id in owners for owners in network._interest.values())


@pytest.mark.parametrize("federation", [False, True], ids=["verbatim", "federated"])
class TestAnnounceOnce:
    """A broker announces a pattern when it starts being announced (a
    client subscriber, or a handler not ``Suppress``-constrained) and
    retracts it when it stops, never once per subscriber."""

    def chain(self, federation):
        network = BrokerNetwork(Simulator(), seed=11, federation=federation)
        build_chain(network, ["b1", "b2", "b3"])
        return network

    def test_two_handlers_announce_and_retract_once(self, federation):
        network = self.chain(federation)
        b1 = network.broker("b1")
        first, second = (lambda m: None), (lambda m: None)
        b1.subscribe_local("T/x", first)
        b1.subscribe_local("T/x", second)
        # the federated plane floods once per changed summary, on a query
        network.broker("b3")._interested_brokers("T/x")
        b1.unsubscribe_local("T/x", first)
        b1.unsubscribe_local("T/x", second)
        assert interest_counts(network) == (1, 1)
        assert network.monitor.count("control.floods") == 1
        assert plane_count(network, "b1") == 0
        assert stale_interest_entries(network) == []

    def test_a_second_client_announces_nothing(self, federation):
        network = self.chain(federation)
        for name in ("c1", "c2"):
            make_client(network, name, "b1").subscribe("T/x", lambda m: None)
        assert interest_counts(network) == (1, 0)
        assert plane_count(network, "b1") == 1
        network.broker("b1").detach_client("c1")
        assert interest_counts(network) == (1, 0)
        network.broker("b1").detach_client("c2")
        assert interest_counts(network) == (1, 1)
        assert plane_count(network, "b1") == 0

    def test_an_unknown_unsubscribe_retracts_nothing(self, federation):
        network = self.chain(federation)
        b1, handler = network.broker("b1"), (lambda m: None)
        b1.unsubscribe_local("T/x", handler)
        b1.remove_client_subscription("ghost", "T/x")
        b1.subscribe_local("T/x", handler)
        b1.unsubscribe_local("T/x", lambda m: None)  # another handler
        assert interest_counts(network) == (1, 0)
        assert plane_count(network, "b1") == 1
        b1.unsubscribe_local("T/x", handler)
        b1.unsubscribe_local("T/x", handler)
        assert interest_counts(network) == (1, 1)
        assert plane_count(network, "b1") == 0

    @pytest.mark.parametrize("client_first", [True, False], ids=["client-first", "handler-first"])
    def test_a_suppressed_pattern_is_announced_while_a_client_holds_it(
        self, federation, client_first
    ):
        """A ``Suppress`` pattern's handler is never announced, so the
        pattern is retracted when its client leaves, whoever came first."""
        network = self.chain(federation)
        b1, pattern = network.broker("b1"), "Constrained/Traces/Broker/Publish-Only/Suppress/x"
        client, handler = make_client(network, "c1", "b1"), (lambda m: None)
        if client_first:
            client.subscribe(pattern, lambda m: None)
            b1.subscribe_local(pattern, handler)
        else:
            b1.subscribe_local(pattern, handler)
            client.subscribe(pattern, lambda m: None)
        assert b1.announced_patterns() == [pattern]
        assert interest_counts(network) == (1, 0)
        b1.detach_client("c1")
        assert b1.announced_patterns() == []
        assert interest_counts(network) == (1, 1)
        assert network.broker("b3")._interested_brokers(pattern) == set()
        assert stale_interest_entries(network) == []
        b1.unsubscribe_local(pattern, handler)
        assert interest_counts(network) == (1, 1)


class TestStaleForwardDetection:
    def test_stale_forward_counted_at_disinterested_destination(self, net):
        """A frame forwarded on fabricated stale interest is counted."""
        sim, network = net
        pub = make_client(network, "pub", "b1")
        # fabricate staleness: b1 believes b3 is interested, b3 is not
        network.broker("b1").note_remote_interest("phantom/topic", "b3")
        network.broker("b2").note_remote_interest("phantom/topic", "b3")
        pub.publish("phantom/topic", 1)
        sim.run()
        registry = network.monitor.metrics
        assert registry.counter_value("broker.interest.stale_forwards") == 1
        assert network.monitor.metrics.counter_value("broker.interest.stale_forwards") == 1

    def test_healthy_forwarding_is_not_stale(self, net):
        sim, network = net
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b3")
        sub.subscribe("live/topic", lambda m: m)
        pub.publish("live/topic", 1)
        sim.run()
        assert (
            network.monitor.metrics.counter_value("broker.interest.stale_forwards")
            == 0
        )


class TestLateJoiningBroker:
    def test_new_broker_learns_existing_interest(self, net):
        """Interest flooded before a broker joined is replayed to it."""
        sim, network = net
        sub = make_client(network, "sub", "b3")
        sub.subscribe("early/topic", lambda m: None)
        network.add_broker("b4")
        network.connect_brokers("b3", "b4")
        assert network.broker("b4")._interested_brokers("early/topic") == {"b3"}

    def test_replayed_interest_is_retractable(self, net):
        sim, network = net
        sub = make_client(network, "sub", "b3")
        sub.subscribe("early/topic", lambda m: None)
        network.add_broker("b4")
        network.connect_brokers("b3", "b4")
        network.broker("b3").detach_client("sub")
        assert network.broker("b4")._interested_brokers("early/topic") == set()
