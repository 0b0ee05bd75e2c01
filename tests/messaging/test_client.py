"""Tests for BrokerClient: subscription bookkeeping and local dispatch."""

import sys

import pytest

from repro.messaging import topics
from repro.messaging.broker_network import BrokerNetwork
from repro.sim.engine import Simulator
from tests.support import build_chain, index_clients, index_patterns


@pytest.fixture
def wired():
    """``(sim, broker, pub, sub)``: two clients on one broker."""
    sim = Simulator()
    network = BrokerNetwork(sim, seed=5)
    build_chain(network, ["b1"])
    clients = []
    for name in ("pub", "sub"):
        client = network.add_client(name)
        network.connect_client(client, "b1")
        clients.append(client)
    return sim, network.broker("b1"), *clients


def broker_side(broker, pattern):
    return index_clients(broker._subs, pattern)


class TestDispatch:
    def test_exact_star_and_many(self, wired):
        sim, _broker, pub, sub = wired
        got = {"exact": [], "star": [], "many": []}
        sub.subscribe("m/cpu/core0", lambda m: got["exact"].append(m.topic.canonical))
        sub.subscribe("m/*/core1", lambda m: got["star"].append(m.topic.canonical))
        sub.subscribe("n/>", lambda m: got["many"].append(m.topic.canonical))
        published = ("m/cpu/core0", "m/cpu/core1", "m/gpu/core1", "m/cpu", "n", "n/a", "n/a/b")
        for topic in published:
            pub.publish(topic, 0)
        sim.run()
        assert got["exact"] == ["m/cpu/core0"]
        assert sorted(got["star"]) == ["m/cpu/core1", "m/gpu/core1"]
        assert sorted(got["many"]) == ["n/a", "n/a/b"]  # '>' needs one more segment

    def test_overlapping_patterns_run_in_sorted_pattern_then_registration_order(self, wired):
        sim, _broker, pub, sub = wired
        order = []
        # registered against the sorted order on purpose
        sub.subscribe("m/cpu", lambda m: order.append("exact"))
        sub.subscribe("m/>", lambda m: order.append("many-1"))
        sub.subscribe("m/*", lambda m: order.append("star"))
        sub.subscribe("m/>", lambda m: order.append("many-2"))
        pub.publish("m/cpu", 1)
        sim.run()
        assert sorted(["m/cpu", "m/>", "m/*"]) == ["m/*", "m/>", "m/cpu"]
        assert order == ["star", "many-1", "many-2", "exact"]

    def test_unsubscribing_mid_dispatch_neither_raises_nor_skips(self, wired):
        sim, _broker, pub, sub = wired
        ran = []

        def first(message):
            ran.append("first")
            sub.unsubscribe("t/x", first)  # itself
            sub.unsubscribe("t/x", sibling)  # a sibling on the same pattern
            sub.unsubscribe("t/>")  # every handler of a pattern not yet reached

        def sibling(message):
            ran.append("sibling")

        sub.subscribe("t/x", first)
        sub.subscribe("t/x", sibling)
        sub.subscribe("t/>", lambda m: ran.append("later"))
        assert "t/>" < "t/x"  # so "later" is dispatched first, then the t/x pair
        pub.publish("t/x", 1)
        sim.run()
        assert ran == ["later", "first", "sibling"]
        assert index_patterns(sub._subs) == []
        pub.publish("t/x", 2)
        sim.run()
        assert ran == ["later", "first", "sibling"]

    def test_dispatch_does_not_scan_patterns(self, wired, monkeypatch):
        """A tracker holds a few exact patterns per tracked entity; finding
        the handlers of one message goes through the trie, never through a
        ``topic_matches`` test per held pattern."""
        sim, _broker, pub, sub = wired
        got = []
        for index in range(500):
            sub.subscribe(f"Traces/entity-{index}/AllsWell", lambda m, i=index: got.append(i))

        def scanned(pattern, topic):
            raise AssertionError(f"linear scan: topic_matches({pattern!r}, {topic!r})")

        original = topics.topic_matches
        for name, module in list(sys.modules.items()):
            # every ``from repro.messaging.topics import topic_matches`` copy too
            if name.startswith("repro.") and vars(module).get("topic_matches") is original:
                monkeypatch.setattr(module, "topic_matches", scanned)
        pub.publish("Traces/entity-317/AllsWell", 1)
        sim.run()
        assert got == [317]


class TestBookkeeping:
    def test_unsubscribe_without_handler_removes_all_and_retracts(self, wired):
        _sim, broker, _pub, sub = wired
        sub.subscribe("a/b", lambda m: None)
        sub.subscribe("a/b", lambda m: None)
        assert index_patterns(sub._subs) == ["a/b"] and broker_side(broker, "a/b") == ["sub"]
        sub.unsubscribe("a/b")
        assert index_patterns(sub._subs) == [] and broker_side(broker, "a/b") == []

    def test_only_the_last_handler_retracts(self, wired):
        sim, broker, pub, sub = wired
        got = []
        one, two = (lambda m: got.append(1)), (lambda m: got.append(2))
        sub.subscribe("a/b", one)
        sub.subscribe("a/b", two)
        sub.unsubscribe("a/b", one)
        assert index_patterns(sub._subs) == ["a/b"] and broker_side(broker, "a/b") == ["sub"]
        pub.publish("a/b", 0)
        sim.run()
        assert got == [2]
        sub.unsubscribe("a/b", two)
        assert index_patterns(sub._subs) == [] and broker_side(broker, "a/b") == []

    def test_unknown_handler_leaves_the_subscription_alone(self, wired):
        _sim, broker, _pub, sub = wired
        sub.subscribe("a/b", lambda m: None)
        sub.unsubscribe("a/b", lambda m: None)
        assert index_patterns(sub._subs) == ["a/b"] and broker_side(broker, "a/b") == ["sub"]

    def test_patterns_are_canonicalized(self, wired):
        sim, broker, pub, sub = wired
        got = []
        sub.subscribe("/a/b", got.append)
        assert index_patterns(sub._subs) == ["a/b"]
        pub.publish("a/b", 0)
        sim.run()
        assert len(got) == 1
        sub.unsubscribe("a/b")
        assert index_patterns(sub._subs) == [] and broker_side(broker, "a/b") == []

    def test_the_client_index_stays_off_the_deployment_gauges(self, wired):
        _sim, broker, _pub, sub = wired
        gauge = broker.metrics.gauge("broker.interest.patterns")
        before = gauge.value
        sub.subscribe("a/b", lambda m: None)
        sub.subscribe("a/c", lambda m: None)
        assert gauge.value - before == 2  # the broker's two entries, not four
