"""Tests for broker behaviour: pub/sub, enforcement, DoS handling."""

import pytest

from repro.errors import UnauthorizedError
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message
from repro.messaging.topics import Topic
from repro.sim.engine import Simulator
from tests.support import build_chain


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


class TestLocalPubSub:
    def test_same_broker_delivery(self, net):
        sim, network = net
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b1")
        got = []
        sub.subscribe("news/local", lambda m: got.append(m.body))
        pub.publish("news/local", {"v": 1})
        sim.run()
        assert got == [{"v": 1}]

    def test_publisher_does_not_hear_itself(self, net):
        sim, network = net
        client = make_client(network, "c", "b1")
        got = []
        client.subscribe("self/topic", lambda m: got.append(m))
        client.publish("self/topic", "x")
        sim.run()
        assert got == []

    def test_wildcard_subscription(self, net):
        sim, network = net
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b1")
        got = []
        sub.subscribe("metrics/>", lambda m: got.append(m.topic.canonical))
        pub.publish("metrics/cpu/core0", 0.5)
        pub.publish("metrics/mem", 0.7)
        pub.publish("other/cpu", 0.1)
        sim.run()
        assert sorted(got) == ["metrics/cpu/core0", "metrics/mem"]

    def test_unsubscribe_stops_delivery(self, net):
        sim, network = net
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b1")
        got = []
        handler = lambda m: got.append(m.body)
        sub.subscribe("t/x", handler)
        pub.publish("t/x", 1)
        sim.run()
        sub.unsubscribe("t/x", handler)
        pub.publish("t/x", 2)
        sim.run()
        assert got == [1]

    def test_overlapping_patterns_deliver_one_copy_per_client(self, net):
        """One copy per client per message, not one per matching pattern:
        the client runs the handlers of all its matching patterns itself."""
        sim, network = net
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b1")
        other = make_client(network, "other", "b1")
        got = []
        sub.subscribe("m/>", lambda m: got.append("wild"))
        sub.subscribe("m/cpu", lambda m: got.append("exact"))
        other.subscribe("m/cpu", lambda m: got.append("other"))
        broker = network.broker("b1")
        delivered = broker.metrics.counter("broker.msgs.delivered")
        before = delivered.value
        pub.publish("m/cpu", 1)
        sim.run()
        assert [who for who in got if who != "other"] == ["wild", "exact"]
        assert got.count("other") == 1
        assert delivered.value - before == 2  # clients, not (client, pattern) pairs


class TestMultiHopRouting:
    def test_two_hop_delivery(self, net):
        sim, network = net
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b3")
        got = []
        sub.subscribe("far/topic", lambda m: got.append(m))
        pub.publish("far/topic", "payload")
        sim.run()
        assert len(got) == 1
        assert got[0].hops == 2  # b1 -> b2 -> b3

    def test_no_interest_no_forwarding(self, net):
        sim, network = net
        pub = make_client(network, "pub", "b1")
        before = network.broker("b1").metrics.counter_value("broker.msgs.forwarded_out")
        pub.publish("nobody/listens", 1)
        sim.run()
        after = network.broker("b1").metrics.counter_value("broker.msgs.forwarded_out")
        assert after == before

    def test_multiple_subscribers_across_brokers(self, net):
        sim, network = net
        pub = make_client(network, "pub", "b2")
        got = []
        for i, broker in enumerate(["b1", "b2", "b3"]):
            sub = make_client(network, f"sub{i}", broker)
            sub.subscribe("fan/out", lambda m, i=i: got.append(i))
        pub.publish("fan/out", "x")
        sim.run()
        assert sorted(got) == [0, 1, 2]

    def test_no_duplicate_delivery(self, net):
        sim, network = net
        # add a redundant link making a ring: b1-b2-b3 plus b1-b3
        network.connect_brokers("b1", "b3")
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b3")
        got = []
        sub.subscribe("ring/topic", lambda m: got.append(m))
        pub.publish("ring/topic", 1)
        sim.run()
        assert len(got) == 1
        assert got[0].hops == 1  # direct link preferred


class TestBacktrackingLeg:
    def test_a_leg_routed_back_where_it_came_from_is_counted_and_journaled(self):
        # ring b0-b1-b2-b3, subscriber on b2; b0 routes to b2 through b1.
        # Cutting b1-b2 while the frame is on b0 -> b1 leaves b1 a next hop
        # of b0, the neighbor the frame came from: the leg is dropped, and
        # the drop is named rather than lost without a trace
        sim = Simulator()
        network = BrokerNetwork(sim, seed=0)
        build_chain(network, ["b0", "b1", "b2", "b3"])
        network.connect_brokers("b3", "b0")
        got = []
        network.broker("b2").subscribe_local("ring/topic", got.append)
        assert network.broker("b0").routing_table["b2"] == "b1"
        metrics = network.monitor.metrics
        network.broker("b0").publish_from_broker(
            Message(topic=Topic("ring/topic"), body=1, source="b0")
        )
        while metrics.counter_value("broker.msgs.forwarded_out") == 0:
            sim.step()
        network.partition_link("b1", "b2")
        sim.run()
        assert got == []
        assert metrics.counter_value("broker.messages.dropped_backtrack") == 1
        assert metrics.counter_value("broker.msgs.dropped") == 1
        # a topology change, not an unroutable destination: b2 is reachable
        assert metrics.counter_value("broker.msgs.unroutable") == 0
        (record,) = network.monitor.journal.records("route.backtrack")
        assert record.fields == {"broker": "b1", "neighbor": "b0", "destinations": ("b2",)}


class TestLegWithoutLink:
    def test_a_leg_whose_next_hop_has_no_link_is_counted_and_journaled(self):
        # line b0-b1-b2-b3, subscriber on b3; b1's route to b3 names a
        # neighbor it has no link to.  The leg is dropped, and the drop is
        # named rather than lost inside the hop
        sim = Simulator()
        network = BrokerNetwork(sim, seed=0)
        build_chain(network, ["b0", "b1", "b2", "b3"])
        got = []
        network.broker("b3").subscribe_local("line/topic", got.append)
        network.broker("b1").routing_table["b3"] = "bX"
        metrics = network.monitor.metrics
        network.broker("b0").publish_from_broker(
            Message(topic=Topic("line/topic"), body=1, source="b0")
        )
        sim.run()
        assert got == []
        assert metrics.counter_value("broker.messages.dropped_no_link") == 1
        assert metrics.counter_value("broker.msgs.dropped") == 1
        assert metrics.counter_value("broker.msgs.unroutable") == 0
        (record,) = network.monitor.journal.records("route.no_link")
        assert record.fields == {"broker": "b1", "next_hop": "bX", "destinations": ("b3",)}


class TestConstrainedEnforcement:
    def test_subscribe_only_rejects_entity_subscription(self, net):
        sim, network = net
        client = make_client(network, "eve", "b1")
        with pytest.raises(UnauthorizedError):
            client.subscribe(
                "Constrained/Traces/Broker/Subscribe-Only/Registration",
                lambda m: None,
            )

    def test_entity_constrainer_may_subscribe(self, net):
        sim, network = net
        client = make_client(network, "svc-1", "b1")
        client.subscribe(
            "Constrained/Traces/svc-1/Subscribe-Only/tt/ss", lambda m: None
        )  # no exception

    def test_publish_only_rejects_entity_publish(self, net):
        sim, network = net
        client = make_client(network, "eve", "b1")
        watcher = make_client(network, "watcher", "b1")
        got = []
        watcher.subscribe(
            "Constrained/Traces/Broker/Publish-Only/tt/Load", lambda m: got.append(m)
        )
        client.publish("Constrained/Traces/Broker/Publish-Only/tt/Load", {"cpu": 1})
        sim.run()
        assert got == []
        assert network.broker("b1").metrics.counter_value("broker.messages.rejected_constrained") == 1

    def test_broker_publish_on_publish_only_allowed(self, net):
        sim, network = net
        watcher = make_client(network, "watcher", "b1")
        got = []
        watcher.subscribe(
            "Constrained/Traces/Broker/Publish-Only/tt/Load", lambda m: got.append(m)
        )
        broker = network.broker("b1")
        broker.publish_from_broker(
            Message(
                topic=Topic.parse("Constrained/Traces/Broker/Publish-Only/tt/Load"),
                body={"cpu": 0.5},
                source="b1",
            )
        )
        sim.run()
        assert len(got) == 1

    def test_suppressed_broker_subscription_stays_local(self, net):
        sim, network = net
        # broker b3 subscribes to a Limited session topic
        topic = "Constrained/Traces/Broker/Subscribe-Only/Limited/tt/ss"
        got = []
        network.broker("b3").subscribe_local(topic, lambda m: got.append(m))
        # b1 and b2 must NOT have learned remote interest for it
        assert network.broker("b1")._interested_brokers(topic) == set()
        # an entity publishing at b3 still reaches the local broker handler
        client = make_client(network, "svc", "b3")
        client.publish(topic, {"kind": "ping_response"})
        sim.run()
        assert len(got) == 1


class TestDoSDefense:
    def test_repeated_violations_terminate_client(self, net):
        sim, network = net
        broker = network.broker("b1")
        mallory = make_client(network, "mallory", "b1")
        for _ in range(broker.violation_limit):
            mallory.publish(
                "Constrained/Traces/Broker/Publish-Only/tt/Load", {"fake": 1}
            )
            sim.run()
        assert broker.is_blacklisted("mallory")
        assert "mallory" not in broker.client_ids

    def test_blacklisted_messages_dropped(self, net):
        sim, network = net
        broker = network.broker("b1")
        mallory = make_client(network, "mallory", "b1")
        broker.terminate_client("mallory")
        before = broker.metrics.counter_value("broker.msgs.ingress")
        # the link still exists client-side; sends are dropped at ingress
        mallory.publish("any/topic", 1)
        sim.run()
        assert broker.metrics.counter_value("broker.msgs.ingress") == before
        assert broker.metrics.counter_value("broker.dos.dropped_blacklisted") >= 1

    def test_blacklisted_cannot_resubscribe(self, net):
        sim, network = net
        broker = network.broker("b1")
        mallory = make_client(network, "mallory", "b1")
        broker.terminate_client("mallory")
        with pytest.raises(UnauthorizedError):
            broker.add_client_subscription("mallory", "any/topic")

    def test_violation_counts_tracked(self, net):
        sim, network = net
        broker = network.broker("b1")
        mallory = make_client(network, "mallory", "b1")
        mallory.publish("Constrained/Traces/Broker/Publish-Only/tt/Load", 1)
        sim.run()
        violations = broker.monitor.journal.records("violation")
        assert [record.principal for record in violations] == ["mallory"]


class TestGuards:
    def test_guard_can_reject(self, net):
        sim, network = net
        broker = network.broker("b1")

        def deny_all(broker_, message, origin, from_neighbor):
            return False
            yield  # pragma: no cover - makes this a generator

        broker.publish_guards.append(deny_all)
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b1")
        got = []
        sub.subscribe("t/x", lambda m: got.append(m))
        pub.publish("t/x", 1)
        sim.run()
        assert got == []
        assert broker.metrics.counter_value("broker.messages.rejected_guard") == 1

    def test_guard_charges_time(self, net):
        sim, network = net
        broker = network.broker("b1")

        def slow_guard(broker_, message, origin, from_neighbor):
            yield broker_.sim.timeout(50.0)
            return True

        broker.publish_guards.append(slow_guard)
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b1")
        got = []
        sub.subscribe("t/x", lambda m: got.append(sim.now))
        pub.publish("t/x", 1)
        sim.run()
        assert got and got[0] > 50.0


class TestPublishSuppression:
    def test_suppressed_publication_stays_local(self, net):
        """Publish-Only + Suppress: the constrainer's publications are not
        distributed to other brokers (section 3.1)."""
        sim, network = net
        topic = "Constrained/Traces/Broker/Publish-Only/Suppress/tt/Local"
        remote = make_client(network, "remote-sub", "b3")
        local = make_client(network, "local-sub", "b1")
        got_remote, got_local = [], []
        remote.subscribe(topic, lambda m: got_remote.append(m))
        local.subscribe(topic, lambda m: got_local.append(m))

        broker = network.broker("b1")
        broker.publish_from_broker(
            Message(topic=Topic.parse(topic), body={"x": 1}, source="b1")
        )
        sim.run()
        assert got_local and not got_remote
        assert broker.metrics.counter_value("broker.messages.suppressed") == 1

    def test_disseminate_publication_propagates(self, net):
        sim, network = net
        topic = "Constrained/Traces/Broker/Publish-Only/Disseminate/tt/Wide"
        remote = make_client(network, "remote-sub", "b3")
        got = []
        remote.subscribe(topic, lambda m: got.append(m))
        network.broker("b1").publish_from_broker(
            Message(topic=Topic.parse(topic), body={"x": 1}, source="b1")
        )
        sim.run()
        assert got


class TestBrokerFailureFlag:
    def test_failed_broker_drops_client_traffic(self, net):
        sim, network = net
        client = make_client(network, "c", "b1")
        network.broker("b1").failed = True
        before = network.broker("b1").metrics.counter_value("broker.msgs.ingress")
        client.publish("any/topic", 1)
        sim.run()
        assert network.broker("b1").metrics.counter_value("broker.msgs.ingress") == before


class TestInterestRetraction:
    def test_unsubscribe_stops_remote_forwarding(self, net):
        """When the last subscriber at a broker unsubscribes, remote
        brokers stop forwarding matching traffic to it."""
        sim, network = net
        pub = make_client(network, "pub", "b1")
        sub = make_client(network, "sub", "b3")
        got = []
        handler = lambda m: got.append(m)
        sub.subscribe("retract/topic", handler)
        pub.publish("retract/topic", 1)
        sim.run()
        assert len(got) == 1
        forwarded_before = network.broker("b1").metrics.counter_value("broker.msgs.forwarded_out")

        sub.unsubscribe("retract/topic", handler)
        pub.publish("retract/topic", 2)
        sim.run()
        assert len(got) == 1  # nothing new delivered
        # and nothing was even forwarded toward b3
        assert network.broker("b1").metrics.counter_value("broker.msgs.forwarded_out") \
            == forwarded_before

    def test_retraction_only_when_last_subscriber_leaves(self, net):
        sim, network = net
        pub = make_client(network, "pub", "b1")
        sub_a = make_client(network, "sub-a", "b3")
        sub_b = make_client(network, "sub-b", "b3")
        got_a, got_b = [], []
        handler_a = lambda m: got_a.append(m)
        sub_a.subscribe("shared/topic", handler_a)
        sub_b.subscribe("shared/topic", lambda m: got_b.append(m))

        sub_a.unsubscribe("shared/topic", handler_a)
        pub.publish("shared/topic", 1)
        sim.run()
        assert got_a == []
        assert len(got_b) == 1  # b remains subscribed; interest not retracted

    def test_broker_local_unsubscribe_retracts(self, net):
        sim, network = net
        handler = lambda m: None
        network.broker("b3").subscribe_local("admin/topic", handler)
        assert network.broker("b1")._interested_brokers("admin/topic") == {"b3"}
        network.broker("b3").unsubscribe_local("admin/topic", handler)
        assert network.broker("b1")._interested_brokers("admin/topic") == set()
