"""The broker's announce rule against the fabric, on both control planes.

A broker announces a pattern while it has a client subscriber or a
handler whose pattern is not ``Suppress``-constrained, and the fabric
hears of each pattern once: one announce when the rule goes true, one
retract when it goes false.  The machine subscribes and unsubscribes
clients and handlers on a three-broker chain and keeps its own model of
who holds what.  After every step, for every broker:

* the plane counts exactly the patterns the model says are announced
  (the federated accumulator's ``count``; the verbatim plane's owners);
* the hot set is the broker's announced view (federated), or the
  verbatim plane's rows are;
* the flushed summary and the live digest equal what a fresh plane
  builds from that view alone.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.federation import FederatedInterestPlane, FederationConfig
from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from tests.support import BrokerViews, announced_digest, build_chain, flushed_summary

BROKERS = ("b1", "b2", "b3")
CLIENTS = ("c1", "c2")
#: clients and handlers may both hold these
SHARED = (
    "T/x",
    "T/y",
    "U/z",
    "T/*",
    "T/>",
    ">",
    "Constrained/Traces/Broker/Publish-Only/Suppress/x",
)
#: a hosting broker's own session topic: handlers only, never announced
SESSION = "Constrained/Traces/Broker/Subscribe-Only/Limited/s1"
SUPPRESSED = {SHARED[-1], SESSION}


def _handler(name):
    def handler(message):
        return name

    return handler


HANDLERS = (_handler("h1"), _handler("h2"))

brokers = st.sampled_from(BROKERS)
clients = st.sampled_from(CLIENTS)
shared = st.sampled_from(SHARED)
handled = st.sampled_from((*SHARED, SESSION))
handlers = st.sampled_from(HANDLERS)


class AnnounceMachine(RuleBasedStateMachine):
    @initialize(federation=st.booleans(), hot_set_limit=st.sampled_from((1, 3)))
    def start(self, federation, hot_set_limit):
        self.config = FederationConfig(hot_set_limit=hot_set_limit, digest_bits=1024)
        self.network = BrokerNetwork(
            Simulator(), seed=5, federation=self.config if federation else None
        )
        build_chain(self.network, BROKERS)
        # broker -> pattern -> client ids / handlers, as subscribed
        self.clients = {b: {} for b in BROKERS}
        self.handlers = {b: {} for b in BROKERS}
        for broker_id in BROKERS:
            for client_id in CLIENTS:
                client = self.network.add_client(f"{broker_id}-{client_id}")
                self.network.connect_client(client, broker_id)

    def announced(self, broker_id):
        """The model's announce rule."""
        clients, handlers = self.clients[broker_id], self.handlers[broker_id]
        return {p for p, held in clients.items() if held} | {
            p for p, held in handlers.items() if held and p not in SUPPRESSED
        }

    # ------------------------------------------------------------------ rules

    @rule(broker_id=brokers, client=clients, pattern=shared)
    def subscribe_client(self, broker_id, client, pattern):
        client_id = f"{broker_id}-{client}"
        self.network.broker(broker_id).add_client_subscription(client_id, pattern)
        self.clients[broker_id].setdefault(pattern, set()).add(client_id)

    @rule(broker_id=brokers, client=clients, pattern=shared)
    def unsubscribe_client(self, broker_id, client, pattern):
        client_id = f"{broker_id}-{client}"
        self.network.broker(broker_id).remove_client_subscription(client_id, pattern)
        self.clients[broker_id].get(pattern, set()).discard(client_id)

    @rule(broker_id=brokers, client=clients)
    def purge_client(self, broker_id, client):
        client_id = f"{broker_id}-{client}"
        self.network.broker(broker_id).purge_client_subscriptions(client_id)
        for held in self.clients[broker_id].values():
            held.discard(client_id)

    @rule(broker_id=brokers, handler=handlers, pattern=handled)
    def subscribe_handler(self, broker_id, handler, pattern):
        self.network.broker(broker_id).subscribe_local(pattern, handler)
        self.handlers[broker_id].setdefault(pattern, []).append(handler)

    @rule(broker_id=brokers, handler=handlers, pattern=handled)
    def unsubscribe_handler(self, broker_id, handler, pattern):
        self.network.broker(broker_id).unsubscribe_local(pattern, handler)
        held = self.handlers[broker_id].get(pattern, [])
        if handler in held:
            held.remove(handler)

    @rule(broker_id=brokers)
    def route(self, broker_id):
        """A routing query: the federated plane flushes on it."""
        self.network.broker(broker_id)._interested_brokers("T/x")

    # ------------------------------------------------------------- invariants

    @invariant()
    def the_view_is_the_announce_rule(self):
        for broker_id in BROKERS:
            view = self.network.broker(broker_id).announced_patterns()
            assert sorted(view) == sorted(self.announced(broker_id))

    @invariant()
    def every_pattern_is_announced_once(self):
        registry = self.network.monitor.metrics
        live = registry.counter_value("broker.interest.announced") - registry.counter_value(
            "broker.interest.retracted"
        )
        assert live == sum(len(self.announced(b)) for b in BROKERS)

    @invariant()
    def the_plane_counts_the_announced_patterns(self):
        plane = self.network.federation
        for broker_id in BROKERS:
            announced = self.announced(broker_id)
            if plane is None:
                owned = {p for p, owners in self.network._interest.items() if broker_id in owners}
                assert owned == announced
            else:
                assert plane._accumulators[broker_id].count == len(announced)

    @invariant()
    def the_hot_set_is_the_view_and_the_digest_a_fresh_planes(self):
        plane = self.network.federation
        if plane is None:
            return
        fresh = FederatedInterestPlane(Monitor(), self.config)
        views = BrokerViews(fresh)
        for broker_id in BROKERS:
            views.register(broker_id)
            for pattern in sorted(self.announced(broker_id)):
                views.announce(pattern, broker_id)
        for broker_id in BROKERS:
            announced = self.announced(broker_id)
            accumulator = plane._accumulators[broker_id]
            assert accumulator.digest == announced_digest(self.config, announced)
            summary = flushed_summary(plane, broker_id)
            expected = flushed_summary(fresh, broker_id)
            if summary is None or expected is None:
                assert not announced and (summary is None or not summary.hot)
                continue
            if len(announced) <= self.config.hot_set_limit:
                assert summary.hot == tuple(sorted(announced))
            assert (summary.hot, summary.digest, summary.match_all) == (
                expected.hot, expected.digest, expected.match_all
            )


TestAnnounceMachine = AnnounceMachine.TestCase
TestAnnounceMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)


@pytest.mark.deep
class TestAnnounceMachineDeep(AnnounceMachine.TestCase):
    settings = settings(max_examples=400, stateful_step_count=50, deadline=None)
