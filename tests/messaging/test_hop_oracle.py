"""The two-entry pass-through hop against the three-entry hop it replaced.

A frame that only crosses a broker (no publish guard installed, the
broker not among its destinations) holds the broker's CPU for
``processing_ms`` and is forwarded.  ``Broker.receive_from_neighbor``
starts that hold inside the link's delivery callback, so the hop is two
heap entries: the delivery and the hold's timer.  The oracle below is
the hop as it was before: the delivery pushed a zero-delay start entry
that began the hold, and ``_pass_through`` took one more sequence
number, the one the generator process the start entry stood in for took
when it finished.

Starting the hold one step earlier changes no routing decision, so over
any connected fabric both hops must deliver the same multiset of
``(subscriber, message id, hops)`` and leave the same registry counters.
Independently of the oracle, each delivery of either hop must count one
hop per link of the path its message took.
What may change is the order in which frames tied at one float instant
enter a busy CPU.  Every link here has one fixed latency (no jitter, no
per-byte cost), so no frame waits behind another on a link and a
delivery's time is its publish time plus the link latencies and CPU
holds of its path, which both hops share, plus what it waited for busy
CPUs.  Its time may therefore move by at most what it could wait:
``processing_ms`` for each hold that queued on a broker of its path.  (A fixed ``processing_ms`` per hop is
too tight: in the pinned example below a one-hop delivery moves by three
holds.)
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.messaging.broker import DEFAULT_PROCESSING_MS, Broker
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message
from repro.messaging.topics import Topic
from repro.sim.engine import Resource, Simulator
from repro.transport.tcp import tcp_profile

TOPICS = ("Fabric/a", "Fabric/b")
FIXED_LATENCY = tcp_profile(jitter_ms=0.0, per_kb_ms=0.0)

live_receive = Broker.receive_from_neighbor


def three_entry_receive(self, neighbor_id, frame):
    """The oracle's delivery: a pass-through pushes a start entry for its hold."""
    if self.failed or self.publish_guards or self.broker_id in frame.destinations:
        live_receive(self, neighbor_id, frame)
        return
    hold = self.machine.cpu.use_then
    self.sim.call_later(
        0.0, partial(hold, self.processing_ms, self._pass_through, neighbor_id, frame)
    )


def three_entry_pass_through(self, neighbor_id, frame):
    """The oracle's forward: it takes the number the finished process took."""
    self._msgs_forwarded_in.inc()
    self._forward(frame.message, frame.destinations, neighbor_id, frame.hops + 1)
    self.sim._seq += 1


@st.composite
def fabrics(draw):
    """A connected topology of 3-12 brokers, its CPUs, subscribers and publishes."""
    size = draw(st.integers(3, 12))
    # a random spanning tree keeps it connected; extra edges add cycles
    edges = {(draw(st.integers(0, child - 1)), child) for child in range(1, size)}
    pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    for a, b in draw(st.lists(pairs, max_size=size)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    # mostly one-slot CPUs, so that tied frames queue
    capacities = draw(st.lists(st.sampled_from([1, 1, 2, 4]), min_size=size, max_size=size))
    node = st.integers(0, size - 1)
    topic = st.integers(0, len(TOPICS) - 1)
    subscribers = draw(st.lists(st.tuples(node, topic), min_size=1, max_size=size))
    # publishes at 0 or 1 ms: equal paths take equal times, ties everywhere
    publish = st.tuples(st.integers(0, 1), node, topic)
    publishes = draw(st.lists(publish, min_size=1, max_size=24))
    return size, sorted(edges), capacities, subscribers, publishes


def run_fabric(fabric):
    """Run ``fabric`` on fixed-latency links.

    Returns its deliveries ``(subscriber, message id, hops, time)``, each
    with the brokers its message crossed, the registry snapshot, and how
    many holds queued for each broker's CPU.
    """
    size, edges, capacities, subscribers, publishes = fabric
    sim = Simulator()
    network = BrokerNetwork(sim, seed=0, default_profile=FIXED_LATENCY)
    ids = [f"b{i:02d}" for i in range(size)]
    for broker_id, capacity in zip(ids, capacities, strict=True):
        network.machine(f"machine-{broker_id}", cpu_capacity=capacity)
        network.add_broker(broker_id)
    for a, b in edges:
        network.connect_brokers(ids[a], ids[b])
    delivered = []
    for node, topic in subscribers:
        broker = network.broker(ids[node])
        broker.subscribe_local(
            TOPICS[topic],
            lambda message, broker_id=broker.broker_id: delivered.append(
                (broker_id, message.message_id, message.hops, sim.now, message.source)
            ),
        )
    for when, node, topic in publishes:
        broker = network.broker(ids[node])
        message = Message(topic=Topic(TOPICS[topic]), body="m", source=broker.broker_id)
        sim.call_at(float(when), partial(broker.publish_from_broker, message))
    queued = Counter()
    request = Resource.request

    def counted_request(resource):
        # use and use_then take a free slot themselves: a request queues
        queued[resource.name.removeprefix("machine-").removesuffix(".cpu")] += 1
        return request(resource)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Resource, "request", counted_request)
        sim.run()
    deliveries = [
        (subscriber, message_id, hops, when, path(network, source, subscriber))
        for subscriber, message_id, hops, when, source in delivered
    ]
    return deliveries, network.monitor.metrics.snapshot(), queued


def path(network, origin, destination):
    """The brokers from ``origin`` to ``destination``, along the routing tables."""
    brokers = [origin]
    while brokers[-1] != destination:
        brokers.append(network.broker(brokers[-1]).routing_table[destination])
    return tuple(brokers)


def run_three_entry(fabric):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Broker, "receive_from_neighbor", three_entry_receive)
        patch.setattr(Broker, "_pass_through", three_entry_pass_through)
        return run_fabric(fabric)


def by_delivery(deliveries):
    """Delivery times per ``(subscriber, message id, hops, path)``, in order."""
    times = defaultdict(list)
    for subscriber, message_id, hops, when, brokers in deliveries:
        times[subscriber, message_id, hops, brokers].append(when)
    return times


def moved_deliveries(fabric):
    """Check both hops on ``fabric``; the deliveries whose time moved."""
    deliveries, snapshot, queued = run_fabric(fabric)
    oracle, oracle_snapshot, oracle_queued = run_three_entry(fabric)
    # whatever the model, a delivery's hop count is the links of its path
    for _subscriber, _message_id, hops, _when, brokers in (*deliveries, *oracle):
        assert hops == len(brokers) - 1
    assert Counter(d[:3] for d in deliveries) == Counter(d[:3] for d in oracle)
    assert snapshot["counters"] == oracle_snapshot["counters"]
    assert snapshot["gauges"] == oracle_snapshot["gauges"]
    # a histogram's moments are summed in observation order, so a
    # reordered tie may move their last bits; the rest is order-free
    assert snapshot["histograms"].keys() == oracle_snapshot["histograms"].keys()
    for name, histogram in snapshot["histograms"].items():
        expected = oracle_snapshot["histograms"][name]
        for key, value in histogram.items():
            if key in ("mean", "std_dev", "std_error"):
                assert value == pytest.approx(expected[key], rel=1e-12, abs=1e-12)
            else:
                assert value == expected[key]
    moved = []
    times, oracle_times = by_delivery(deliveries), by_delivery(oracle)
    for key, whens in times.items():
        brokers = key[3]
        slack = DEFAULT_PROCESSING_MS * sum(max(queued[b], oracle_queued[b]) for b in brokers)
        for when, then in zip(whens, oracle_times[key], strict=True):
            assert abs(when - then) <= slack + 1e-9
            if when != then:
                moved.append((key, when, then))
    return moved


#: a star: b00 links b01, b02 and b03, each CPU with one slot.  At 0 ms
#: b01 publishes two messages for the subscribers at b00 and b03, and b03
#: one for b02's (a pass-through at b00); at 1 ms b02 publishes two more
#: for b00 and b03.  Frames from the leaves reach b00 at the same instants.
PINNED = (
    4,
    [(0, 1), (0, 2), (0, 3)],
    [1, 1, 1, 1],
    [(0, 0), (2, 1), (3, 0)],
    [(0, 1, 0), (0, 1, 0), (0, 3, 1), (1, 2, 0), (1, 2, 0)],
)


def test_a_tie_reordered_on_a_one_slot_cpu_moves_deliveries_by_whole_holds():
    # message 3 crosses b00 one hold earlier: its hold starts in its
    # delivery step, ahead of message 1's tied ingress process.  Message
    # 1's ingress and per-delivery holds then queue behind frames that came
    # in meanwhile, and it reaches b03 five holds later over a two-hop path
    moved = moved_deliveries(PINNED)
    shifts = [
        (key[:3], round((when - then) / DEFAULT_PROCESSING_MS, 9)) for key, when, then in moved
    ]
    assert shifts == [
        (("b02", 3, 2), -1.0),
        (("b00", 1, 1), 2.0),
        (("b03", 1, 2), 5.0),
        (("b03", 4, 2), 1.0),
        (("b03", 2, 2), 1.0),
        (("b03", 5, 2), 1.0),
    ]


def _two_entry_hop(examples: int):
    @settings(max_examples=examples, deadline=None)
    @given(fabrics())
    @example(PINNED)
    def test(fabric):
        moved_deliveries(fabric)

    return test


test_two_entry_hop_delivers_what_the_three_entry_hop_did = _two_entry_hop(200)
#: the deep budget (``-m deep``; CI's "Deep example budgets" step)
test_two_entry_hop_delivers_what_the_three_entry_hop_did_deep = pytest.mark.deep(
    _two_entry_hop(5_000)
)
