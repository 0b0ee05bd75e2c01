"""Tests for simulated links."""

import random

from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from repro.transport.disruption import LinkDisruption
from repro.transport.link import Link
from repro.transport.tcp import tcp_profile
from repro.transport.udp import udp_profile
from repro.wire import SizeMemo, get_codec


def collect_link(sim, profile, seed=0, monitor=None):
    received = []
    monitor = monitor or Monitor()
    link = Link(
        sim, profile,
        receiver=lambda payload: received.append((sim.now, payload)),
        rng=random.Random(seed),
        monitor=monitor,
        memo=SizeMemo(monitor.metrics),
        name="test-link",
    )
    return link, received


class TestDelivery:
    def test_delivers_after_latency(self, sim, monitor):
        profile = tcp_profile(jitter_ms=0.0)
        link, received = collect_link(sim, profile, monitor=monitor)
        link.send({"n": 1})
        sim.run()
        size = len(get_codec("json").encode({"n": 1}))
        latency = profile.sample_latency_ms(size, random.Random(0))
        assert received == [(latency, {"n": 1})]
        assert monitor.metrics.counter_value("transport.bytes.sent") == size
        assert monitor.metrics.histogram("transport.latency_ms").mean == latency

    def test_tcp_preserves_order(self, sim):
        link, received = collect_link(sim, tcp_profile(jitter_ms=2.0), seed=3)
        for i in range(50):
            link.send(i)
        sim.run()
        assert [p for _, p in received] == list(range(50))

    def test_udp_can_reorder(self, sim):
        link, received = collect_link(sim, udp_profile(jitter_ms=1.5), seed=4)
        for i in range(200):
            link.send(i)
        sim.run()
        payloads = [p for _, p in received]
        assert sorted(payloads) == list(range(200))
        assert payloads != list(range(200))  # at least one reordering

    def test_udp_drops_on_loss(self, sim, monitor):
        link, received = collect_link(
            sim, udp_profile(loss_probability=0.5), seed=5, monitor=monitor
        )
        for i in range(400):
            link.send(i)
        sim.run()
        delivered = monitor.metrics.counter_value("transport.msgs.delivered")
        assert delivered == len(received)
        assert 120 < delivered < 280  # ~50% of 400
        assert monitor.metrics.counter_value("transport.msgs.dropped") == 400 - delivered

    def test_tcp_retransmits_instead_of_dropping(self, sim, monitor):
        profile = tcp_profile(loss_probability=0.3, retransmit_timeout_ms=40.0)
        link, received = collect_link(sim, profile, seed=6, monitor=monitor)
        retransmits = []  # per send: how far the retransmit counter moved
        for i in range(200):
            before = monitor.metrics.counter_value("transport.retransmits")
            link.send(i)
            retransmits.append(monitor.metrics.counter_value("transport.retransmits") - before)
        sim.run()
        assert [payload for _, payload in received] == list(range(200))  # nothing lost
        assert any(retransmits)
        arrival = [at for at, _ in received]  # every send left at 0
        # every retransmission pays at least one timeout penalty
        assert all(arrival[i] >= 40.0 * n for i, n in enumerate(retransmits))
        # ordered delivery means later sends can inherit the delay
        # (head-of-line blocking): the very first send, if clean, is fast
        if retransmits[0] == 0:
            assert arrival[0] < 40.0
        clean_but_late = [
            i for i, n in enumerate(retransmits) if n == 0 and arrival[i] >= 40.0
        ]
        assert clean_but_late

    def test_counters(self, sim, monitor):
        link, _ = collect_link(sim, tcp_profile(), monitor=monitor)
        link.send(1)
        link.send(2)
        assert monitor.metrics.counter_value("transport.msgs.sent") == 2
        assert monitor.metrics.counter_value("transport.msgs.delivered") == 2


class TestHeapCost:
    """A delivered send pushes exactly one heap entry, keyed at its arrival
    itself; a dropped send pushes none and takes no sequence number."""

    def test_delivered_send_is_one_entry_keyed_at_its_arrival(self, sim):
        profile = tcp_profile(jitter_ms=0.0)
        link, received = collect_link(sim, profile)
        sim.run(until=23.634577631987064)
        seq = sim._seq
        link.send("x")
        size = len(get_codec("json").encode("x"))
        arrival = sim.now + profile.sample_latency_ms(size, random.Random(0))
        assert [entry[:2] for entry in sim._heap] == [(arrival, seq)]
        assert sim._seq == seq + 1
        sim.run()
        assert received == [(arrival, "x")]

    def test_injected_drop_pushes_nothing(self, sim, monitor):
        link, _ = collect_link(sim, tcp_profile(), monitor=monitor)
        link.disruption = LinkDisruption(random.Random(1), loss_probability=1.0)
        link.send("x")
        assert (sim._heap, sim._seq) == ([], 0)
        assert monitor.metrics.counter_value("transport.msgs.dropped") == 1

    def test_unreliable_loss_pushes_nothing(self, sim, monitor):
        link, received = collect_link(
            sim, udp_profile(loss_probability=0.5), seed=5, monitor=monitor
        )
        outcomes = set()
        for i in range(40):
            entries, seq = len(sim._heap), sim._seq
            dropped = monitor.metrics.counter_value("transport.msgs.dropped")
            link.send(i)
            lost = monitor.metrics.counter_value("transport.msgs.dropped") - dropped
            assert (len(sim._heap), sim._seq) == (entries + 1 - lost, seq + 1 - lost)
            outcomes.add(lost)
        assert outcomes == {0, 1}
        sim.run()
        assert len(received) == monitor.metrics.counter_value("transport.msgs.delivered")


class TestInstrumentsAppearOnFirstUse:
    """Held instruments are resolved by the send that first needs them,
    never at construction: a zero-valued name would move every snapshot."""

    def monitored_link(self, sim, monitor):
        return Link(
            sim, tcp_profile(), receiver=lambda payload: None,
            rng=random.Random(0), monitor=monitor, memo=SizeMemo(monitor.metrics),
            name="test-link",
        )

    def test_idle_link_registers_nothing(self, sim, monitor):
        self.monitored_link(sim, monitor)
        assert monitor.metrics.names() == []

    def test_always_dropping_link_never_registers_the_delivery_side(self, sim, monitor):
        link = self.monitored_link(sim, monitor)
        link.disruption = LinkDisruption(random.Random(1), loss_probability=1.0)
        for i in range(3):
            link.send(i)
        assert not sim._heap
        names = set(monitor.metrics.names())
        assert {
            "transport.msgs.dropped",
            "transport.msgs.sent",
            "transport.bytes.sent",
            "codec.bytes.json",
        } <= names
        assert not names & {
            "transport.msgs.delivered",
            "transport.latency_ms",
            "transport.inflight",
        }
        assert monitor.metrics.counter_value("transport.msgs.dropped") == 3
        assert monitor.metrics.counter_value("transport.msgs.delivered") == 0

    def test_empty_registry_still_counts_the_first_send(self, sim, monitor):
        """An empty registry is falsy (it has ``__len__``); the first send
        into one is counted all the same."""
        link = self.monitored_link(sim, monitor)
        link._frame_size = lambda payload, memo: 10  # registers nothing
        link.send("x")
        assert monitor.metrics.counter_value("transport.msgs.sent") == 1
        assert monitor.metrics.counter_value("transport.bytes.sent") == 10
