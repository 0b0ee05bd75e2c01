"""Tests for simulated links."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.transport.disruption import LinkDisruption
from repro.transport.link import Link
from repro.transport.tcp import tcp_profile
from repro.transport.udp import udp_profile


def collect_link(sim, profile, seed=0, monitor=None):
    received = []
    link = Link(
        sim, profile,
        receiver=lambda payload: received.append((sim.now, payload)),
        rng=random.Random(seed),
        name="test-link",
        monitor=monitor,
    )
    return link, received


class TestDelivery:
    def test_delivers_after_latency(self, sim):
        link, received = collect_link(sim, tcp_profile(jitter_ms=0.0))
        receipt = link.send({"n": 1})
        assert receipt.delivered
        sim.run()
        assert len(received) == 1
        assert received[0][0] == pytest.approx(receipt.latency_ms)

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
        receipts = [link.send(i) for i in range(400)]
        sim.run()
        delivered = sum(1 for r in receipts if r.delivered)
        assert delivered == len(received)
        assert 120 < delivered < 280  # ~50% of 400
        assert monitor.metrics.counter_value("transport.msgs.dropped") == 400 - delivered

    def test_tcp_retransmits_instead_of_dropping(self, sim, monitor):
        profile = tcp_profile(loss_probability=0.3, retransmit_timeout_ms=40.0)
        link, received = collect_link(sim, profile, seed=6, monitor=monitor)
        receipts = [link.send(i) for i in range(200)]
        sim.run()
        assert len(received) == 200  # nothing lost
        assert monitor.metrics.counter_value("transport.retransmits") > 0
        retransmitted = [r for r in receipts if r.retransmits > 0]
        assert retransmitted
        # every retransmission pays at least one timeout penalty
        assert all(
            r.latency_ms >= 40.0 * r.retransmits for r in retransmitted
        )
        # ordered delivery means later sends can inherit the delay
        # (head-of-line blocking): the very first receipt, if clean, is fast
        first = receipts[0]
        if first.retransmits == 0:
            assert first.latency_ms < 40.0

    def test_counters(self, sim, monitor):
        link, _ = collect_link(sim, tcp_profile(), monitor=monitor)
        link.send(1)
        link.send(2)
        assert monitor.metrics.counter_value("transport.msgs.sent") == 2
        assert monitor.metrics.counter_value("transport.msgs.delivered") == 2


class TestInstrumentsAppearOnFirstUse:
    """Held instruments are resolved by the send that first needs them,
    never at construction: a zero-valued name would move every snapshot."""

    def monitored_link(self, sim, monitor):
        return Link(
            sim, tcp_profile(), receiver=lambda payload: None,
            rng=random.Random(0), name="test-link", monitor=monitor, codec="json",
        )

    def test_idle_link_registers_nothing(self, sim, monitor):
        self.monitored_link(sim, monitor)
        assert monitor.metrics.names() == []

    def test_always_dropping_link_never_registers_the_delivery_side(self, sim, monitor):
        link = self.monitored_link(sim, monitor)
        link.disruption = LinkDisruption(random.Random(1), loss_probability=1.0)
        receipts = [link.send(i) for i in range(3)]
        sim.run()
        assert not any(receipt.delivered for receipt in receipts)
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
        """An empty registry is falsy (it has ``__len__``); the link must
        test for ``None``, not truth, or the first send goes uncounted."""
        link = self.monitored_link(sim, monitor)
        link._frame_size = lambda payload, codec, metrics, memo: 10  # registers nothing
        link.send("x")
        assert monitor.metrics.counter_value("transport.msgs.sent") == 1
        assert monitor.metrics.counter_value("transport.bytes.sent") == 10
