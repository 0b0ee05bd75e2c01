"""Tests for the gossip failure-detection baseline."""

import pytest

from repro.baselines.gossip import GossipFailureDetector
from repro.sim.engine import Simulator


def make(n=8, **kwargs):
    sim = Simulator()
    detector = GossipFailureDetector(sim, n, seed=3, **kwargs)
    detector.start()
    return sim, detector


class TestGossipPropagation:
    def test_counters_spread_to_all_nodes(self):
        sim, detector = make(n=6)
        sim.run(until=20_000)
        # every node has learned a non-zero counter for every peer
        for node in detector.nodes:
            for peer in range(6):
                if peer != node.node_id:
                    assert node.table[peer].counter > 0

    def test_no_false_suspicion_when_healthy(self):
        sim, detector = make(n=6)
        sim.run(until=60_000)
        assert not any(detector.detection_times_for(peer) for peer in range(6))

    def test_message_load_linear_in_fanout(self):
        sim1, d1 = make(n=10, fanout=1)
        sim1.run(until=10_000)
        sim2, d2 = make(n=10, fanout=3)
        sim2.run(until=10_000)
        assert d2.messages_sent == pytest.approx(3 * d1.messages_sent, rel=0.01)


class TestGossipDetection:
    def test_crash_eventually_suspected_by_all(self):
        sim, detector = make(n=8)
        sim.run(until=10_000)
        detector.crash(3)
        sim.run(until=120_000)
        assert detector.all_live_nodes_suspect(3)

    def test_detection_spread_nonzero(self):
        """Gossip's uneven propagation: nodes detect at different times."""
        sim, detector = make(n=12, fanout=1)
        sim.run(until=10_000)
        detector.crash(0)
        sim.run(until=200_000)
        times = detector.detection_times_for(0)
        assert len(times) == 11
        assert times[-1] - times[0] > 0.0

    def test_recovered_counter_clears_suspicion(self):
        sim, detector = make(n=4, fail_timeout_ms=3_000.0)
        sim.run(until=5_000)
        # manually simulate a stale entry then a fresh counter arriving
        node = detector.nodes[0]
        node.table[2].suspected = True
        node.merge({2: node.table[2].counter + 5}, sim.now)
        assert not node.suspects(2)


class TestValidation:
    def test_node_count(self):
        with pytest.raises(ValueError):
            GossipFailureDetector(Simulator(), 1)

    def test_fanout_bounds(self):
        with pytest.raises(ValueError):
            GossipFailureDetector(Simulator(), 4, fanout=0)
        with pytest.raises(ValueError):
            GossipFailureDetector(Simulator(), 4, fanout=4)
