"""Tests for the all-pairs heartbeat baseline."""

import pytest

from repro.baselines.allpairs import AllPairsHeartbeatSystem, allpairs_message_rate
from repro.sim.engine import Simulator
from repro.transport.udp import udp_profile


class TestMessageRate:
    def test_paper_formula(self):
        """N x (N-1) messages per second (section 1)."""
        assert allpairs_message_rate(10) == 90
        assert allpairs_message_rate(100) == 9_900
        assert allpairs_message_rate(2) == 2

    def test_scales_with_frequency(self):
        assert allpairs_message_rate(10, heartbeats_per_second=2.0) == 180

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            allpairs_message_rate(-1)


class TestSimulatedSystem:
    def make(self, n=5, **kwargs):
        sim = Simulator()
        system = AllPairsHeartbeatSystem(sim, n, seed=1, **kwargs)
        system.start()
        return sim, system

    def test_message_count_matches_formula(self):
        sim, system = self.make(n=6)
        sim.run(until=10_000)
        # 11 heartbeat rounds (t=0, 1000, ..., 10000 inclusive) of 6*5 msgs
        assert system.messages_sent == 11 * 30

    def test_no_false_failures_when_healthy(self):
        sim, system = self.make(n=4)
        sim.run(until=30_000)
        assert not any(system.detection_times_for(peer) for peer in range(4))

    def test_crash_detected_by_all_peers(self):
        sim, system = self.make(n=5)
        sim.run(until=5_000)
        system.crash(2)
        sim.run(until=30_000)
        times = system.detection_times_for(2)
        assert len(times) == 4  # every live peer detects
        assert all(t > 5_000 for t in times)
        assert all(system.believes_failed(i, 2) for i in range(5) if i != 2)

    def test_crashed_entity_stops_sending(self):
        sim, system = self.make(n=3)
        sim.run(until=2_500)
        sent_before = system.messages_sent
        system.crash(0)
        system.crash(1)
        system.crash(2)
        sim.run(until=30_000)
        # at most one more round per entity after the crash flag
        assert system.messages_sent <= sent_before + 6

    def test_lossy_network_tolerated(self):
        sim = Simulator()
        system = AllPairsHeartbeatSystem(
            sim, 4, seed=2, profile=udp_profile(loss_probability=0.2)
        )
        system.start()
        sim.run(until=30_000)
        # occasional losses within the timeout window cause no detections
        assert not any(system.detection_times_for(peer) for peer in range(4))

    def test_requires_two_entities(self):
        with pytest.raises(ValueError):
            AllPairsHeartbeatSystem(Simulator(), 1)
