"""Tests for the simulation monitor."""


class TestMonitor:
    def test_counters(self, monitor):
        monitor.increment("msgs")
        monitor.increment("msgs", 4)
        assert monitor.count("msgs") == 5
        assert monitor.count("other") == 0
        assert monitor.counters() == {"msgs": 5}

    def test_event_log(self, monitor):
        monitor.log(1.0, "violation", who="mallory")
        monitor.log(2.0, "terminated", who="mallory")
        assert len(monitor.events()) == 2
        assert monitor.events("violation") == [(1.0, "violation", {"who": "mallory"})]
