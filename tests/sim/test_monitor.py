"""Tests for the simulation monitor."""


class TestMonitor:
    def test_counters(self, monitor):
        monitor.increment("msgs")
        monitor.increment("msgs", 4)
        assert monitor.count("msgs") == 5
        assert monitor.count("other") == 0
        assert monitor.counters() == {"msgs": 5}

    def test_event_log(self, monitor):
        """Events go to the journal the monitor hands out; there is no
        second log on the monitor itself."""
        monitor.journal.record(1.0, "violation", principal="mallory", what="x")
        monitor.journal.record(2.0, "terminated", principal="mallory")
        assert monitor.journal.kinds() == {"violation": 1, "terminated": 1}
        [record] = monitor.journal.records("violation")
        assert (record.time_ms, record.principal, record.fields) == (
            1.0, "mallory", {"what": "x"}
        )
        assert not hasattr(monitor, "log") and not hasattr(monitor, "events")
