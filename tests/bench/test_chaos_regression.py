"""The chaos seed's ``broker-crash`` run really crashed, detected and recovered.

The byte-exact comparison with the committed seed is ``tests/test_seeds.py``;
this reads the same cached run.
"""

import pytest


@pytest.fixture(scope="module")
def live_snapshot(live_seed):
    return live_seed("chaos")


class TestAgainstCommittedSeed:
    def test_scenario_sanity(self, live_snapshot):
        counters = live_snapshot["counters"]
        assert counters["faults.injected.broker_crash"] == 1
        # the crash was detected and the entity recovered
        assert counters["trace.recovery.detected"] == 1
        assert counters["trace.recovery.completed"] == 1
        assert live_snapshot["recovery"]["count"] == 1
        # fault window closed by end of run
        assert live_snapshot["faults_active_end"] == 0.0
        assert live_snapshot["journal"] == {"injected": 1, "reverted": 1}
