"""The routing seed's scenario (quickstart + tracker detach) is the one meant.

The byte-exact comparison with the committed seed is ``tests/test_seeds.py``;
these read the same cached run and say what a correct one looks like, so a
re-seed that bakes in waste still fails.
"""

import pytest


@pytest.fixture(scope="module")
def live_snapshot(live_seed):
    return live_seed("routing")


class TestAgainstCommittedSeed:
    def test_scenario_sanity(self, live_snapshot):
        counters = live_snapshot["counters"]
        # the tracker really subscribed and later really detached
        assert counters["broker.interest.announced"] > 0
        assert counters["broker.interest.retracted"] > 0
        # a clean lifecycle leaves no waste
        assert counters["broker.msgs.unroutable"] == 0
        assert counters["broker.interest.stale_forwards"] == 0
