"""The fabric-scale seed point keeps the economics it was committed for.

The byte-exact comparison with the committed seed is ``tests/test_seeds.py``;
these read the same cached run.
"""

import pytest

from repro.bench.scale import (
    SMOKE_BROKERS,
    SMOKE_ENTITIES,
    SMOKE_EVENTS,
    run_scale_point,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def live_snapshot(live_seed):
    return live_seed("scale")


class TestAgainstCommittedSeed:
    def test_scale_economics_hold(self, live_snapshot):
        """The claims the tentpole exists for, pinned at the smoke point."""
        assert live_snapshot["brokers"] == SMOKE_BROKERS
        assert live_snapshot["entities"] == SMOKE_ENTITIES
        # sub-linear control traffic: floods track brokers, not patterns
        assert live_snapshot["control_floods"] <= 2 * SMOKE_BROKERS
        assert live_snapshot["control_floods"] < SMOKE_ENTITIES // 100
        # every published event was delivered despite summarization
        assert live_snapshot["received"] == SMOKE_EVENTS
        assert live_snapshot["counters"]["broker.msgs.delivered"] == SMOKE_EVENTS
        assert live_snapshot["counters"]["broker.msgs.unroutable"] == 0
        # false positives are the budgeted cost; stale forwards stay a bug
        assert live_snapshot["counters"]["broker.interest.stale_forwards"] == 0

    def test_federated_memory_shape(self, live_snapshot):
        """Peers hold no mirrored remote interest: the deployment-wide
        pattern gauge equals the entity count exactly (verbatim flooding
        would multiply it by the broker count)."""
        assert live_snapshot["interest_patterns_gauge"] == SMOKE_ENTITIES
        assert live_snapshot["fed_patterns_gauge"] == SMOKE_ENTITIES
        assert live_snapshot["shards_gauge"] == SMOKE_BROKERS


class TestValidation:
    def test_rejects_degenerate_fabric(self):
        with pytest.raises(ConfigurationError):
            run_scale_point(brokers=1, entities=10, events=1)
