"""Routing regression gate: live counters vs the committed seed snapshot.

``benchmarks/results/routing_seed.json`` records the routing counters of
the deterministic smoke scenario (quickstart + tracker detach).  Any code
change that makes routing wasteful (unroutable messages, forwards on
stale interest) or alters what gets delivered fails here.  To re-seed
after an *intentional* routing change::

    PYTHONPATH=src python -c "
    from repro.bench.routing_smoke import run_routing_smoke
    from repro.util.snapshots import render_snapshot
    open('benchmarks/results/routing_seed.json', 'w').write(
        render_snapshot(run_routing_smoke()))"
"""

import json
from pathlib import Path

import pytest

from repro.bench.routing_smoke import run_routing_smoke
from repro.util.snapshots import snapshot_drift

SEED_FILE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    / "routing_seed.json"
)


@pytest.fixture(scope="module")
def live_snapshot():
    return run_routing_smoke()


@pytest.fixture(scope="module")
def seed_snapshot():
    return json.loads(SEED_FILE.read_text())


class TestAgainstCommittedSeed:
    def test_no_regressions(self, live_snapshot, seed_snapshot):
        """The whole snapshot is deterministic, so the gate is exact.

        If this fails after an intentional routing change, regenerate the
        seed file (see module docstring) and review the diff in the PR.
        """
        findings = snapshot_drift(live_snapshot, seed_snapshot)
        assert not findings, "\n".join(findings)

    def test_scenario_sanity(self, live_snapshot):
        counters = live_snapshot["counters"]
        # the tracker really subscribed and later really detached
        assert counters["broker.interest.announced"] > 0
        assert counters["broker.interest.retracted"] > 0
        # a clean lifecycle leaves no waste
        assert counters["broker.msgs.unroutable"] == 0
        assert counters["broker.interest.stale_forwards"] == 0
