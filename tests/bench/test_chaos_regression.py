"""Chaos regression gate: live scenario vs the committed seed snapshot.

``benchmarks/results/chaos_seed.json`` records the full snapshot of the
``broker-crash`` chaos scenario (fault counts, recovery latency moments,
delivery totals).  Chaos runs are bit-identical per seed, so the gate
pins everything exactly — any drift is either nondeterminism creeping in
or a behaviour change that needs a deliberate re-seed.  To re-seed after
an *intentional* change::

    PYTHONPATH=src python -m repro faults --scenario broker-crash --json \
        > benchmarks/results/chaos_seed.json
"""

import json
from pathlib import Path

import pytest

from repro.faults import run_scenario
from repro.util.snapshots import snapshot_drift

SEED_FILE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    / "chaos_seed.json"
)


@pytest.fixture(scope="module")
def live_snapshot():
    return run_scenario("broker-crash")


@pytest.fixture(scope="module")
def seed_snapshot():
    return json.loads(SEED_FILE.read_text())


class TestAgainstCommittedSeed:
    def test_no_regressions(self, live_snapshot, seed_snapshot):
        """If this fails after an intentional change, re-seed (docstring)."""
        findings = snapshot_drift(live_snapshot, seed_snapshot)
        assert not findings, "\n".join(findings)

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
