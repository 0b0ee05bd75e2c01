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
from repro.util.snapshots import render_snapshot, snapshot_drift

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
        findings = snapshot_drift(live_snapshot, seed_snapshot)
        assert not findings, "\n".join(findings)

    def test_snapshot_is_reproducible_exactly(self, live_snapshot, seed_snapshot):
        """If this fails after an intentional change, re-seed (docstring)."""
        assert render_snapshot(live_snapshot) == render_snapshot(seed_snapshot)

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


class TestCompareToSeed:
    def test_flags_counter_drift_either_direction(self, seed_snapshot):
        for delta in (-1, 1):
            bad = json.loads(render_snapshot(seed_snapshot))
            bad["counters"]["broker.msgs.delivered"] += delta
            assert snapshot_drift(bad, seed_snapshot)

    def test_flags_recovery_drift(self, seed_snapshot):
        bad = json.loads(render_snapshot(seed_snapshot))
        bad["recovery"]["max_ms"] = bad["recovery"].get("max_ms", 0.0) + 1.0
        findings = snapshot_drift(bad, seed_snapshot)
        assert any("recovery" in f for f in findings)

    def test_flags_unreverted_fault(self, seed_snapshot):
        bad = json.loads(render_snapshot(seed_snapshot))
        bad["faults_active_end"] = 1.0
        findings = snapshot_drift(bad, seed_snapshot)
        assert any("faults_active_end" in f for f in findings)

    def test_flags_scenario_mismatch(self, seed_snapshot):
        bad = json.loads(render_snapshot(seed_snapshot))
        bad["scenario"] = "entity-churn"
        assert snapshot_drift(bad, seed_snapshot)

    def test_clean_on_identical_snapshots(self, seed_snapshot):
        assert snapshot_drift(seed_snapshot, seed_snapshot) == []
