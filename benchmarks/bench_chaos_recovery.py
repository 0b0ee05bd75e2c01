"""Chaos recovery benchmark: bounded, reproducible failure recovery.

Runs the ``broker-crash`` scenario of the ``repro.faults`` catalog twice
at the same seed and reports the detection → re-registration latency
(``trace.recovery_ms``).  Two claims are enforced:

* **bounded** — recovery completes, and its worst case stays under the
  scenario's budget (crash is noticed after 2 s; the migration plus the
  section 3.2 registration exchange must finish well inside 15 s);
* **reproducible** — the two runs are bit-identical, so the recovery
  number CI gates against ``benchmarks/results/chaos_seed.json`` is a
  property of the code, not of the run.
"""

from __future__ import annotations

from conftest import run_once
from repro.faults import run_scenario
from repro.util.snapshots import render_snapshot

SEED = 42
#: Worst acceptable detection -> re-registration latency (virtual ms).
RECOVERY_BUDGET_MS = 15_000.0


def _run():
    return run_scenario("broker-crash", seed=SEED)


def test_chaos_recovery_bounded_and_reproducible(benchmark, report):
    snapshot = run_once(benchmark, _run)
    rerun = _run()

    recovery = snapshot["recovery"]
    counters = snapshot["counters"]
    lines = [
        "Chaos recovery: broker-crash scenario (repro.faults)",
        "=" * 52,
        f"seed:                 {SEED}",
        f"faults injected:      {counters['faults.injected.broker_crash']} broker crash",
        f"recoveries measured:  {recovery['count']}",
        f"recovery latency:     mean {recovery.get('mean_ms', 0.0):.1f} ms, "
        f"max {recovery.get('max_ms', 0.0):.1f} ms",
        f"recovery budget:      {RECOVERY_BUDGET_MS:.0f} ms",
        f"traces delivered:     {counters['broker.msgs.delivered']}",
        f"run-to-run identical: {render_snapshot(snapshot) == render_snapshot(rerun)}",
    ]
    report("chaos_recovery", "\n".join(lines))

    # every detected failure recovered, inside the budget
    assert recovery["count"] >= 1
    assert counters["trace.recovery.completed"] == counters["trace.recovery.detected"]
    assert recovery["max_ms"] <= RECOVERY_BUDGET_MS
    # the fault window closed (crash reverted, nothing left active)
    assert snapshot["faults_active_end"] == 0.0
    # bit-identical across two runs at the same seed
    assert render_snapshot(snapshot) == render_snapshot(rerun)
