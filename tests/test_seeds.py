"""Tier-1 mirror of the one CI seed gate (``repro seeds`` + ``git diff``).

Walks the same table CI does: each :data:`repro.seeds.SEED_GROUPS`
producer runs once per session into a scratch directory (the ``seed_run``
fixture, which the sanity tests beside the old per-seed mirrors read too)
and must reproduce its committed files byte for byte.  After an
*intentional* change, re-seed with ``python -m repro seeds`` and review
``git diff benchmarks/results`` in the PR.
"""

import json

import pytest

from repro.seeds import RESULTS_DIR, SEED_GROUPS
from repro.util.snapshots import snapshot_drift

#: Written by the frozen wall-clock harness (``benchmarks/perf/run.py``); its own
#: ``bench-smoke`` step regenerates it in place ahead of the seeds step's ``git diff``.
HARNESS_OWNED = "perf_smoke_digests.txt"

#: Paper artefacts the ``benchmarks/bench_*.py`` runs write and nothing regenerates in
#: tier-1 or CI yet; ROADMAP item 10 empties this by moving the names into the table.
NOT_YET_GATED = (
    "ablation_adaptive_ping.txt",
    "ablation_interest_gating.txt",
    "ablation_msgcount.txt",
    "ablation_thresholds.txt",
    "baseline_gossip.txt",
    "chaos_recovery.txt",
    "figure2_hops.svg",
    "figure4_trackers.svg",
    "figure4_trackers.txt",
    "figure5_signing_opt.svg",
    "figure5_signing_opt.txt",
    "replication_stability.txt",
    "scale_curve.json",
    "scale_curve.txt",
    "table3_hops.txt",
    "table3_keydist.txt",
    "table3_microcosts.txt",
    "table4_entities.txt",
)


def _files_under(root) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("name", SEED_GROUPS)
def test_producer_reproduces_its_committed_files(name, seed_run):
    files = SEED_GROUPS[name].files
    produced = seed_run(name)
    assert _files_under(produced) == set(files)  # the row names all it writes
    for file in files:
        live, committed = (produced / file).read_text(), (RESULTS_DIR / file).read_text()
        if live != committed and file.endswith(".json"):
            findings = snapshot_drift(json.loads(live), json.loads(committed))
            pytest.fail(f"{file} drifted from the committed seed:\n" + "\n".join(findings))
        assert live == committed, f"{file} drifted from the committed seed"


def test_every_committed_result_has_a_producer_or_is_named_here():
    gated = {file for group in SEED_GROUPS.values() for file in group.files}
    assert len(gated) == sum(len(group.files) for group in SEED_GROUPS.values())
    assert _files_under(RESULTS_DIR) == gated | {HARNESS_OWNED, *NOT_YET_GATED}
