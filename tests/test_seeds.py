"""Tier-1 mirror of the one CI seed gate (``repro seeds`` + ``git diff``).

Walks the same table CI does: each :data:`repro.seeds.SEED_GROUPS`
producer runs once per session into a scratch directory (the ``seed_run``
fixture, which the sanity tests beside the old per-seed mirrors read too)
and must reproduce its committed files byte for byte.  The paper rows
(:data:`repro.seeds.PAPER_GROUPS`, about a minute together) run only under
``-m deep``; CI's "Committed seeds" step runs every row.  After an
*intentional* change, re-seed with ``python -m repro seeds`` and review
``git diff benchmarks/results`` in the PR.
"""

import json

import pytest

from repro.seeds import PAPER_GROUPS, RESULTS_DIR, SEED_GROUPS
from tests.support import snapshot_drift

#: Written by the frozen wall-clock harness (``benchmarks/perf/run.py``); its own
#: ``bench-smoke`` step regenerates it in place ahead of the seeds step's ``git diff``.
HARNESS_OWNED = "perf_smoke_digests.txt"

#: Host measurements, not seeds: ``benchmarks/bench_scale.py`` times each scale point
#: and reads its peak RSS in a fresh subprocess, so the numbers are this host's.
HOST_MEASUREMENTS = ("scale_curve.json", "scale_curve.txt")


def _files_under(root) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.deep) if name in PAPER_GROUPS else name
        for name in SEED_GROUPS
    ],
)
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
    assert _files_under(RESULTS_DIR) == gated | {HARNESS_OWNED, *HOST_MEASUREMENTS}
