"""The committed seeds and the one producer of each (``repro seeds``).

Runs are bit-identical per seed, so the evidence that a change kept
behaviour is that regenerating these files leaves ``git diff`` clean.
:data:`SEED_GROUPS` is the only place that knows which call, with which
arguments, writes which file under ``benchmarks/results/``: ``repro seeds``
walks it into the working tree (with ``git diff --exit-code
benchmarks/results`` that is both the CI gate and the re-seed procedure)
and ``tests/test_seeds.py`` walks it into a scratch directory.

:data:`PAPER_GROUPS` are the paper's tables, figures and ablations, one row
per experiment: each producer runs it, refuses a result whose shape the
paper contradicts (``PaperShapeError``, before anything is written) and
renders the text and SVG files.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Callable

from repro.analytics import (
    AnalyticsStore,
    assert_audit_complete,
    build_report,
    render_report_markdown,
)
from repro.bench.experiments import ablations, entities, hops, keydist, microcosts, trackers
from repro.bench.hotpath import run_codec_smoke
from repro.bench.routing_smoke import run_routing_smoke
from repro.bench.scale import run_scale_point
from repro.campaigns import generate_report, load_spec, run_campaign
from repro.faults import run_scenario
from repro.util.snapshots import render_snapshot

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
SMOKE_CAMPAIGN_SPEC = REPO_ROOT / "benchmarks" / "campaigns" / "smoke.json"


@dataclass(frozen=True, slots=True)
class SeedGroup:
    """``files``, relative to the results directory ``produce`` is given."""

    files: tuple[str, ...]
    produce: Callable[[pathlib.Path], None]


def _write(path: pathlib.Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _snapshot(file: str, run: Callable[[], dict]) -> SeedGroup:
    """A group of one JSON document: the snapshot ``run()`` returns."""
    return SeedGroup((file,), lambda results: _write(results / file, render_snapshot(run())))


def _paper(files: tuple[str, ...], render: Callable[[], tuple[str, ...]]) -> SeedGroup:
    """A group whose ``render()`` returns the text of each of ``files``, in order."""

    def produce(results: pathlib.Path) -> None:
        for file, text in zip(files, render(), strict=True):
            _write(results / file, text)

    return SeedGroup(files, produce)


def _smoke_campaign(results: pathlib.Path) -> None:
    snapshot = run_campaign(load_spec(SMOKE_CAMPAIGN_SPEC), seed=42)
    _write(results / "campaigns/smoke/snapshot.json", render_snapshot(snapshot))
    generate_report(
        snapshot,
        results / "campaigns/smoke",
        regenerate=("the committed seeds", "PYTHONPATH=src python -m repro seeds"),
    )


def _analytics(results: pathlib.Path) -> None:
    """The store a ``broker-crash`` run fills and its SLO report; an unbalanced
    audit rule raises ``AuditIncompleteError`` before anything is written."""
    store = AnalyticsStore()
    run_scenario(
        "broker-crash", analytics_store=store, deployment_probe=assert_audit_complete
    )
    _write(results / "analytics/report.md", render_report_markdown(build_report(store)) + "\n")
    store.save(results / "analytics/analytics_seed.json")


PAPER_GROUPS: dict[str, SeedGroup] = {
    "table3-hops": _paper(("table3_hops.txt", "figure2_hops.svg"), hops.table3_hops),
    "table3-microcosts": _paper(("table3_microcosts.txt",), microcosts.table3_microcosts),
    "table3-keydist": _paper(("table3_keydist.txt",), keydist.table3_keydist),
    "figure4-trackers": _paper(
        ("figure4_trackers.txt", "figure4_trackers.svg"), trackers.figure4_trackers
    ),
    "figure5-signing-opt": _paper(
        ("figure5_signing_opt.txt", "figure5_signing_opt.svg"), hops.figure5_signing_opt
    ),
    "table4-entities": _paper(("table4_entities.txt",), entities.table4_entities),
    "ablation-msgcount": _paper(("ablation_msgcount.txt",), ablations.ablation_msgcount),
    "baseline-gossip": _paper(("baseline_gossip.txt",), ablations.baseline_gossip),
    "ablation-adaptive-ping": _paper(
        ("ablation_adaptive_ping.txt",), ablations.ablation_adaptive_ping
    ),
    "ablation-interest-gating": _paper(
        ("ablation_interest_gating.txt",), ablations.ablation_interest_gating
    ),
    "ablation-thresholds": _paper(("ablation_thresholds.txt",), ablations.ablation_thresholds),
    "chaos-recovery": _paper(("chaos_recovery.txt",), ablations.chaos_recovery),
    "replication-stability": _paper(
        ("replication_stability.txt",), hops.replication_stability
    ),
}


SEED_GROUPS: dict[str, SeedGroup] = {
    "routing": _snapshot("routing_seed.json", run_routing_smoke),
    "codec": _snapshot("codec_seed.json", run_codec_smoke),
    "chaos": _snapshot("chaos_seed.json", lambda: run_scenario("broker-crash")),
    "scale": _snapshot("scale_seed.json", run_scale_point),
    "campaign": SeedGroup(
        (
            "campaigns/smoke/snapshot.json",
            "campaigns/smoke/report.md",
            "campaigns/smoke/fig_availability.svg",
            "campaigns/smoke/fig_baselines.svg",
        ),
        _smoke_campaign,
    ),
    "analytics": SeedGroup(
        ("analytics/analytics_seed.json", "analytics/report.md"), _analytics
    ),
    **PAPER_GROUPS,
}
