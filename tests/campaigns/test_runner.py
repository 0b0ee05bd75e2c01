"""Campaign execution and snapshot assembly."""

import json

from repro.campaigns import (
    Axis,
    CampaignSpec,
    campaign_snapshot,
    expand,
    run_campaign,
    run_point,
)
from repro.obs.registry import MetricsRegistry
from repro.seeds import RESULTS_DIR, SEED_GROUPS
from repro.util.snapshots import render_snapshot

SMOKE_SEED = RESULTS_DIR / SEED_GROUPS["campaign"].files[0]

#: A two-point campaign cheap enough to execute in-process.
TINY = CampaignSpec(
    name="tiny",
    workloads=("unauthorized-publisher",),
    baselines=("baseline-gossip",),
    axes=(),
    fixed={"duration_ms": 30_000.0, "flood": 4},
    base_seed=5,
)


class TestRunPoint:
    def test_record_carries_the_point_identity(self):
        point = expand(TINY)[0]
        record = run_point(point)
        assert record["index"] == point.index
        assert record["family"] == "unauthorized-publisher"
        assert record["kind"] == "workload"
        assert record["params"] == point.params
        assert record["seed"] == 5
        assert record["repetition"] == 0
        assert record["metrics"]["defense"]["terminated"] == 1


class TestRunCampaign:
    def test_snapshot_shape_and_instruments(self):
        registry = MetricsRegistry()
        lines = []
        snapshot = run_campaign(TINY, registry=registry, progress=lines.append)
        assert snapshot["campaign"] == "tiny"
        assert snapshot["seed"] == 5
        assert snapshot["point_count"] == 2
        assert snapshot["spec"] == TINY.to_dict()
        assert snapshot["families"] == {
            "unauthorized-publisher": {"kind": "workload", "points": 1},
            "baseline-gossip": {"kind": "baseline", "points": 1},
        }
        metrics = registry.snapshot()
        assert metrics["gauges"]["campaign.points.total"] == 2
        assert metrics["counters"]["campaign.points.completed"] == 2
        assert "campaign.points.failed" not in metrics["counters"]
        assert len(lines) == 2 and lines[0].startswith("[1/2]")

    def test_seed_override_reaches_every_point(self):
        snapshot = run_campaign(TINY, seed=99)
        assert snapshot["seed"] == 99
        assert all(r["seed"] == 99 for r in snapshot["results"])

    def test_render_snapshot_is_canonical(self):
        snapshot = run_campaign(TINY)
        text = render_snapshot(snapshot)
        assert text.endswith("\n")
        assert json.loads(text) == snapshot
        assert text == render_snapshot(json.loads(text))  # stable re-render


class TestSmokeSeedMirror:
    """The committed smoke snapshot (reproduced by ``tests/test_seeds.py``)."""

    def test_committed_snapshot_satisfies_the_issue_contract(self):
        seed = json.loads(SMOKE_SEED.read_text())
        kinds = {f["kind"] for f in seed["families"].values()}
        assert "baseline" in kinds  # a baseline comparison is present
        adversarial = [
            r for r in seed["results"] if "attack" in r.get("metrics", {})
        ]
        assert adversarial  # at least one §5 adversarial family
