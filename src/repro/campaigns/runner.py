"""Seeded campaign execution: every point in process, in matrix order.

:func:`run_campaign` executes the matrix :func:`~repro.campaigns.spec.expand`
produces.  Every family builds its own deployment, which owns all of its
state, so points are isolated without process boundaries.

The campaign snapshot (:func:`campaign_snapshot`) is deliberately free
of wall-clock, RSS, or host-dependent values: CI gates the committed
smoke snapshot byte-for-byte with
:func:`repro.util.snapshots.snapshot_drift`, exactly like the chaos and
scale seeds (docs/CAMPAIGNS.md).
"""

from __future__ import annotations

from repro.campaigns.spec import CampaignPoint, CampaignSpec, expand
from repro.obs.registry import MetricsRegistry

#: Campaign-engine instruments (documented in docs/OBSERVABILITY.md).
_POINTS_TOTAL = "campaign.points.total"
_POINTS_COMPLETED = "campaign.points.completed"
_POINTS_FAILED = "campaign.points.failed"


def run_point(point: CampaignPoint, probe=None) -> dict:
    """Execute one campaign point and return its result record.

    ``probe`` is handed to the family run (``repro.campaigns.workloads.Probe``).
    """
    from repro.campaigns.workloads import workload_family

    family = workload_family(point.family)
    metrics = family.run(dict(point.params), point.seed, probe)
    return {
        "index": point.index,
        "family": point.family,
        "kind": point.kind,
        "params": dict(point.params),
        "seed": point.seed,
        "repetition": point.repetition,
        "metrics": metrics,
    }


def run_campaign(
    spec: CampaignSpec,
    seed: int | None = None,
    registry: MetricsRegistry | None = None,
    progress=None,
    probe=None,
) -> dict:
    """Run every point of ``spec`` in matrix order; return the snapshot.

    ``seed`` overrides the spec's base seed.  ``registry`` receives the
    ``campaign.*`` engine instruments; ``progress`` is an optional
    callable invoked with one line per completed point.  ``probe`` is
    called with the live deployment after every tracing point
    (``repro.campaigns.workloads.Probe``).
    """
    registry = registry if registry is not None else MetricsRegistry()
    points = expand(spec, seed=seed)
    registry.gauge(_POINTS_TOTAL).set(len(points))
    results = []
    for point in points:
        try:
            results.append(run_point(point, probe))
        except Exception:
            registry.counter(_POINTS_FAILED).inc()
            raise
        registry.counter(_POINTS_COMPLETED).inc()
        if progress is not None:
            progress(f"[{point.index + 1}/{len(points)}] {point.label()}")
    effective_seed = spec.base_seed if seed is None else seed
    return campaign_snapshot(spec, effective_seed, results)


def campaign_snapshot(
    spec: CampaignSpec, seed: int, results: list[dict]
) -> dict:
    """Assemble the deterministic campaign snapshot (spec + results).

    Results are keyed back to the spec so the report generator — and a
    human reading the committed JSON — can reconstruct the full grid
    without re-expanding.  Only deterministic values are included.
    """
    families: dict[str, dict] = {}
    for record in results:
        family = families.setdefault(
            record["family"], {"kind": record["kind"], "points": 0}
        )
        family["points"] += 1
    return {
        "campaign": spec.name,
        "description": spec.description,
        "seed": seed,
        "spec": spec.to_dict(),
        "families": families,
        "point_count": len(results),
        "results": results,
    }
