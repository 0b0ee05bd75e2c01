"""Seeded campaign execution: sequential or subprocess-parallel points.

:func:`run_campaign` executes the matrix :func:`~repro.campaigns.spec.expand`
produces.  The default is sequential and in-process — every family
builds its own deployment, which owns all of its state, so points are
isolated without process boundaries.  With ``parallel > 1`` each
point runs in its own subprocess (``repro campaign run --point I``),
the same isolation trick :mod:`benchmarks.bench_scale` uses, and the
parent reassembles results *in matrix order* so the snapshot is
byte-identical to a sequential run.

The campaign snapshot (:func:`campaign_snapshot`) is deliberately free
of wall-clock, RSS, or host-dependent values: CI gates the committed
smoke snapshot byte-for-byte with
:func:`repro.util.snapshots.snapshot_drift`, exactly like the chaos and
scale seeds (docs/CAMPAIGNS.md).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.campaigns.spec import CampaignPoint, CampaignSpec, expand
from repro.errors import BenchmarkError, ConfigurationError
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


def _run_point_subprocess(
    spec_path: pathlib.Path, point: CampaignPoint, seed: int
) -> dict:
    """Run one point via ``repro campaign run --point`` in a child process."""
    src_dir = pathlib.Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "campaign",
            "run",
            "--spec",
            str(spec_path),
            "--seed",
            str(seed),
            "--point",
            str(point.index),
            "--json",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src_dir)},
    )
    if proc.returncode != 0:
        raise BenchmarkError(
            f"campaign point {point.index} ({point.label()}) failed:\n"
            f"{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout)


def run_campaign(
    spec: CampaignSpec,
    seed: int | None = None,
    parallel: int = 1,
    spec_path: str | pathlib.Path | None = None,
    registry: MetricsRegistry | None = None,
    progress=None,
    probe=None,
) -> dict:
    """Run every point of ``spec`` and return the campaign snapshot.

    ``seed`` overrides the spec's base seed.  ``parallel > 1`` fans
    points out over that many subprocesses (requires ``spec_path``, the
    file to hand to children); results are reassembled in matrix order
    so the snapshot is identical to a sequential run.  ``registry``
    receives the ``campaign.*`` engine instruments; ``progress`` is an
    optional callable invoked with one line per completed point.
    ``probe`` is called with the live deployment after every tracing
    point (``repro.campaigns.workloads.Probe``); it runs in this process,
    so it needs ``parallel == 1``.
    """
    if parallel < 1:
        raise ConfigurationError(f"parallel must be >= 1, got {parallel}")
    if probe is not None and parallel > 1:
        raise ConfigurationError(
            "a deployment probe needs parallel=1: subprocess points "
            "build their deployments out of its reach"
        )
    if parallel > 1 and spec_path is None:
        raise ConfigurationError(
            "parallel campaign execution needs the spec file path "
            "(children re-load the spec)"
        )
    registry = registry if registry is not None else MetricsRegistry()
    points = expand(spec, seed=seed)
    registry.gauge(_POINTS_TOTAL).set(len(points))
    effective_seed = spec.base_seed if seed is None else seed

    results: list[dict | None] = [None] * len(points)

    def _finish(point: CampaignPoint, record: dict) -> None:
        results[point.index] = record
        registry.counter(_POINTS_COMPLETED).inc()
        if progress is not None:
            progress(f"[{point.index + 1}/{len(points)}] {point.label()}")

    if parallel == 1:
        for point in points:
            try:
                record = run_point(point, probe)
            except Exception:
                registry.counter(_POINTS_FAILED).inc()
                raise
            _finish(point, record)
    else:
        spec_file = pathlib.Path(spec_path)
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            futures = {
                pool.submit(
                    _run_point_subprocess, spec_file, point, effective_seed
                ): point
                for point in points
            }
            for future, point in futures.items():
                try:
                    record = future.result()
                except Exception:
                    registry.counter(_POINTS_FAILED).inc()
                    raise
                _finish(point, record)

    return campaign_snapshot(spec, effective_seed, [r for r in results if r])


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
