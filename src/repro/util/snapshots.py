"""Canonical rendering of committed seed snapshots.

Every seeded harness (routing smoke, chaos scenarios, fabric scale,
campaigns) returns a JSON-serializable snapshot dict; :mod:`repro.seeds`
commits its canonical rendering under ``benchmarks/results/`` and later
runs are gated against it.  Runs are bit-identical per seed, so the gate is exact: any
drift is either nondeterminism or a behaviour change that needs a
deliberate seed refresh.
"""

from __future__ import annotations

import json


def render_snapshot(snapshot: dict) -> str:
    """Stable JSON form used for committed seed files and CI dumps."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
