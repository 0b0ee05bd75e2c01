"""Canonical rendering and exact comparison of committed seed snapshots.

Every seeded harness (routing smoke, chaos scenarios, fabric scale,
campaigns) returns a JSON-serializable snapshot dict; :mod:`repro.seeds`
commits its canonical rendering under ``benchmarks/results/`` and later
runs are gated against it.  Runs are bit-identical per seed, so the gate is exact: any
drift is either nondeterminism or a behaviour change that needs a
deliberate seed refresh.
"""

from __future__ import annotations

import json
from typing import Iterator


def render_snapshot(snapshot: dict) -> str:
    """Stable JSON form used for committed seed files and CI dumps."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def _leaves(node, path: tuple = ()) -> Iterator[tuple[tuple, str]]:
    """Yield ``(path, rendered value)`` for every leaf under ``node``.

    Empty containers count as leaves so adding or dropping one is seen.
    """
    if isinstance(node, dict) and node:
        for key in sorted(node):
            yield from _leaves(node[key], (*path, key))
    elif isinstance(node, list) and node:
        for index, item in enumerate(node):
            yield from _leaves(item, (*path, index))
    else:
        yield path, json.dumps(node)


def _show(path: tuple) -> str:
    parts = [f"[{p}]" if isinstance(p, int) else f".{p}" for p in path]
    return "".join(parts).lstrip(".") or "<root>"


def snapshot_drift(live: dict, seed: dict) -> list[str]:
    """Leaf-level findings where ``live`` diverges from ``seed``.

    Empty exactly when the two canonical renderings are byte-identical;
    otherwise one finding per changed, added or missing leaf, each naming
    the leaf's path (``counters.broker.msgs.delivered``,
    ``results[3].metrics.delivered``).
    """
    # Round-trip through JSON first so in-memory tuples and non-string
    # keys compare the way their committed rendering does.
    live_leaves = dict(_leaves(json.loads(json.dumps(live))))
    seed_leaves = dict(_leaves(json.loads(json.dumps(seed))))
    findings: list[str] = []
    for path in sorted({*live_leaves, *seed_leaves}, key=_show):
        got, want = live_leaves.get(path), seed_leaves.get(path)
        if got == want:
            continue
        if want is None:
            findings.append(f"{_show(path)} added: {got} (not in seed)")
        elif got is None:
            findings.append(f"{_show(path)} missing: seed has {want}")
        else:
            findings.append(f"{_show(path)} drifted: {got} != seed {want}")
    return findings
