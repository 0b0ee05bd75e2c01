"""Ping-heavy co-located scenario for the hot-path benchmarks.

The worst case for per-ping overhead: many traced entities share one host
machine behind one broker, so every ping interval the tracker's broker
verifies the same authorization token repeatedly and sends a burst of
near-identical ping frames down the same wire.  This is the scenario
``benchmarks/bench_wire_codec.py`` and the ``perf-gate`` CI job run once
per wire codec to produce and guard the committed snapshots under
``benchmarks/results/`` (docs/PERFORMANCE.md).

Determinism matters here exactly as in the chaos scenarios: message ids
ride on the wire, so :func:`run_ping_heavy` rewinds the process-global id
counter before building the deployment.
"""

from __future__ import annotations

from repro.messaging.message import reset_message_ids
from repro.tracing.failure import AdaptivePingPolicy

#: Fast cadence so a 60 s virtual run packs in many verification-bearing
#: traces and ping rounds per entity.
HOTPATH_PING_POLICY = AdaptivePingPolicy(
    base_interval_ms=500.0,
    min_interval_ms=125.0,
    max_interval_ms=1_000.0,
    response_deadline_ms=200.0,
)

#: Every traced entity lives on this one machine — the co-location that
#: makes ping coalescing bite.
EDGE_HOST = "edge-host"

DEFAULT_ENTITY_COUNT = 12


def run_ping_heavy(
    seed: int = 42,
    duration_ms: float = 60_000.0,
    entity_count: int = DEFAULT_ENTITY_COUNT,
    codec: str = "json",
) -> dict:
    """Run the co-located ping-heavy scenario; returns the full snapshot.

    ``codec`` selects the wire codec explicitly (never the environment):
    the perf-gate CI job runs this scenario once per codec and diffs the
    snapshots, so the codec must be a function argument, not ambient state.
    """
    from repro import build_deployment

    reset_message_ids()
    dep = build_deployment(
        broker_ids=["b1", "b2", "b3"],
        seed=seed,
        ping_policy=HOTPATH_PING_POLICY,
        codec=codec,
    )
    entities = [
        dep.add_traced_entity(f"svc-{index:02d}", machine_name=EDGE_HOST)
        for index in range(entity_count)
    ]
    tracker = dep.add_tracker("watch")
    tracker.connect("b3")
    for entity in entities:
        entity.start("b1")
    dep.sim.run(until=3_000)
    for entity in entities:
        tracker.track(str(entity.entity_id))
    dep.sim.run(until=duration_ms)
    return dep.snapshot()
