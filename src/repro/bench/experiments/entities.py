"""EXP-T4: trace routing overhead while increasing traced entities.

Table 4's setup: one broker, 30 trackers, and 10/20/30 traced entities —
entities and trackers all hosted on the same machine.  The colocated
crypto workload (every entity signs every trace it initiates; every
tracker verifies every trace it receives) contends for the shared CPU,
which is why both the mean and the deviation grow super-linearly with the
entity count.  Latencies are collected across *all* trackers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BenchmarkError
from repro.bench import paper_data
from repro.bench.routing_smoke import RoutingCounters
from repro.bench.tables import ComparisonRow, render_comparison, require, require_within_paper
from repro.bench.topology import single_broker_colocated
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.traces import TraceType
from repro.transport.base import TransportProfile
from repro.transport.tcp import TCP_CLUSTER
from repro.util.stats import StatSummary, summarize

#: Table 4 ran at a steady ping cadence; growth of the adaptive interval is
#: disabled so every entity keeps heart-beating at the base rate.
STEADY_POLICY = AdaptivePingPolicy(
    base_interval_ms=800.0,
    min_interval_ms=250.0,
    max_interval_ms=800.0,
    response_deadline_ms=2_500.0,
)


@dataclass(frozen=True, slots=True)
class EntitiesResult:
    """Table 4 point: trace overhead with N co-located traced entities."""

    entity_count: int
    tracker_count: int
    samples: int
    summary: StatSummary
    routing: RoutingCounters | None = None


def run_entities_case(
    entity_count: int,
    tracker_count: int = 30,
    profile: TransportProfile = TCP_CLUSTER,
    duration_ms: float = 60_000.0,
    seed: int = 13,
) -> EntitiesResult:
    """One Table 4 case: measure trace time at one entity count."""
    dep, entities, trackers = single_broker_colocated(
        entity_count,
        tracker_count=tracker_count,
        profile=profile,
        seed=seed,
        ping_policy=STEADY_POLICY,
    )
    # stagger the starts: registration itself is crypto-heavy (token
    # generation, sealing) and would otherwise pile a multi-second startup
    # transient onto the shared CPU
    for index, entity in enumerate(entities):
        dep.sim.call_later(300.0 * index, lambda e=entity: e.start("broker-0"))
    dep.sim.run(until=300.0 * len(entities) + 5_000.0)
    # trackers are assigned round-robin over the traced entities: the
    # tracker population is the constant (30), the traced-entity count is
    # the variable, exactly as in Table 4
    for index, tracker in enumerate(trackers):
        entity = entities[index % len(entities)]
        dep.sim.call_later(
            150.0 * index,
            lambda t=tracker, e=entity: t.track(str(e.entity_id)),
        )
    # warm-up: let interest propagate and the startup backlog drain fully
    warmup_end = dep.sim.now + 15_000.0
    dep.sim.run(until=warmup_end)
    for tracker in trackers:
        tracker.received.clear()
    dep.sim.run(until=warmup_end + duration_ms)

    latencies: list[float] = []
    for tracker in trackers:
        latencies.extend(tracker.latencies(TraceType.ALLS_WELL))
    if not latencies:
        raise BenchmarkError(f"no heartbeats with {entity_count} entities")
    return EntitiesResult(
        entity_count=entity_count,
        tracker_count=tracker_count,
        samples=len(latencies),
        summary=summarize(latencies),
        routing=RoutingCounters.capture(dep.metrics),
    )


def run_entities_sweep(
    counts: tuple[int, ...] = (10, 20, 30),
    tracker_count: int = 30,
    duration_ms: float = 60_000.0,
    seed: int = 13,
) -> list[EntitiesResult]:
    """Table 4 sweep across entity counts."""
    return [
        run_entities_case(
            count, tracker_count=tracker_count, duration_ms=duration_ms, seed=seed
        )
        for count in counts
    ]


def comparison_rows(results: list[EntitiesResult]) -> list[ComparisonRow]:
    """Paper-vs-measured rows of Table 4."""
    return [
        ComparisonRow(
            f"{r.entity_count} traced entities",
            *paper_data.TABLE4_ENTITIES[r.entity_count],
            measured=r.summary,
        )
        for r in results
    ]


def table4_entities() -> tuple[str]:
    """``table4_entities.txt``: Table 4 at 10/20/30 entities, 45 s windows.

    Mean and deviation grow super-linearly (the 20->30 step exceeds the
    10->20 one), each mean within 25 % of the paper's.
    """
    results = run_entities_sweep(duration_ms=45_000.0)
    rows = comparison_rows(results)
    ordered = sorted(results, key=lambda r: r.entity_count)
    means = [r.summary.mean for r in ordered]
    stds = [r.summary.std_dev for r in ordered]
    require(means == sorted(means), f"means do not grow: {means}")
    require(stds == sorted(stds), f"deviations do not grow: {stds}")
    require(means[2] - means[1] > means[1] - means[0], f"not super-linear: {means}")
    require_within_paper(rows, rel=0.25)
    lines = ["", "routing counters per case:"]
    for result in results:
        if result.routing is not None:
            lines.append(f"  entities={result.entity_count:<3d} {result.routing.render()}")
    title = "Table 4: trace routing overhead by traced entities (TCP)"
    return (render_comparison(title, rows) + "\n".join(lines) + "\n",)
