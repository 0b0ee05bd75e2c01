"""EXP-F4: trace time while increasing the number of trackers (Figure 3/4).

The Figure 3 topology: the traced entity on one broker, trackers added
ten at a time (each group of ten on its own machine) on a second broker.
The measuring tracker is colocated with the entity; the reported series is
its mean ALLS_WELL latency as the tracker population grows.  The paper's
claim: "the trace time increases very slowly with an increase in the
number of trackers" — pub/sub fan-out does the heavy lifting, so the
per-tracker cost at the broker is a tiny delivery charge rather than a
full unicast + crypto pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BenchmarkError
from repro.bench.routing_smoke import RoutingCounters
from repro.bench.svgplot import series_dict_to_svg
from repro.bench.tables import render_series, require
from repro.bench.topology import star_with_trackers
from repro.tracing.traces import TraceType
from repro.transport.base import TransportProfile
from repro.transport.tcp import TCP_CLUSTER
from repro.transport.udp import UDP_CLUSTER
from repro.util.stats import StatSummary, summarize


@dataclass(frozen=True, slots=True)
class TrackersResult:
    """Figure 4 point: trace time with N concurrently registered trackers."""

    tracker_count: int
    transport: str
    summary: StatSummary
    routing: RoutingCounters | None = None


def run_trackers_case(
    tracker_count: int,
    profile: TransportProfile = TCP_CLUSTER,
    duration_ms: float = 120_000.0,
    seed: int = 9,
) -> TrackersResult:
    """One Figure 4 case: measure trace time at one tracker count."""
    dep, entity, measuring, load_trackers = star_with_trackers(
        tracker_count, profile=profile, seed=seed
    )
    entity.start("broker-entity")
    dep.sim.run(until=3_000.0)
    measuring.track("traced-entity")
    for tracker in load_trackers:
        tracker.track("traced-entity")
    dep.sim.run(until=3_000.0 + duration_ms)

    latencies = measuring.latencies(TraceType.ALLS_WELL)
    if not latencies:
        raise BenchmarkError(f"no heartbeats with {tracker_count} trackers")
    return TrackersResult(
        tracker_count=tracker_count,
        transport=profile.name,
        summary=summarize(latencies),
        routing=RoutingCounters.capture(dep.metrics),
    )


def run_trackers_sweep(
    counts: tuple[int, ...] = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    profile: TransportProfile = TCP_CLUSTER,
    duration_ms: float = 120_000.0,
    seed: int = 9,
) -> list[TrackersResult]:
    """Figure 4 sweep across tracker counts."""
    return [
        run_trackers_case(count, profile=profile, duration_ms=duration_ms, seed=seed)
        for count in counts
    ]


def growth_ratio(results: list[TrackersResult]) -> float:
    """Mean latency at the largest population over the smallest."""
    ordered = sorted(results, key=lambda r: r.tracker_count)
    return ordered[-1].summary.mean / ordered[0].summary.mean


def figure4_trackers() -> tuple[str, str]:
    """``figure4_trackers.txt`` and ``.svg``: 10-100 trackers over TCP and UDP.

    The paper's claim: a 10x tracker population costs well under 25 % extra
    trace time.  Every population stays under 120 ms, UDP below TCP.
    """
    by_transport = {
        profile.name: run_trackers_sweep(profile=profile, duration_ms=60_000.0)
        for profile in (TCP_CLUSTER, UDP_CLUSTER)
    }
    for transport, results in by_transport.items():
        ratio = growth_ratio(results)
        require(ratio < 1.25, f"{transport}: grew {ratio:.2f}x from 10 to 100 trackers")
        require(all(r.summary.mean < 120.0 for r in results), f"{transport}: 120 ms or more")
    for tcp, udp in zip(by_transport["TCP"], by_transport["UDP"], strict=True):
        require(udp.summary.mean < tcp.summary.mean, f"N={tcp.tracker_count}: UDP not below")

    series = {
        f"{transport} trace time (ms)": [(r.tracker_count, r.summary.mean) for r in results]
        for transport, results in by_transport.items()
    }
    lines = ["", "routing counters per case:"]
    for transport, results in by_transport.items():
        for r in results:
            if r.routing is not None:
                lines.append(f"  {transport} N={r.tracker_count:<3d} {r.routing.render()}")
    title = "Figure 4: trace time vs number of trackers"
    text = render_series(title, "trackers", series) + "\n".join(lines)
    figure = series_dict_to_svg(
        title, "trackers", "trace time (ms)", series, y_from_zero=True
    )
    return text + "\n", figure
