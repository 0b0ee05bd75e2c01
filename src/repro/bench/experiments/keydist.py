"""EXP-T3-keydist: secure trace-key distribution overhead (section 5.1).

Measures the full distribution round for a freshly arrived tracker: the
broker's (token-carrying) GUAGE_INTEREST publication, the tracker's signed
interest response with its credentials and response topic, the broker's
certificate check and sealing of the trace key, the routed key payload,
and the tracker's RSA unsealing.

Each sample uses a fresh tracker (the key is distributed once per
tracker), arriving at staggered times so samples are independent; gauges
fire periodically, so the wait for the next gauge contributes the large
dispersion the paper reports (σ ≈ 37-40 ms).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BenchmarkError
from repro.bench import paper_data
from repro.bench.tables import ComparisonRow
from repro.bench.topology import hops_chain
from repro.transport.base import TransportProfile
from repro.transport.tcp import TCP_CLUSTER
from repro.util.stats import StatSummary


@dataclass(frozen=True, slots=True)
class KeyDistResult:
    """Table 3 point: key-distribution round time at one hop count."""

    hops: int
    samples: int
    summary: StatSummary


def run_keydist_case(
    hops: int,
    tracker_count: int = 20,
    gauge_interval_ms: float = 120.0,
    arrival_spacing_ms: float = 1_733.0,
    profile: TransportProfile = TCP_CLUSTER,
    seed: int = 11,
) -> KeyDistResult:
    """Key-distribution latency at one hop count."""
    dep, entity, _measuring = hops_chain(
        hops,
        profile=profile,
        seed=seed,
        secured=True,
        gauge_interval_ms=gauge_interval_ms,
    )
    last_broker = f"broker-{hops - 2}"
    entity.start("broker-0")
    dep.sim.run(until=3_000.0)

    trackers = []
    for i in range(tracker_count):
        tracker = dep.add_tracker(
            f"keydist-tracker-{i}",
            machine_name=f"keydist-host-{i % 3}",
            proactive_interest=False,  # wait for a gauge, like the paper
        )
        tracker.connect(last_broker, transport_profile=profile)
        trackers.append(tracker)
        dep.sim.run(until=dep.sim.now + arrival_spacing_ms)
        tracker.track(entity.entity_id)
        dep.sim.run(until=dep.sim.now + arrival_spacing_ms)

    dep.sim.run(until=dep.sim.now + 10_000.0)

    # every tracker shares the deployment registry and contributes at most
    # one gauge-to-key round, so this histogram is the sample set
    rounds = dep.metrics.histogram("tracker.keydist.latency_ms")
    if rounds.count < tracker_count // 2:
        raise BenchmarkError(
            f"only {rounds.count}/{tracker_count} trackers were keyed at "
            f"hops={hops}"
        )
    return KeyDistResult(hops=hops, samples=rounds.count, summary=rounds.summary())


def run_keydist_sweep(
    hops_list: tuple[int, ...] = (2, 3, 4),
    tracker_count: int = 20,
    seed: int = 11,
) -> list[KeyDistResult]:
    """Table 3 key-distribution sweep across hop counts."""
    return [
        run_keydist_case(hops, tracker_count=tracker_count, seed=seed)
        for hops in hops_list
    ]


def comparison_rows(results: list[KeyDistResult]) -> list[ComparisonRow]:
    """Paper-vs-measured rows of the Table 3 key-distribution block."""
    return [
        ComparisonRow(
            f"key distribution, {r.hops} hops",
            *paper_data.TABLE3_KEYDIST[r.hops],
            measured=r.summary,
        )
        for r in results
    ]
