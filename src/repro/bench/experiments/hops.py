"""EXP-T3-hops / Figure 2 / EXP-F5: trace routing overhead vs hop count.

Runs the Figure 1 chain, lets the entity register and the measuring
tracker subscribe, and collects the end-to-end latency of every ALLS_WELL
trace (entity ping-response stamp to tracker receipt — valid because both
live on the same machine, exactly the paper's measurement trick).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BenchmarkError, ConfigurationError
from repro.bench import paper_data
from repro.bench.tables import ComparisonRow
from repro.bench.topology import hops_chain
from repro.transport.base import TransportProfile
from repro.transport.tcp import TCP_CLUSTER
from repro.transport.udp import UDP_CLUSTER
from repro.util.stats import StatSummary

#: Virtual time allotted for startup (registration, token, interest).
SETUP_MS = 3_000.0

#: Table 3's four macro blocks, keyed by (transport, secured).
PAPER_BLOCKS = {
    ("TCP", False): paper_data.TABLE3_TCP_AUTH,
    ("TCP", True): paper_data.TABLE3_TCP_AUTH_SEC,
    ("UDP", False): paper_data.TABLE3_UDP_AUTH,
    ("UDP", True): paper_data.TABLE3_UDP_AUTH_SEC,
}


@dataclass(frozen=True, slots=True)
class HopsResult:
    """Table 3 point: routing overhead over one broker-hop count."""

    hops: int
    transport: str
    secured: bool
    symmetric_channel: bool
    summary: StatSummary


def run_hops_case(
    hops: int,
    profile: TransportProfile = TCP_CLUSTER,
    secured: bool = False,
    use_symmetric_channel: bool = False,
    duration_ms: float = 120_000.0,
    seed: int = 7,
) -> HopsResult:
    """One (hops, transport, mode) cell of Table 3."""
    dep, entity, tracker = hops_chain(
        hops,
        profile=profile,
        seed=seed,
        secured=secured,
        use_symmetric_channel=use_symmetric_channel,
    )
    # Table 3 measures the paper's brokers, which verify the token on every
    # trace at every hop (section 4.3): with the verification cache a hop
    # pays TOKEN_VERIFY once per token and the per-hop slope falls out of
    # the paper's band (the tracker pays once per token either way)
    for verifier in dep.broker_verifiers.values():
        verifier.cache = None
    entity.start("broker-0")
    dep.sim.run(until=SETUP_MS)
    tracker.track("traced-entity")
    dep.sim.run(until=SETUP_MS + duration_ms)

    # the deployment's only tracker feeds this instrument, so the
    # registry histogram is exactly the per-tracker sample set
    heartbeats = dep.metrics.histogram("tracker.trace.latency_ms.alls_well")
    if heartbeats.count == 0:
        raise BenchmarkError(
            f"no heartbeats received for hops={hops} {profile.name} "
            f"secured={secured}"
        )
    return HopsResult(
        hops=hops,
        transport=profile.name,
        secured=secured,
        symmetric_channel=use_symmetric_channel,
        summary=heartbeats.summary(),
    )


def run_hops_sweep(
    hops_list: tuple[int, ...] = (2, 3, 4, 5, 6),
    transports: tuple[TransportProfile, ...] = (TCP_CLUSTER, UDP_CLUSTER),
    modes: tuple[bool, ...] = (False, True),  # secured?
    duration_ms: float = 120_000.0,
    seed: int = 7,
) -> list[HopsResult]:
    """The full Table 3 macro sweep (Figure 2's series)."""
    results = []
    for profile in transports:
        for secured in modes:
            for hops in hops_list:
                results.append(
                    run_hops_case(
                        hops,
                        profile=profile,
                        secured=secured,
                        duration_ms=duration_ms,
                        seed=seed,
                    )
                )
    return results


def run_signing_opt_sweep(
    hops_list: tuple[int, ...] = (2, 3, 4, 5, 6),
    profile: TransportProfile = TCP_CLUSTER,
    duration_ms: float = 120_000.0,
    seed: int = 7,
) -> list[HopsResult]:
    """EXP-F5: per-message signing vs the symmetric-channel optimization."""
    results = []
    for use_channel in (False, True):
        for hops in hops_list:
            results.append(
                run_hops_case(
                    hops,
                    profile=profile,
                    use_symmetric_channel=use_channel,
                    duration_ms=duration_ms,
                    seed=seed,
                )
            )
    return results


def comparison_rows(results: list[HopsResult]) -> list[ComparisonRow]:
    """Paper-vs-measured rows of Table 3, one per :func:`run_hops_sweep` cell."""
    return [
        ComparisonRow(
            f"{r.transport} {'auth+sec' if r.secured else 'auth'} {r.hops} hops",
            *PAPER_BLOCKS[(r.transport, r.secured)][r.hops],
            measured=r.summary,
        )
        for r in results
    ]


def slope_per_hop(results: list[HopsResult]) -> float:
    """Least-squares slope of mean latency vs hop count."""
    points = [(r.hops, r.summary.mean) for r in results]
    n = len(points)
    if n < 2:
        raise ConfigurationError("need at least two hop counts")
    sum_x = sum(x for x, _ in points)
    sum_y = sum(y for _, y in points)
    sum_xx = sum(x * x for x, _ in points)
    sum_xy = sum(x * y for x, y in points)
    return (n * sum_xy - sum_x * sum_y) / (n * sum_xx - sum_x * sum_x)
