"""EXP-T3-hops / Figure 2 / EXP-F5: trace routing overhead vs hop count.

Runs the Figure 1 chain, lets the entity register and the measuring
tracker subscribe, and collects the end-to-end latency of every ALLS_WELL
trace (entity ping-response stamp to tracker receipt — valid because both
live on the same machine, exactly the paper's measurement trick).

:func:`table3_hops`, :func:`figure5_signing_opt` and
:func:`replication_stability` produce the committed result files
(``repro seeds``), refusing a result the paper's shape contradicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BenchmarkError, ConfigurationError
from repro.bench import paper_data
from repro.bench.replication import replicate
from repro.bench.svgplot import series_dict_to_svg
from repro.bench.tables import (
    ComparisonRow,
    render_comparison,
    render_series,
    require,
    require_within_paper,
)
from repro.bench.topology import hops_chain
from repro.crypto.costmodel import CryptoCostModel
from repro.security.symmetric_opt import predicted_savings
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


def _series(results: list[HopsResult], name) -> dict[str, list[tuple[float, float]]]:
    """Figure-style series of mean latency by hops, keyed by ``name(result)``."""
    series: dict[str, list[tuple[float, float]]] = {}
    for result in results:
        series.setdefault(name(result), []).append((result.hops, result.summary.mean))
    return series


def table3_hops() -> tuple[str, str]:
    """``table3_hops.txt`` and ``figure2_hops.svg``: Table 3's four macro blocks.

    Refuses a per-hop slope, security premium or UDP saving outside the
    paper's band, or a cell beyond 10 % of the paper's mean.
    """
    results = run_hops_sweep(duration_ms=120_000.0)
    rows = comparison_rows(results)
    mean = {(r.transport, r.secured, r.hops): r.summary.mean for r in results}
    lo, hi = paper_data.EXPECTED_HOP_SLOPE_MS
    for transport in ("TCP", "UDP"):
        for secured in (False, True):
            block = [r for r in results if (r.transport, r.secured) == (transport, secured)]
            slope = slope_per_hop(block)
            message = f"{transport} secured={secured}: slope {slope:.2f} outside [{lo}, {hi}]"
            require(lo <= slope <= hi, message)
    gap_lo, gap_hi = paper_data.EXPECTED_SECURITY_GAP_MS
    udp_lo, udp_hi = paper_data.EXPECTED_UDP_SAVING_MS
    for hops in (2, 4, 6):
        for transport in ("TCP", "UDP"):
            gap = mean[transport, True, hops] - mean[transport, False, hops]
            require(gap_lo <= gap <= gap_hi, f"{transport} {hops} hops: security gap {gap:.2f}")
        for secured in (False, True):
            saving = mean["TCP", secured, hops] - mean["UDP", secured, hops]
            require(udp_lo <= saving <= udp_hi, f"{hops} hops: UDP saving {saving:.2f}")
    require_within_paper(rows, rel=0.10)

    series = _series(
        results, lambda r: f"{r.transport}/{'auth+sec' if r.secured else 'auth'}"
    )
    text = (
        render_comparison("Table 3: Trace routing overhead (ms)", rows)
        + "\n\n"
        + render_series("Figure 2: trace overhead vs hops", "hops", series)
    )
    figure = series_dict_to_svg(
        "Figure 2: trace routing overhead vs hops", "hops", "trace overhead (ms)", series
    )
    return text + "\n", figure


def figure5_signing_opt() -> tuple[str, str]:
    """``figure5_signing_opt.txt`` and ``.svg``: the section 6.3 optimization,
    strictly below signing by a saving within the paper's band at every hop."""
    results = run_signing_opt_sweep(duration_ms=120_000.0)
    lo, hi = paper_data.EXPECTED_SYMMETRIC_OPT_SAVING_MS
    signed = {r.hops: r.summary.mean for r in results if not r.symmetric_channel}
    optimized = {r.hops: r.summary.mean for r in results if r.symmetric_channel}
    for hops in signed:
        saving = signed[hops] - optimized[hops]
        require(lo <= saving <= hi, f"{hops} hops: saved {saving:.2f} ms, outside [{lo}, {hi}]")
        require(optimized[hops] < signed[hops], f"{hops} hops: not below signing")

    series = _series(
        results,
        lambda r: "symmetric channel (6.3)" if r.symmetric_channel else "per-message signing",
    )
    prediction = predicted_savings(CryptoCostModel(seed=0))
    text = (
        render_series("Figure 5: signing vs symmetric-channel optimization", "hops", series)
        + f"\n\nAnalytic prediction: the optimization saves "
        f"{prediction.savings_ms:.1f} ms per entity message "
        f"(sign {prediction.signing_entity_ms:.1f} -> encrypt "
        f"{prediction.symmetric_entity_ms:.2f} at the entity; verify "
        f"{prediction.signing_broker_ms:.1f} -> decrypt "
        f"{prediction.symmetric_broker_ms:.2f} at the broker)."
    )
    figure = series_dict_to_svg(
        "Figure 5: per-message signing vs symmetric channel",
        "hops", "trace overhead (ms)", series,
    )
    return text + "\n", figure


def replication_stability() -> tuple[str]:
    """``replication_stability.txt``: the TCP/auth 2-hop cell over five seeds,
    tight (95 % CI half-width under 5 ms) and within 6 ms of the paper."""
    result = replicate(
        "TCP auth 2 hops",
        lambda seed: run_hops_case(2, duration_ms=60_000.0, seed=seed).summary,
        (1, 2, 3, 4, 5),
    )
    paper_mean = paper_data.TABLE3_TCP_AUTH[2][0]
    require(result.ci95_half_width < 5.0, f"CI half-width {result.ci95_half_width:.2f} ms")
    require(abs(result.mean_of_means - paper_mean) < 6.0, "6 ms or more from the paper")
    low, high = result.ci95
    lines = [
        "Seed-replication stability: Table 3, TCP auth, 2 hops",
        "=" * 54,
        f"seeds:          {result.seeds}",
        "per-seed means: " + ", ".join(f"{m:.2f}" for m in result.per_seed_means),
        f"mean of means:  {result.mean_of_means:.2f} ms",
        f"95% CI:         [{low:.2f}, {high:.2f}] ms",
        f"paper mean:     {paper_mean:.2f} ms",
    ]
    return ("\n".join(lines) + "\n",)
