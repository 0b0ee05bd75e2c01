"""Ablation and baseline experiments (EXP-A1 to EXP-A5) and chaos recovery.

* **Message-count ablation** — the intro's N x (N-1) strawman versus the
  interest-gated tracing scheme's message budget at matched population.
* **Gossip baseline** — detection latency and message load of a gossip
  failure detector versus the broker-based scheme.
* **Adaptive-ping ablation** — failure-detection latency with and without
  the section 3.3 interval adaptation.
* **Interest gating** and **detector thresholds** — paper characteristic
  #1 and the section 3.3 thresholds.
* **Chaos recovery** — the ``broker-crash`` scenario's detection ->
  re-registration latency, bounded and reproducible.

The functions at the end produce the committed result files
(``repro seeds``), refusing a result that contradicts the claim it backs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.allpairs import allpairs_message_rate
from repro.baselines.gossip import GossipFailureDetector
from repro.bench.tables import render_series, require
from repro.errors import BenchmarkError
from repro.deployment import build_deployment
from repro.faults import run_scenario
from repro.sim.engine import Simulator
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.interest import InterestCategory
from repro.tracing.traces import TraceType
from repro.tracing.tracker import first_arrivals
from repro.util.snapshots import render_snapshot

# ---------------------------------------------------------------- EXP-A1


@dataclass(frozen=True, slots=True)
class MessageCountResult:
    """One EXP-A1 point: msgs/s for all-pairs vs brokered tracing."""

    population: int
    watchers: int
    allpairs_msgs_per_s: float
    tracing_msgs_per_s: float
    #: FAILED verdicts in a run where every entity stays up
    false_failures: int

    @property
    def reduction_factor(self) -> float:
        """How many times fewer msgs/s tracing needs than all-pairs."""
        return self.allpairs_msgs_per_s / max(self.tracing_msgs_per_s, 1e-9)


def run_message_count_case(
    population: int,
    watchers_per_entity: int = 2,
    duration_ms: float = 60_000.0,
    seed: int = 21,
) -> MessageCountResult:
    """Messages per second: all-pairs vs interest-gated tracing.

    In the tracing scheme only ``watchers_per_entity`` trackers care about
    each entity (the realistic case the paper's gating targets), so traces
    are published once and fanned out by the broker, while ping traffic is
    confined to the entity-broker link.
    """
    # analytic all-pairs rate (1 heartbeat per entity per second)
    allpairs_rate = allpairs_message_rate(population)

    policy = AdaptivePingPolicy(
        base_interval_ms=1_000.0, min_interval_ms=500.0,
        max_interval_ms=1_000.0, response_deadline_ms=400.0,
    )
    dep = build_deployment(broker_ids=["b1", "b2"], seed=seed, ping_policy=policy)

    entities = []
    for i in range(population):
        entity = dep.add_traced_entity(f"svc-{i}")
        dep.sim.call_later(200.0 * i, lambda e=entity: e.start("b1"))
        entities.append(entity)
    dep.sim.run(until=200.0 * population + 5_000.0)
    for i in range(population * watchers_per_entity):
        tracker = dep.add_tracker(
            f"w-{i}", interests=frozenset({InterestCategory.ALL_UPDATES})
        )
        tracker.connect("b2")
        tracker.track(f"svc-{i % population}")
    start = dep.sim.now + 5_000.0
    dep.sim.run(until=start)
    base_msgs = _tracing_message_count(dep)
    dep.sim.run(until=start + duration_ms)
    tracing_msgs = _tracing_message_count(dep) - base_msgs

    return MessageCountResult(
        population=population,
        watchers=population * watchers_per_entity,
        allpairs_msgs_per_s=allpairs_rate,
        tracing_msgs_per_s=tracing_msgs / (duration_ms / 1000.0),
        false_failures=len(dep.journal.records("failure_declared")),
    )


def _tracing_message_count(dep) -> int:
    metrics = dep.metrics
    return (
        metrics.counter_value("broker.msgs.ingress")
        + metrics.counter_value("broker.msgs.forwarded_in")
        + metrics.counter_value("broker.messages.delivered_client")
    )


def run_message_count_sweep(
    populations: tuple[int, ...] = (10, 20, 40, 80),
    seed: int = 21,
) -> list[MessageCountResult]:
    """EXP-A1 sweep: message load vs population for both systems."""
    return [run_message_count_case(p, seed=seed) for p in populations]


# ---------------------------------------------------------------- EXP-A2


@dataclass(frozen=True, slots=True)
class GossipComparisonResult:
    """EXP-A2: gossip vs tracing detection latency and message cost."""

    population: int
    gossip_detect_first_ms: float
    gossip_detect_last_ms: float
    gossip_msgs_per_s: float
    tracing_detect_ms: float
    tracing_msgs_per_s: float


def run_gossip_comparison(
    population: int = 16,
    duration_ms: float = 60_000.0,
    seed: int = 22,
) -> GossipComparisonResult:
    """Crash one node/entity; compare detection latency and message load."""
    # --- gossip side ---------------------------------------------------------
    gossip_sim = Simulator()
    gossip = GossipFailureDetector(
        gossip_sim, population, gossip_interval_ms=1_000.0,
        fail_timeout_ms=8_000.0, fanout=2, seed=seed,
    )
    gossip.start()
    gossip_sim.run(until=20_000.0)
    crash_at = gossip_sim.now
    gossip.crash(0)
    gossip_sim.run(until=crash_at + duration_ms)
    gossip_msgs_per_s = gossip.messages_sent / (gossip_sim.now / 1000.0)
    times = gossip.detection_times_for(0)
    if not times:
        raise BenchmarkError("gossip never detected the crash")

    # --- tracing side ---------------------------------------------------------
    dep = build_deployment(
        broker_ids=["b1", "b2"],
        seed=seed,
        ping_policy=AdaptivePingPolicy(
            base_interval_ms=1_000.0, min_interval_ms=250.0,
            max_interval_ms=1_000.0, response_deadline_ms=400.0,
        ),
    )
    entity = dep.add_traced_entity("svc-0")
    watcher = dep.add_tracker(
        "w", interests=frozenset({InterestCategory.CHANGE_NOTIFICATIONS})
    )
    watcher.connect("b2")
    first = first_arrivals(watcher)
    entity.start("b1")
    dep.sim.run(until=3_000.0)
    watcher.track("svc-0")
    dep.sim.run(until=20_000.0)
    trace_crash_at = dep.sim.now
    base_msgs = _tracing_message_count(dep)
    entity.crash()
    dep.sim.run(until=trace_crash_at + duration_ms)
    if TraceType.FAILED not in first:
        raise BenchmarkError("tracing never detected the crash")
    tracing_msgs_per_s = (_tracing_message_count(dep) - base_msgs) / (
        duration_ms / 1000.0
    )

    return GossipComparisonResult(
        population=population,
        gossip_detect_first_ms=times[0] - crash_at,
        gossip_detect_last_ms=times[-1] - crash_at,
        gossip_msgs_per_s=gossip_msgs_per_s,
        tracing_detect_ms=first[TraceType.FAILED] - trace_crash_at,
        tracing_msgs_per_s=tracing_msgs_per_s,
    )


# ---------------------------------------------------------------- EXP-A4


@dataclass(frozen=True, slots=True)
class GatingResult:
    """EXP-A4: publications suppressed/delivered with interest gating."""

    gated: bool
    published: int
    suppressed: int
    delivered: int


def run_interest_gating_ablation(
    entity_count: int = 8,
    duration_ms: float = 60_000.0,
    seed: int = 24,
) -> list[GatingResult]:
    """Characteristic #1 of the paper: traces are issued only when someone
    is interested.  Runs the same deployment (entities tracked by nobody)
    with gating on and off and counts publications."""
    results = []
    for gated in (True, False):
        dep = build_deployment(
            broker_ids=["b1", "b2"],
            seed=seed,
            ping_policy=AdaptivePingPolicy(
                base_interval_ms=1_000.0, min_interval_ms=500.0,
                max_interval_ms=1_000.0, response_deadline_ms=400.0,
            ),
        )
        for manager in dep.managers.values():
            manager.gate_by_interest = gated
        for i in range(entity_count):
            entity = dep.add_traced_entity(f"svc-{i}")
            dep.sim.call_later(250.0 * i, lambda e=entity: e.start("b1"))
        dep.sim.run(until=250.0 * entity_count + 5_000.0 + duration_ms)
        published = sum(
            count
            for name, count in dep.monitor.counters().items()
            if name.startswith("trace.published.")
        )
        results.append(
            GatingResult(
                gated=gated,
                published=published,
                suppressed=dep.metrics.counter_value("trace.suppressed_no_interest"),
                delivered=dep.metrics.counter_value("broker.messages.delivered_client"),
            )
        )
    return results


# ---------------------------------------------------------------- EXP-A5


@dataclass(frozen=True, slots=True)
class ThresholdResult:
    """EXP-A5: false suspicions/failures at one threshold setting."""

    suspicion_threshold: int
    failure_threshold: int
    loss_probability: float
    false_suspicions: int
    false_failures: int
    detection_ms_after_real_crash: float | None


def run_threshold_sensitivity(
    thresholds: tuple[tuple[int, int], ...] = ((1, 3), (3, 6), (6, 10)),
    loss_probability: float = 0.12,
    healthy_pings: int = 5_000,
    seed: int = 25,
) -> list[ThresholdResult]:
    """The §3.3 design choice, quantified: how many successive misses
    should raise suspicion?

    Monte Carlo directly over the detector machinery (PingHistory +
    FailureDetector + AdaptivePingPolicy): low thresholds detect a real
    crash fast but raise false suspicions on a lossy link, high
    thresholds are quiet but slow.  The healthy phase feeds
    ``healthy_pings`` Bernoulli-lossy ping rounds; the crash phase then
    measures virtual time until FAILED.
    """
    import random as _random

    from repro.tracing.failure import DetectorVerdict, FailureDetector
    from repro.tracing.pings import Ping, PingHistory, PingResponse

    policy = AdaptivePingPolicy(
        base_interval_ms=1_000.0, min_interval_ms=250.0,
        max_interval_ms=1_000.0, response_deadline_ms=400.0,
    )

    results = []
    for suspicion, failure in thresholds:
        rng = _random.Random(seed)
        history = PingHistory()
        detector = FailureDetector(
            suspicion_threshold=suspicion, failure_threshold=failure
        )
        now = 0.0
        interval = policy.base_interval_ms
        false_suspicions = 0
        false_failures = 0
        was_suspect = False
        for number in range(healthy_pings):
            ping = Ping(number, now)
            history.record_ping(ping)
            # both the ping and the response can be lost independently
            delivered = rng.random() >= loss_probability
            answered = delivered and rng.random() >= loss_probability
            if answered:
                history.record_response(
                    PingResponse(number, now, now + 2.0), now + 5.0
                )
            now += policy.response_deadline_ms
            verdict = detector.judge(
                history.consecutive_misses(now, policy.response_deadline_ms)
            )
            if verdict is DetectorVerdict.SUSPECT and not was_suspect:
                false_suspicions += 1
                was_suspect = True
            elif verdict is DetectorVerdict.ALIVE:
                was_suspect = False
            elif verdict is DetectorVerdict.FAILED:
                false_failures += 1
                detector.reset()  # keep sampling after a false failure
                was_suspect = False
            interval = policy.next_interval_ms(interval, history, now, now)
            now += max(0.0, interval - policy.response_deadline_ms)

        # crash phase: no responses ever again
        detector.reset()
        crash_at = now
        detection = None
        number = healthy_pings
        while detection is None and now < crash_at + 300_000.0:
            history.record_ping(Ping(number, now))
            number += 1
            now += policy.response_deadline_ms
            verdict = detector.judge(
                history.consecutive_misses(now, policy.response_deadline_ms)
            )
            if verdict is DetectorVerdict.FAILED:
                detection = now - crash_at
                break
            interval = policy.next_interval_ms(interval, history, now, now)
            now += max(0.0, interval - policy.response_deadline_ms)

        results.append(
            ThresholdResult(
                suspicion_threshold=suspicion,
                failure_threshold=failure,
                loss_probability=loss_probability,
                false_suspicions=false_suspicions,
                false_failures=false_failures,
                detection_ms_after_real_crash=detection,
            )
        )
    return results


# ---------------------------------------------------------------- EXP-A3


@dataclass(frozen=True, slots=True)
class AdaptivePingResult:
    """EXP-A3: detection latency and ping cost for one ping policy."""

    label: str
    detection_ms: float
    pings_sent: int


def run_adaptive_ping_ablation(seed: int = 23) -> list[AdaptivePingResult]:
    """Detection latency: adaptive interval shrink vs fixed interval."""
    cases = [
        (
            "adaptive (section 3.3)",
            AdaptivePingPolicy(
                base_interval_ms=2_000.0, min_interval_ms=200.0,
                max_interval_ms=2_000.0, response_deadline_ms=200.0,
            ),
        ),
        (
            "fixed interval",
            AdaptivePingPolicy(
                base_interval_ms=2_000.0, min_interval_ms=2_000.0,
                max_interval_ms=2_000.0, response_deadline_ms=200.0,
            ),
        ),
    ]
    results = []
    for label, policy in cases:
        dep = build_deployment(broker_ids=["b1"], seed=seed, ping_policy=policy)
        entity = dep.add_traced_entity("svc")
        watcher = dep.add_tracker(
            "w", interests=frozenset({InterestCategory.CHANGE_NOTIFICATIONS})
        )
        watcher.connect("b1")
        first = first_arrivals(watcher)
        entity.start("b1")
        dep.sim.run(until=5_000.0)
        watcher.track("svc")
        dep.sim.run(until=10_000.0)
        pings_before = dep.metrics.counter_value("tracker.pings.sent")
        crash_at = dep.sim.now
        entity.crash()
        dep.sim.run(until=crash_at + 120_000.0)
        if TraceType.FAILED not in first:
            raise BenchmarkError(f"{label}: failure never detected")
        results.append(
            AdaptivePingResult(
                label=label,
                detection_ms=first[TraceType.FAILED] - crash_at,
                pings_sent=dep.metrics.counter_value("tracker.pings.sent") - pings_before,
            )
        )
    return results


# ---------------------------------------------------------------- result files


def ablation_msgcount() -> tuple[str]:
    """``ablation_msgcount.txt``: EXP-A1 at 10/20/40/80 entities."""
    results = run_message_count_sweep(populations=(10, 20, 40, 80))
    factors = [r.reduction_factor for r in sorted(results, key=lambda r: r.population)]
    # quadratic vs linear: the reduction grows with N, to over 5x at N = 80
    require(factors == sorted(factors), f"reduction does not grow with N: {factors}")
    require(factors[-1] > 5.0, f"reduction at the largest N is {factors[-1]:.2f}x")
    for r in results:
        require(r.allpairs_msgs_per_s == r.population * (r.population - 1), "not N(N-1)")
        # no entity fails here: a FAILED verdict is the broker's own overload
        require(r.false_failures == 0, f"{r.false_failures} false FAILED at N = {r.population}")
    series = {
        "all-pairs msgs/s": [(r.population, r.allpairs_msgs_per_s) for r in results],
        "tracing msgs/s": [(r.population, r.tracing_msgs_per_s) for r in results],
        "reduction factor": [(r.population, r.reduction_factor) for r in results],
    }
    title = "EXP-A1: message load, all-pairs heartbeats vs tracing"
    return (render_series(title, "N", series) + "\n",)


def baseline_gossip() -> tuple[str]:
    """``baseline_gossip.txt``: EXP-A2 at 16 nodes."""
    r = run_gossip_comparison(population=16)
    require(r.tracing_detect_ms < r.gossip_detect_first_ms, "gossip detected first")
    require(r.gossip_detect_last_ms >= r.gossip_detect_first_ms, "negative gossip spread")
    require(r.tracing_msgs_per_s < r.gossip_msgs_per_s, "tracing sends no fewer messages")
    lines = [
        "EXP-A2: gossip failure detector vs broker-based tracing",
        "=" * 56,
        f"population: {r.population} nodes",
        "",
        f"{'metric':<38s} {'gossip':>12s} {'tracing':>12s}",
        "-" * 64,
        f"{'first detection after crash (ms)':<38s} "
        f"{r.gossip_detect_first_ms:>12.0f} {r.tracing_detect_ms:>12.0f}",
        f"{'last detection after crash (ms)':<38s} "
        f"{r.gossip_detect_last_ms:>12.0f} {r.tracing_detect_ms:>12.0f}",
        f"{'messages per second':<38s} "
        f"{r.gossip_msgs_per_s:>12.1f} {r.tracing_msgs_per_s:>12.1f}",
        "",
        "Gossip's detection spread (first vs last) is the consistency",
        "issue the paper's related-work section points out; the broker",
        "scheme publishes one authoritative FAILED trace to all trackers.",
    ]
    return ("\n".join(lines) + "\n",)


def ablation_adaptive_ping() -> tuple[str]:
    """``ablation_adaptive_ping.txt``: EXP-A3."""
    results = run_adaptive_ping_ablation()
    adaptive, fixed = results
    # at least 2x faster, with at most one extra ping
    require(adaptive.detection_ms * 2 < fixed.detection_ms, "adaptive is not 2x faster")
    require(adaptive.pings_sent <= fixed.pings_sent + 1, "adaptive sent more pings")
    lines = [
        "EXP-A3: failure-detection latency, adaptive vs fixed ping interval",
        "=" * 67,
        f"{'policy':<26s} {'detection (ms)':>15s} {'pings to detect':>16s}",
        "-" * 60,
    ]
    for r in results:
        lines.append(f"{r.label:<26s} {r.detection_ms:>15.0f} {r.pings_sent:>16d}")
    return ("\n".join(lines) + "\n",)


def ablation_interest_gating() -> tuple[str]:
    """``ablation_interest_gating.txt``: EXP-A4, 8 untracked entities."""
    gated, ungated = run_interest_gating_ablation()
    require(gated.suppressed > 0, "gating suppressed nothing")
    require(ungated.suppressed == 0, "the ungated run suppressed publications")
    require(ungated.published > 5 * gated.published, "ungated published 5x or less")
    lines = [
        "EXP-A4: interest gating (8 untracked entities, 60 s)",
        "=" * 52,
        f"{'mode':<14s} {'published':>10s} {'suppressed':>11s}",
        "-" * 38,
        f"{'gated (§3.5)':<14s} {gated.published:>10d} {gated.suppressed:>11d}",
        f"{'ungated':<14s} {ungated.published:>10d} {ungated.suppressed:>11d}",
        "",
        f"gating avoided {ungated.published - gated.published} signed "
        "publications that nobody would have received.",
    ]
    return ("\n".join(lines) + "\n",)


def ablation_thresholds() -> tuple[str]:
    """``ablation_thresholds.txt``: EXP-A5 on a 12 %-lossy link."""
    results = run_threshold_sensitivity()
    ordered = sorted(results, key=lambda r: r.failure_threshold)
    detections = [r.detection_ms_after_real_crash for r in ordered]
    false_rates = [r.false_suspicions for r in ordered]
    # detection slows and false alarms fall as thresholds rise; only the
    # hair-trigger setting gives false FAILED verdicts
    require(None not in detections, "a real crash went undetected")
    require(detections == sorted(detections), f"detection does not slow: {detections}")
    require(false_rates == sorted(false_rates, reverse=True), "false alarms do not fall")
    require(ordered[0].false_failures > 0, "the hair-trigger setting never cried wolf")
    require(ordered[1].false_failures == ordered[2].false_failures == 0, "a false FAILED")
    lines = [
        "EXP-A5: detector thresholds on a 12%-lossy link (5000 ping rounds)",
        "=" * 67,
        f"{'susp/fail':>10s} {'false suspicions':>17s} {'false failures':>15s} "
        f"{'crash detection':>16s}",
        "-" * 62,
    ]
    for r in results:
        detect = (
            f"{r.detection_ms_after_real_crash:.0f} ms"
            if r.detection_ms_after_real_crash is not None
            else "never"
        )
        lines.append(
            f"{r.suspicion_threshold:>4d}/{r.failure_threshold:<5d} "
            f"{r.false_suspicions:>17d} {r.false_failures:>15d} {detect:>16s}"
        )
    lines += [
        "",
        "Trade-off: hair-trigger thresholds detect a crash ~2x faster but",
        "cry wolf hundreds of times on a lossy link (including outright",
        "false FAILED verdicts); the paper's defaults are the knee of the",
        "curve.  Thresholds above the 10-ping history window are rejected",
        "at construction — they could never fire.",
    ]
    return ("\n".join(lines) + "\n",)


def chaos_recovery() -> tuple[str]:
    """``chaos_recovery.txt``: the ``broker-crash`` scenario, twice at seed 42.

    The crash is noticed after 2 s; the migration plus the section 3.2
    registration exchange must finish well inside a 15 s budget, and the
    two runs must be bit-identical.
    """
    snapshot = run_scenario("broker-crash", seed=42)
    identical = render_snapshot(snapshot) == render_snapshot(
        run_scenario("broker-crash", seed=42)
    )
    recovery, counters = snapshot["recovery"], snapshot["counters"]
    require(recovery["count"] >= 1, "no recovery was measured")
    require(
        counters["trace.recovery.completed"] == counters["trace.recovery.detected"],
        "a detected failure did not recover",
    )
    require(recovery["max_ms"] <= 15_000.0, "recovery over the 15 s budget")
    require(snapshot["faults_active_end"] == 0.0, "a fault is still active at the end")
    require(identical, "two runs at seed 42 differ")
    lines = [
        "Chaos recovery: broker-crash scenario (repro.faults)",
        "=" * 52,
        "seed:                 42",
        f"faults injected:      {counters['faults.injected.broker_crash']} broker crash",
        f"recoveries measured:  {recovery['count']}",
        f"recovery latency:     mean {recovery.get('mean_ms', 0.0):.1f} ms, "
        f"max {recovery.get('max_ms', 0.0):.1f} ms",
        "recovery budget:      15000 ms",
        f"traces delivered:     {counters['broker.msgs.delivered']}",
        f"run-to-run identical: {identical}",
    ]
    return ("\n".join(lines) + "\n",)
