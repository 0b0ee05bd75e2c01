"""Ablation and baseline experiments (EXP-A1, EXP-A2, EXP-A3).

* **Message-count ablation** — the intro's N x (N-1) strawman versus the
  interest-gated tracing scheme's message budget at matched population.
* **Gossip baseline** — detection latency and message load of a gossip
  failure detector versus the broker-based scheme.
* **Adaptive-ping ablation** — failure-detection latency with and without
  the section 3.3 interval adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.allpairs import allpairs_message_rate
from repro.baselines.gossip import GossipFailureDetector
from repro.errors import BenchmarkError
from repro.deployment import build_deployment
from repro.sim.engine import Simulator
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.interest import InterestCategory
from repro.tracing.traces import TraceType

# ---------------------------------------------------------------- EXP-A1


@dataclass(frozen=True, slots=True)
class MessageCountResult:
    """One EXP-A1 point: msgs/s for all-pairs vs brokered tracing."""

    population: int
    watchers: int
    allpairs_msgs_per_s: float
    tracing_msgs_per_s: float

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

    dep = build_deployment(broker_ids=["b1", "b2"], seed=seed)
    policy = AdaptivePingPolicy(
        base_interval_ms=1_000.0, min_interval_ms=500.0,
        max_interval_ms=1_000.0, response_deadline_ms=400.0,
    )
    for manager in dep.managers.values():
        manager.ping_policy = policy

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
    )


def _tracing_message_count(dep) -> int:
    counters = dep.monitor.counters()
    return (
        counters.get("messages.received", 0)
        + counters.get("messages.forwarded_in", 0)
        + counters.get("messages.delivered_client", 0)
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
    entity.start("b1")
    dep.sim.run(until=3_000.0)
    watcher.track("svc-0")
    dep.sim.run(until=20_000.0)
    trace_crash_at = dep.sim.now
    base_msgs = _tracing_message_count(dep)
    entity.crash()
    dep.sim.run(until=trace_crash_at + duration_ms)
    failed = watcher.traces_of_type(TraceType.FAILED)
    if not failed:
        raise BenchmarkError("tracing never detected the crash")
    tracing_msgs_per_s = (_tracing_message_count(dep) - base_msgs) / (
        duration_ms / 1000.0
    )

    return GossipComparisonResult(
        population=population,
        gossip_detect_first_ms=times[0] - crash_at,
        gossip_detect_last_ms=times[-1] - crash_at,
        gossip_msgs_per_s=gossip_msgs_per_s,
        tracing_detect_ms=failed[0].received_ms - trace_crash_at,
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
        counters = dep.monitor.counters()
        results.append(
            GatingResult(
                gated=gated,
                published=counters.get("trace.published_total", 0),
                suppressed=counters.get("trace.suppressed_no_interest", 0),
                delivered=counters.get("messages.delivered_client", 0),
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
        entity.start("b1")
        dep.sim.run(until=5_000.0)
        watcher.track("svc")
        dep.sim.run(until=10_000.0)
        pings_before = dep.monitor.count("trace.pings_sent")
        crash_at = dep.sim.now
        entity.crash()
        dep.sim.run(until=crash_at + 120_000.0)
        failed = watcher.traces_of_type(TraceType.FAILED)
        if not failed:
            raise BenchmarkError(f"{label}: failure never detected")
        results.append(
            AdaptivePingResult(
                label=label,
                detection_ms=failed[0].received_ms - crash_at,
                pings_sent=dep.monitor.count("trace.pings_sent") - pings_before,
            )
        )
    return results
