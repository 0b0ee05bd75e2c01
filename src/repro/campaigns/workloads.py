"""Campaign workload families: churn, §5 adversarial, and the gossip baseline.

Each family is a named, seeded scenario generator the campaign runner
sweeps over a parameter grid (docs/CAMPAIGNS.md).  A family's ``run``
takes a parameter dict and a seed and returns a *deterministic* snapshot
dict — counters, recovery/dependability blocks, defense outcomes — and
never wall-clock or host-dependent values, so campaign snapshots can be
gated byte-for-byte like the chaos and scale seeds.

Families:

* ``churn-mobile`` — the mobile-trace workload: entities leave and
  rejoin on a schedule (layered on :mod:`repro.faults`), optionally
  under loss/delay windows, with MTTR percentiles and availability
  envelopes computed from ``trace.recovery_ms``.
* ``unauthorized-publisher`` — §5.2: an attacker without a delegation
  floods fabricated traces; brokers discard and terminate.
* ``token-replay-flood`` — §5.2/§4.3: an attacker replays a captured,
  validly signed trace frame; the token-verification cache bounds the
  crypto cost of absorbing the flood.
* ``malicious-termination`` — §5.2 under churn: forged FAILED floods
  try to bury a churning entity's real lifecycle; recovery completes
  and no forged verdict reaches a verifying tracker.
* ``baseline-gossip`` — the §7 gossip baseline run over the same grid
  for frontier comparison tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.faults.controller import FaultController
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.scenarios import build_ring_deployment
from repro.tracing.traces import TraceType

#: Counters every tracing-deployment family snapshots (all deterministic).
CAMPAIGN_COUNTERS = (
    "broker.msgs.delivered",
    "broker.msgs.unroutable",
    "broker.msgs.rejected",
    "broker.violations",
    "broker.interest.stale_forwards",
    "tracker.pings.sent",
    "tracker.traces.received",
    "trace.recovery.detected",
    "trace.recovery.completed",
    "auth.token.cache.hit",
    "auth.token.cache.miss",
)

#: Virtual instant entities/trackers are bootstrapped by and tracking begins.
_TRACK_AT_MS = 3_000.0

#: Called with the live deployment after a tracing family's horizon
#: (``run_campaign(probe=...)``); the analytics audit gate inspects
#: campaign runs this way.  It only *reads* (counters, journal,
#: analytics): the run's outcome is sealed by then, so snapshots stay
#: bit-identical.  Baseline families build no deployment and never call it.
Probe = Callable[[object], None]


@dataclass(frozen=True, slots=True)
class WorkloadFamily:
    """One runnable workload family: metadata plus its ``run`` callable."""

    name: str
    kind: str  # "protocol" | "adversarial" | "baseline"
    description: str
    #: every parameter the family takes, each with its default
    defaults: dict
    #: ``run(params, seed, probe=None)``
    run: Callable[[dict, int, Probe | None], dict]

    @property
    def accepts(self) -> frozenset[str]:
        """The parameter names the family takes: the keys of ``defaults``."""
        return frozenset(self.defaults)

    def resolve(self, params: dict) -> dict:
        """Defaults overlaid with ``params``; rejects unknown names."""
        unknown = set(params) - self.accepts
        if unknown:
            raise ConfigurationError(
                f"family {self.name!r} does not accept "
                f"{', '.join(sorted(unknown))} (accepts: "
                f"{', '.join(sorted(self.accepts))})"
            )
        resolved = dict(self.defaults)
        resolved.update(params)
        return resolved


#: ``(histogram, fields)`` of the MTTR distribution (count, moments, pXX).
_RECOVERY = ("trace.recovery_ms", ("mean", "min", "max", "p50", "p90", "p99"))
#: ``(histogram, fields)`` of the FAILED-verdict latency distribution.
_DETECTION = ("tracker.detection.latency_ms", ("mean", "max"))


def _distribution_block(dep, name: str, fields: tuple[str, ...]) -> dict:
    """``count`` plus the rounded ``<field>_ms`` of one latency histogram."""
    histogram = dep.metrics.snapshot()["histograms"].get(name)
    if not histogram or not histogram.get("count"):
        return {"count": 0}
    block = {"count": histogram["count"]}
    block.update((f"{field}_ms", round(histogram[field], 3)) for field in fields)
    return block


def _availability_block(dep, entities: int, window_ms: float) -> dict:
    """Availability envelope: measured downtime over the tracked window.

    Downtime is the sum of completed detection→re-registration windows
    (``trace.recovery_ms``); the envelope divides it by the total tracked
    entity-time.  An entity still down at end of run contributes nothing
    to the histogram, so ``unrecovered`` is reported alongside to keep
    the envelope honest.
    """
    histogram = dep.metrics.snapshot()["histograms"].get("trace.recovery_ms")
    downtime_ms = 0.0
    if histogram and histogram.get("count"):
        downtime_ms = histogram["count"] * histogram["mean"]
    total_ms = entities * window_ms
    detected = dep.metrics.counter_value("trace.recovery.detected")
    completed = dep.metrics.counter_value("trace.recovery.completed")
    return {
        "window_ms": window_ms,
        "downtime_ms": round(downtime_ms, 3),
        "availability_pct": round(100.0 * (1.0 - downtime_ms / total_ms), 4),
        "unrecovered": detected - completed,
    }


def _counters(dep) -> dict:
    """The pinned campaign counter set, read from the shared registry."""
    return {name: dep.metrics.counter_value(name) for name in CAMPAIGN_COUNTERS}


def _churn_plan(entities: list[str], params: dict) -> FaultPlan:
    """The mobile churn schedule: staggered crash/rejoin cycles per entity."""
    events = []
    period = float(params["churn_period_ms"])
    offline = float(params["offline_ms"])
    stagger = period / max(len(entities), 1) / 2.0
    for cycle in range(int(params["churn_cycles"])):
        for position, entity_id in enumerate(entities):
            events.append(
                FaultEvent(
                    kind=FaultKind.ENTITY_CRASH,
                    at_ms=10_000.0 + cycle * period + position * stagger,
                    target=entity_id,
                    duration_ms=offline,
                )
            )
    if float(params["loss"]) > 0.0:
        events.append(
            FaultEvent(
                kind=FaultKind.PACKET_LOSS,
                at_ms=5_000.0,
                target="b1",
                duration_ms=float(params["duration_ms"]) - 10_000.0,
                loss_probability=float(params["loss"]),
            )
        )
    if float(params["delay_ms"]) > 0.0:
        events.append(
            FaultEvent(
                kind=FaultKind.DELAY_SPIKE,
                at_ms=5_000.0,
                target="b1",
                duration_ms=float(params["duration_ms"]) - 10_000.0,
                extra_delay_ms=float(params["delay_ms"]),
            )
        )
    return FaultPlan(name="campaign-churn", events=tuple(events))


def _received(dep, trace_type: TraceType) -> int:
    """Traces of ``trace_type`` the deployment's one tracker verified."""
    return dep.metrics.counter_value(f"tracker.traces_received.{trace_type.value.lower()}")


def _bootstrap_tracing(dep, entities: int):
    """Start ``entities`` traced entities round-robin and one tracker.

    Returns ``entity_ids``, with tracking active from ``_TRACK_AT_MS``.
    """
    ids = [f"e{i:02d}" for i in range(entities)]
    broker_ids = list(dep.managers)
    for position, entity_id in enumerate(ids):
        entity = dep.add_traced_entity(entity_id)
        entity.start(broker_ids[position % len(broker_ids)])
    tracker = dep.add_tracker("campaign-tracker")
    tracker.interest_refresh_ms = 0.0
    tracker.connect(broker_ids[-1])
    dep.sim.run(until=_TRACK_AT_MS)
    for entity_id in ids:
        tracker.track(entity_id)
    return ids


def run_churn_mobile(params: dict, seed: int, probe: Probe | None = None) -> dict:
    """Run one churn-mobile point: seeded churn plus optional loss/delay."""
    params = workload_family("churn-mobile").resolve(params)
    duration_ms = float(params["duration_ms"])
    dep = build_ring_deployment(
        int(params["brokers"]), seed, float(params["ping_interval_ms"])
    )
    entity_ids = _bootstrap_tracing(dep, int(params["entities"]))
    controller = FaultController(dep, _churn_plan(entity_ids, params))
    controller.start()
    dep.sim.run(until=duration_ms)
    if probe is not None:
        probe(dep)
    return {
        "counters": _counters(dep),
        "faults_injected": dep.metrics.counter_value(
            "faults.injected.entity_crash"
        )
        + dep.metrics.counter_value("faults.injected.packet_loss")
        + dep.metrics.counter_value("faults.injected.delay_spike"),
        "recovery": _distribution_block(dep, *_RECOVERY),
        "availability": _availability_block(
            dep, int(params["entities"]), duration_ms - _TRACK_AT_MS
        ),
        "detection": _distribution_block(dep, *_DETECTION),
        "failed_verdicts": _received(dep, TraceType.FAILED),
    }


def _attack_deployment(params: dict, seed: int):
    """Shared §5.2 setup: victim on b1, tracker on the last broker."""
    dep = build_ring_deployment(
        int(params["brokers"]), seed, float(params["ping_interval_ms"])
    )
    victim = dep.add_traced_entity("svc")
    tracker = dep.add_tracker("campaign-tracker")
    tracker.interest_refresh_ms = 0.0
    tracker.connect(list(dep.managers)[-1])
    victim.start("b1")
    dep.sim.run(until=_TRACK_AT_MS)
    tracker.track("svc")
    dep.sim.run(until=8_000.0)  # token delivered, tracing warm
    return dep, victim


def _defense_block(dep, attacker_broker: str) -> dict:
    """Defense outcome counters for an adversarial point."""
    return {
        "rejected": dep.metrics.counter_value("broker.msgs.rejected"),
        "violations": dep.metrics.counter_value("broker.violations"),
        "terminated": dep.metrics.counter_value("broker.dos.terminated"),
        "dropped_blacklisted": dep.metrics.counter_value("broker.dos.dropped_blacklisted"),
        "attacker_blacklisted": dep.network.broker(
            attacker_broker
        ).is_blacklisted("attacker"),
    }


def run_unauthorized_publisher(params: dict, seed: int, probe: Probe | None = None) -> dict:
    """§5.2 spurious-trace attack: tokenless flood plus one forged token."""
    from repro.security.dos import SpuriousTracePublisher

    params = workload_family("unauthorized-publisher").resolve(params)
    dep, victim = _attack_deployment(params, seed)
    attacker = SpuriousTracePublisher(
        dep.sim, "attacker", dep.network, dep.network.machine("machine-attacker")
    )
    attacker_broker = list(dep.managers)[1 % len(dep.managers)]
    attacker.connect(attacker_broker)
    trace_topic = victim.advertisement.fields.trace_topic
    dep.sim.process(
        attacker.inject_with_forged_token(
            trace_topic, "svc", victim.advertisement
        ),
        name="attack.forged",
    )
    dep.sim.process(
        attacker.flood(
            trace_topic, "svc", count=int(params["flood"]), spacing_ms=200.0
        ),
        name="attack.flood",
    )
    dep.sim.run(until=float(params["duration_ms"]))
    if probe is not None:
        probe(dep)
    return {
        "counters": _counters(dep),
        "attack": {"attempts": attacker.attempts},
        "defense": _defense_block(dep, attacker_broker),
        "forged_failed_seen": _received(dep, TraceType.FAILED),
        "alls_well_received": _received(dep, TraceType.ALLS_WELL),
    }


def run_token_replay_flood(params: dict, seed: int, probe: Probe | None = None) -> dict:
    """Replay attack: re-publish a captured, validly signed trace frame.

    A sniffer subscribes to the victim's ``AllUpdates`` topic and
    captures one genuine broker-published ALLS_WELL (body, signature
    and token are all valid — the worst replay case).  The attacker
    then re-publishes the identical frame ``flood`` times.  The defense
    is §4.1's Constrained topics: trace publication topics are
    broker-publish-only, so the first broker rejects every replayed
    frame *before any signature or token verification* — the snapshot's
    ``token_verifies_during_flood`` stays zero — and after three
    violations the attacker is terminated and blacklisted (§5.2).
    """
    params = workload_family("token-replay-flood").resolve(params)
    dep, victim = _attack_deployment(params, seed)

    captured: list = []
    sniffer = dep.network.add_client(
        "sniffer", machine_name="machine-sniffer"
    )
    sniffer_broker = list(dep.managers)[1 % len(dep.managers)]
    dep.network.connect_client(sniffer, sniffer_broker)
    sniffer.subscribe(
        victim.topics.all_updates.canonical,
        lambda message: captured.append(message),
    )
    dep.sim.run(until=14_000.0)  # let a genuine ALLS_WELL cross the sniffer

    replays = 0
    if captured:
        frame = captured[0]
        verify_before = dep.metrics.counter_value("crypto.ops.token_verify")
        attacker = dep.network.add_client(
            "attacker", machine_name="machine-attacker"
        )
        dep.network.connect_client(attacker, sniffer_broker)
        for _ in range(int(params["flood"])):
            attacker.publish(
                frame.topic,
                frame.body,
                signature=frame.signature,
                auth_token=frame.auth_token,
                encrypted=frame.encrypted,
            )
            replays += 1
            dep.sim.run(until=dep.sim.now + 100.0)
    else:  # pragma: no cover - bootstrap always publishes within 14 s
        verify_before = 0
    dep.sim.run(until=float(params["duration_ms"]))
    if probe is not None:
        probe(dep)
    return {
        "counters": _counters(dep),
        "attack": {
            "captured": len(captured),
            "replays": replays,
            "token_verifies_during_flood": dep.metrics.counter_value(
                "crypto.ops.token_verify"
            )
            - verify_before,
        },
        "defense": {
            "rejected_constrained": dep.metrics.counter_value(
                "broker.messages.rejected_constrained"
            ),
            "violations": dep.metrics.counter_value("broker.violations"),
            "terminated": dep.metrics.counter_value("broker.dos.terminated"),
            "dropped_blacklisted": dep.metrics.counter_value("broker.dos.dropped_blacklisted"),
        },
    }


def run_malicious_termination(params: dict, seed: int, probe: Probe | None = None) -> dict:
    """§5.2 under churn: forged FAILED floods race a real churn cycle.

    The victim genuinely churns (crash + rejoin via the fault
    controller) while an attacker floods forged FAILED traces trying to
    bury the real lifecycle.  The defense invariants the snapshot
    captures: every forged frame is rejected at the first broker, the
    attacker is terminated, the churn recovery still completes, and the
    verifying tracker sees exactly the genuine FAILED verdicts.
    """
    from repro.security.dos import SpuriousTracePublisher

    params = workload_family("malicious-termination").resolve(params)
    dep, victim = _attack_deployment(params, seed)
    churn = FaultPlan(
        name="campaign-malicious-termination",
        events=tuple(
            FaultEvent(
                kind=FaultKind.ENTITY_CRASH,
                at_ms=15_000.0 + cycle * float(params["churn_period_ms"]),
                target="svc",
                duration_ms=float(params["offline_ms"]),
            )
            for cycle in range(int(params["churn_cycles"]))
        ),
    )
    controller = FaultController(dep, churn)
    controller.start()
    attacker = SpuriousTracePublisher(
        dep.sim, "attacker", dep.network, dep.network.machine("machine-attacker")
    )
    attacker_broker = list(dep.managers)[1 % len(dep.managers)]
    attacker.connect(attacker_broker)
    dep.sim.process(
        attacker.flood(
            victim.advertisement.fields.trace_topic,
            "svc",
            count=int(params["flood"]),
            spacing_ms=500.0,
        ),
        name="attack.termination-flood",
    )
    dep.sim.run(until=float(params["duration_ms"]))
    if probe is not None:
        probe(dep)
    return {
        "counters": _counters(dep),
        "attack": {"attempts": attacker.attempts},
        "defense": _defense_block(dep, attacker_broker),
        "recovery": _distribution_block(dep, *_RECOVERY),
        "genuine_churn_cycles": int(params["churn_cycles"]),
        "failed_verdicts_seen": _received(dep, TraceType.FAILED),
    }


def run_baseline_gossip(params: dict, seed: int, probe: Probe | None = None) -> dict:
    """Gossip failure detection (§7 / Ref [7]) on the campaign grid.

    Crashes node 0 at 15 s and times each member's suspicion of it.
    """
    from repro.baselines.gossip import GossipFailureDetector
    from repro.sim.engine import Simulator

    params = workload_family("baseline-gossip").resolve(params)
    population = int(params["entities"]) + 1  # victim + watchers, like tracing
    sim = Simulator()
    detector = GossipFailureDetector(
        sim,
        population,
        gossip_interval_ms=float(params["ping_interval_ms"]) * 2.0,
        fail_timeout_ms=float(params["ping_interval_ms"]) * 16.0,
        fanout=min(2, population - 1),
        seed=seed,
    )
    detector.start()
    sim.run(until=15_000.0)
    crash_at = sim.now
    detector.crash(0)
    sim.run(until=crash_at + float(params["duration_ms"]))
    times = detector.detection_times_for(0)
    return {
        "population": population,
        "messages_sent": detector.messages_sent,
        "msgs_per_s": round(detector.messages_sent / (sim.now / 1000.0), 3),
        "detect_first_ms": round(times[0] - crash_at, 3) if times else None,
        "detect_last_ms": round(times[-1] - crash_at, 3) if times else None,
        "detection_spread_ms": round(times[-1] - times[0], 3) if times else None,
        "all_live_nodes_suspect": detector.all_live_nodes_suspect(0),
    }


#: Parameters every tracing-deployment family shares.
_COMMON_DEFAULTS = {
    "brokers": 3,
    "ping_interval_ms": 500.0,
    "duration_ms": 75_000.0,
}

#: The workload-family registry (docs/CAMPAIGNS.md documents each one).
WORKLOADS: dict[str, WorkloadFamily] = {
    family.name: family
    for family in (
        WorkloadFamily(
            name="churn-mobile",
            kind="protocol",
            description=(
                "mobile-trace churn: entities leave and rejoin on a "
                "staggered schedule, optionally under loss/delay windows"
            ),
            defaults={
                **_COMMON_DEFAULTS,
                "entities": 2,
                "churn_cycles": 1,
                "churn_period_ms": 25_000.0,
                "offline_ms": 8_000.0,
                "loss": 0.0,
                "delay_ms": 0.0,
            },
            run=run_churn_mobile,
        ),
        WorkloadFamily(
            name="unauthorized-publisher",
            kind="adversarial",
            description=(
                "§5.2 spurious-trace attack: tokenless + forged-token "
                "floods, discarded and terminated by the first broker"
            ),
            defaults={**_COMMON_DEFAULTS, "duration_ms": 40_000.0, "flood": 10},
            run=run_unauthorized_publisher,
        ),
        WorkloadFamily(
            name="token-replay-flood",
            kind="adversarial",
            description=(
                "replay attack: a captured validly-signed frame is "
                "re-published; §4.1 constrained topics reject it before "
                "any crypto and the attacker is terminated"
            ),
            defaults={**_COMMON_DEFAULTS, "duration_ms": 40_000.0, "flood": 10},
            run=run_token_replay_flood,
        ),
        WorkloadFamily(
            name="malicious-termination",
            kind="adversarial",
            description=(
                "§5.2 under churn: forged FAILED floods race a genuine "
                "churn cycle; recovery completes, forgeries never land"
            ),
            defaults={
                **_COMMON_DEFAULTS,
                "flood": 10,
                "churn_cycles": 1,
                "churn_period_ms": 25_000.0,
                "offline_ms": 8_000.0,
            },
            run=run_malicious_termination,
        ),
        WorkloadFamily(
            name="baseline-gossip",
            kind="baseline",
            description=(
                "gossip failure detection (Ref [7]) on the same grid, "
                "for the frontier comparison tables"
            ),
            defaults={
                "entities": 2,
                "ping_interval_ms": 500.0,
                "duration_ms": 60_000.0,
            },
            run=run_baseline_gossip,
        ),
    )
}


def workload_family(name: str) -> WorkloadFamily:
    """Look up a registered family; raises with the known names otherwise."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload family {name!r}; known: "
            f"{', '.join(sorted(WORKLOADS))}"
        ) from None
