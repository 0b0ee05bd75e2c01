"""The chaos scenario catalog (docs/FAULTS.md).

Each scenario is a deterministic deployment-plus-:class:`FaultPlan` pair
run from a single seed: three brokers in a ring (the paper's Figure 1
chain closed with a b1–b3 link so one edge can die without severing the
fabric), one traced entity on ``b1``, one tracker on ``b3``, and a fast
ping policy so detection happens inside a short run.

``run_scenario`` returns a small JSON snapshot of fault and recovery
counters; the ``broker-crash`` one is committed as
``benchmarks/results/chaos_seed.json`` (the ``chaos`` row of
:mod:`repro.seeds`, which also runs it into the analytics seed).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.tracing.failure import AdaptivePingPolicy

from repro.faults.controller import FaultController
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan


def fast_ping_policy(interval_ms: float) -> AdaptivePingPolicy:
    """The fast ping policy, scaled from one base interval.

    Detection happens inside a short run while the paper's 3-miss /
    6-miss thresholds stay as they are.
    """
    return AdaptivePingPolicy(
        base_interval_ms=interval_ms,
        min_interval_ms=interval_ms / 4.0,
        max_interval_ms=interval_ms * 2.0,
        response_deadline_ms=interval_ms * 0.4,
    )


#: 500 / 125 / 1 000 / 200 ms: scenarios resolve within a ~90 s virtual run.
CHAOS_PING_POLICY = fast_ping_policy(500.0)

#: Counters the seed snapshot pins exactly (all deterministic per seed).
CHAOS_COUNTERS = (
    "broker.msgs.delivered",
    "broker.msgs.unroutable",
    "broker.interest.stale_forwards",
    "faults.injected.broker_crash",
    "faults.injected.link_partition",
    "faults.injected.packet_loss",
    "faults.injected.delay_spike",
    "faults.injected.entity_crash",
    "trace.recovery.detected",
    "trace.recovery.completed",
    "tracker.pings.sent",
    "tracker.traces.received",
)

ENTITY_ID = "svc"
TRACKER_ID = "w"
ENTITY_BROKER = "b1"
TRACKER_BROKER = "b3"


def _broker_crash_plan() -> FaultPlan:
    return FaultPlan(
        name="broker-crash",
        events=(
            FaultEvent(
                kind=FaultKind.BROKER_CRASH,
                at_ms=20_000.0,
                target="b1",
                duration_ms=30_000.0,
                failover_to="b2",
                detect_after_ms=2_000.0,
            ),
        ),
    )


def _link_partition_plan() -> FaultPlan:
    return FaultPlan(
        name="link-partition",
        events=(
            FaultEvent(
                kind=FaultKind.LINK_PARTITION,
                at_ms=20_000.0,
                target="b1",
                peer="b3",
                duration_ms=20_000.0,
            ),
        ),
    )


def _packet_loss_plan() -> FaultPlan:
    return FaultPlan(
        name="packet-loss",
        events=(
            FaultEvent(
                kind=FaultKind.PACKET_LOSS,
                at_ms=20_000.0,
                target="b1",
                duration_ms=20_000.0,
                loss_probability=0.3,
            ),
        ),
    )


def _delay_spike_plan() -> FaultPlan:
    return FaultPlan(
        name="delay-spike",
        events=(
            FaultEvent(
                kind=FaultKind.DELAY_SPIKE,
                at_ms=20_000.0,
                target="b1",
                duration_ms=20_000.0,
                extra_delay_ms=250.0,
            ),
        ),
    )


def _entity_churn_plan() -> FaultPlan:
    return FaultPlan(
        name="entity-churn",
        events=(
            FaultEvent(
                kind=FaultKind.ENTITY_CRASH,
                at_ms=15_000.0,
                target=ENTITY_ID,
                duration_ms=10_000.0,
            ),
            FaultEvent(
                kind=FaultKind.ENTITY_CRASH,
                at_ms=45_000.0,
                target=ENTITY_ID,
                duration_ms=10_000.0,
            ),
        ),
    )


#: name -> (plan builder, default run duration in virtual ms)
SCENARIOS: dict = {
    "broker-crash": (_broker_crash_plan, 90_000.0),
    "link-partition": (_link_partition_plan, 60_000.0),
    "packet-loss": (_packet_loss_plan, 60_000.0),
    "delay-spike": (_delay_spike_plan, 60_000.0),
    "entity-churn": (_entity_churn_plan, 90_000.0),
}


def scenario_plan(name: str) -> FaultPlan:
    """The FaultPlan a named scenario runs (for inspection / docs)."""
    try:
        builder, _ = SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
        ) from None
    return builder()


def build_ring_deployment(
    brokers: int, seed: int, ping_interval_ms: float, federation: bool = False
):
    """A ring of ``b1`` … ``b<brokers>`` under :func:`fast_ping_policy`.

    ``federation`` swaps in the summarized-interest control plane
    (:mod:`repro.messaging.federation`); at chaos-scenario pattern counts
    the summaries stay exact, so snapshots must match the verbatim plane
    bit-for-bit (the federation equivalence suite pins this).
    """
    from repro import build_deployment

    if brokers < 2:
        raise ConfigurationError(f"need at least 2 brokers, got {brokers}")
    ids = [f"b{i + 1}" for i in range(brokers)]
    return build_deployment(
        broker_ids=ids,
        seed=seed,
        ping_policy=fast_ping_policy(ping_interval_ms),
        extra_links=[(ids[0], ids[-1])] if brokers > 2 else [],
        federation=federation,
    )


def build_chaos_deployment(seed: int = 42, federation: bool = False):
    """The shared three-broker-ring deployment every scenario runs on."""
    return build_ring_deployment(
        3, seed, CHAOS_PING_POLICY.base_interval_ms, federation=federation
    )


def run_scenario(
    name: str,
    seed: int = 42,
    duration_ms: float | None = None,
    federation: bool = False,
    analytics_store=None,
    deployment_probe=None,
) -> dict:
    """Run one scenario end to end and return its snapshot dict.

    ``analytics_store`` (an :class:`~repro.analytics.AnalyticsStore`)
    attaches the persistent analytics feeds before the run and finalizes
    them — journal copy plus run metadata — after the horizon; store
    appends draw no randomness and consume no virtual time, so the
    snapshot stays bit-identical to an uninstrumented run.
    ``deployment_probe`` is called with the live deployment after the
    run (the audit gate uses this to inspect counters and journal).
    """
    plan = scenario_plan(name)
    if duration_ms is None:
        duration_ms = SCENARIOS[name][1]

    dep = build_chaos_deployment(seed, federation=federation)
    if analytics_store is not None:
        dep.attach_analytics(analytics_store)
    entity = dep.add_traced_entity(ENTITY_ID)
    tracker = dep.add_tracker(TRACKER_ID)
    tracker.interest_refresh_ms = 0.0
    tracker.connect(TRACKER_BROKER)
    entity.start(ENTITY_BROKER)

    controller = FaultController(dep, plan)
    controller.start()

    dep.sim.run(until=3_000)
    tracker.track(ENTITY_ID)
    dep.sim.run(until=duration_ms)

    if analytics_store is not None:
        dep.finalize_analytics(scenario=name, seed=seed, duration_ms=duration_ms)
    if deployment_probe is not None:
        deployment_probe(dep)

    registry = dep.metrics
    counters = {name_: registry.counter_value(name_) for name_ in CHAOS_COUNTERS}
    recovery = registry.snapshot()["histograms"].get(
        "trace.recovery_ms", {"count": 0}
    )
    recovery_block = {"count": recovery.get("count", 0)}
    if recovery_block["count"]:
        recovery_block.update(
            mean_ms=recovery["mean"],
            min_ms=recovery["min"],
            max_ms=recovery["max"],
        )
    return {
        "scenario": name,
        "seed": seed,
        "duration_ms": duration_ms,
        "counters": counters,
        "recovery": recovery_block,
        "faults_active_end": registry.gauge_value("faults.active"),
        "journal": {
            "injected": len(dep.journal.records("fault.injected")),
            "reverted": len(dep.journal.records("fault.reverted")),
        },
    }
