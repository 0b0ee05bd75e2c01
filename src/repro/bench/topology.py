"""Benchmark topologies (Figures 1 and 3, Table 4 setup).

Hop-count convention: the paper counts the entity-to-broker and
broker-to-tracker legs, so "H hops" means a chain of (H-1) brokers with
the traced entity attached to the first and the measuring tracker to the
last.  "In all cases, to obviate the need for clock synchronizations, the
traced entity and the measuring tracker were hosted on the same machine"
(section 6.1) — these builders colocate them the same way.
"""

from __future__ import annotations

from repro.deployment import Deployment, build_deployment

from repro.errors import ConfigurationError
from repro.tracing.entity import TracedEntity
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.interest import ALL_CATEGORIES, InterestCategory
from repro.tracing.tracker import Tracker
from repro.transport.base import TransportProfile
from repro.transport.tcp import TCP_CLUSTER

#: Shared machine hosting the entity and the measuring tracker.
MEASURE_HOST = "measure-host"


def hops_chain(
    hops: int,
    profile: TransportProfile = TCP_CLUSTER,
    seed: int = 0,
    secured: bool = False,
    use_symmetric_channel: bool = False,
    ping_policy: AdaptivePingPolicy | None = None,
    gauge_interval_ms: float = 60_000.0,
) -> tuple[Deployment, TracedEntity, Tracker]:
    """Figure 1: entity -> broker chain -> measuring tracker, ``hops`` hops."""
    if hops < 2:
        raise ConfigurationError("the paper's topology needs at least 2 hops")
    broker_ids = [f"broker-{i}" for i in range(hops - 1)]
    dep = build_deployment(
        broker_ids=broker_ids,
        seed=seed,
        profile=profile,
        ping_policy=ping_policy,
        gauge_interval_ms=gauge_interval_ms,
    )
    entity = dep.add_traced_entity(
        "traced-entity",
        machine_name=MEASURE_HOST,
        secured=secured,
        use_symmetric_channel=use_symmetric_channel,
    )
    tracker = dep.add_tracker("measuring-tracker", machine_name=MEASURE_HOST)
    tracker.connect(broker_ids[-1], transport_profile=profile)
    return dep, entity, tracker


def star_with_trackers(
    tracker_count: int,
    trackers_per_machine: int = 10,
    profile: TransportProfile = TCP_CLUSTER,
    seed: int = 0,
    interests: frozenset[InterestCategory] = ALL_CATEGORIES,
) -> tuple[Deployment, TracedEntity, Tracker, list[Tracker]]:
    """Figure 3: the entity's broker plus a tracker broker.

    Trackers are added in groups of ``trackers_per_machine`` hosted on
    distinct machines (the paper introduced "10 trackers at a time", each
    group on a different machine).  Returns the measuring tracker
    (colocated with the entity) plus the load trackers.
    """
    if tracker_count < 0:
        raise ConfigurationError("tracker_count must be non-negative")
    dep = build_deployment(
        broker_ids=["broker-entity", "broker-trackers"],
        seed=seed,
        profile=profile,
    )
    entity = dep.add_traced_entity("traced-entity", machine_name=MEASURE_HOST)
    measuring = dep.add_tracker("measuring-tracker", machine_name=MEASURE_HOST)
    measuring.connect("broker-trackers", transport_profile=profile)

    load_trackers: list[Tracker] = []
    for i in range(tracker_count):
        group = i // trackers_per_machine
        tracker = dep.add_tracker(
            f"tracker-{i}",
            machine_name=f"tracker-host-{group}",
            interests=interests,
        )
        tracker.connect("broker-trackers", transport_profile=profile)
        load_trackers.append(tracker)
    return dep, entity, measuring, load_trackers


def single_broker_colocated(
    entity_count: int,
    tracker_count: int = 30,
    profile: TransportProfile = TCP_CLUSTER,
    seed: int = 0,
    interests: frozenset[InterestCategory] = frozenset(
        {InterestCategory.ALL_UPDATES}
    ),
    ping_policy: AdaptivePingPolicy | None = None,
) -> tuple[Deployment, list[TracedEntity], list[Tracker]]:
    """Table 4 setup: 1 broker, 30 trackers, N entities, all colocated.

    "To cope with clock skews and to avoid synchronization problems, we
    had the traced entities and the trackers reside on the same machine.
    However, this configuration also results in lowering the performance
    figures since the security operations ... are compute intensive"
    (section 6.4) — the shared machine's CPU is exactly what produces the
    growing means and deviations.
    """
    dep = build_deployment(
        broker_ids=["broker-0"],
        seed=seed,
        profile=profile,
        ping_policy=ping_policy,
    )
    # One effective CPU for the crypto-heavy signing path: the paper notes
    # that the trace-generation security operations "performed by every
    # traced entity for every trace" are what depressed this experiment's
    # figures — sixty JVM-era processes sharing one host serialize far
    # harder than an idealized 4-way Xeon.  The trackers are passive
    # receivers here (per-trace verification cost is measured separately
    # in Table 3); what Table 4 isolates is the entity-side contention.
    dep.network.machine(MEASURE_HOST, cpu_capacity=1)
    entities = [
        dep.add_traced_entity(f"svc-{i}", machine_name=MEASURE_HOST)
        for i in range(entity_count)
    ]
    trackers = []
    for i in range(tracker_count):
        tracker = dep.add_tracker(
            f"tracker-{i}",
            machine_name=MEASURE_HOST,
            interests=interests,
            verify_traces=False,
        )
        tracker.connect("broker-0", transport_profile=profile)
        trackers.append(tracker)
    return dep, entities, trackers
