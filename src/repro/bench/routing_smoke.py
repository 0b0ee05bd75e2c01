"""Deterministic routing smoke scenario behind the committed routing seed.

Runs the quickstart deployment (three chained brokers, one traced entity,
one tracker) with a detach phase appended: mid-run the tracker's client is
detached from its broker, after which the entity keeps publishing traces
for the rest of the simulation.  With a correct interest lifecycle the
detach retracts the tracker's interest fabric-wide, so the tail of the run
must forward nothing toward the now-empty broker.

The routing-relevant counters of the final metrics snapshot form a small
JSON document committed as ``benchmarks/results/routing_seed.json`` (the
``routing`` row of :mod:`repro.seeds`): the seed pins
``broker.msgs.unroutable`` and ``broker.interest.stale_forwards`` at 0, so
any waste — or any drift in delivery counts — shows when it is regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Counters whose values define the routing contract.  Missing counters
#: read as zero, so a regression that *introduces* e.g. stale forwards is
#: caught even though the seed snapshot records a 0 for it.
ROUTING_COUNTERS = (
    "broker.msgs.ingress",
    "broker.msgs.forwarded_out",
    "broker.msgs.delivered",
    "broker.msgs.unroutable",
    "broker.interest.announced",
    "broker.interest.retracted",
    "broker.interest.stale_forwards",
)

#: Per-topic-family delivery counters are collected by prefix (unchanged
#: delivery is the correctness bar for any routing optimization).
DELIVERED_PREFIX = "broker.delivered."

#: The committed ``routing_seed.json`` run: seed, horizon, and when the
#: tracker detaches.
SEED = 42
DURATION_MS = 30_000.0
DETACH_AT_MS = 20_000.0


@dataclass(frozen=True, slots=True)
class RoutingCounters:
    """Fabric-wide routing counters captured at the end of a bench case.

    Benchmarks attach one of these to their result records so a run's
    report shows *how much* forwarding work produced the measured
    latencies — the evidence trail for routing optimizations.
    """

    ingress: int
    forwarded_out: int
    delivered: int
    unroutable: int
    stale_forwards: int

    @classmethod
    def capture(cls, registry) -> "RoutingCounters":
        """Read the routing-regression counter set from a registry."""
        return cls(
            ingress=registry.counter_value("broker.msgs.ingress"),
            forwarded_out=registry.counter_value("broker.msgs.forwarded_out"),
            delivered=registry.counter_value("broker.msgs.delivered"),
            unroutable=registry.counter_value("broker.msgs.unroutable"),
            stale_forwards=registry.counter_value(
                "broker.interest.stale_forwards"
            ),
        )

    def render(self) -> str:
        """Single-line counter summary for logs and seed diffs."""
        return (
            f"ingress={self.ingress} forwarded_out={self.forwarded_out} "
            f"delivered={self.delivered} unroutable={self.unroutable} "
            f"stale_forwards={self.stale_forwards}"
        )


def run_routing_smoke(federation: bool = False) -> dict:
    """Run the scenario and return the routing counters as a snapshot dict.

    ``federation`` runs the same scenario on the summarized-interest
    control plane; with this scenario's handful of patterns the
    summaries stay exact, so every routing counter must match the
    verbatim default exactly (the equivalence suite asserts that).  The
    pattern-entry gauge alone reads lower, since federated peers no
    longer mirror remote interest into their local indexes.
    """
    from repro import build_deployment

    dep = build_deployment(
        broker_ids=["b1", "b2", "b3"],
        seed=SEED,
        federation=federation,
    )
    entity = dep.add_traced_entity("demo-service")
    tracker = dep.add_tracker("demo-tracker")
    tracker.connect("b3")
    entity.start("b1")
    dep.sim.run(until=3_000)
    tracker.track("demo-service")
    dep.sim.run(until=DETACH_AT_MS)

    # Detach phase: the tracker's broker loses its last subscriber for the
    # entity's trace topics; interest must be retracted fabric-wide and the
    # remaining publishes must not be forwarded toward b3.
    dep.network.broker("b3").detach_client("demo-tracker")
    dep.sim.run(until=DURATION_MS)

    registry = dep.metrics
    counters = {name: registry.counter_value(name) for name in ROUTING_COUNTERS}
    all_counters = registry.snapshot()["counters"]
    for name in sorted(all_counters):
        if name.startswith(DELIVERED_PREFIX):
            counters[name] = all_counters[name]
    return {
        "scenario": "quickstart+detach",
        "seed": SEED,
        "duration_ms": DURATION_MS,
        "detach_at_ms": DETACH_AT_MS,
        "counters": counters,
        "interest_patterns_gauge": registry.gauge_value("broker.interest.patterns"),
    }
