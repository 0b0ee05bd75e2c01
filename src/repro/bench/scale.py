"""Deterministic fabric-scale scenario: many brokers, 10⁴–10⁶ interests.

The scalability claim (§4) is about fabrics far past the paper's
three-broker chain: tens of brokers tracking the availability of
10⁵–10⁶ entities.  This module builds that fabric shape — ``brokers``
brokers in a ring, one trace-topic subscription per simulated entity
spread round-robin across them — publishes a seeded sample of trace
events from far-side brokers, and snapshots the *deterministic*
counters: control-plane floods, summary updates, delivery totals,
digest false positives, pattern gauges.

Everything here is reproducible bit-for-bit per seed (RandomStreams +
blake2b digests, no wall clock), which is what lets the reduced point
below be a committed seed (``scale_seed.json``, a :mod:`repro.seeds` row).
The *measured* curve — RSS and forwards per event per point, one
subprocess per point — lives in ``benchmarks/bench_scale.py``, which
drives :func:`run_scale_point` and commits
``benchmarks/results/scale_curve.{txt,json}``.

The headline numbers the committed curve must show (docs/ROADMAP.md):
at 64 brokers / 100 000 entities the federated control plane issues
``control.floods`` within a small multiple of the *broker* count — the
verbatim plane would issue one flood per pattern, plus an
O(patterns × brokers) interest table no host could hold.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message
from repro.messaging.topics import Topic
from repro.sim.engine import Simulator

#: The committed seed's point (kept small: under a second, tens of MB).
SMOKE_BROKERS = 8
SMOKE_ENTITIES = 5_000
SMOKE_EVENTS = 500

#: Counters pinned exactly by the scale seed snapshot.
SCALE_COUNTERS = (
    "broker.msgs.delivered",
    "broker.msgs.forwarded_out",
    "broker.msgs.unroutable",
    "broker.interest.stale_forwards",
    "fed.forwards.false_positive",
    "fed.summary.updates",
    "fed.summary.replays",
)


def entity_topic(index: int) -> str:
    """The trace topic entity ``index`` is tracked on."""
    return f"Traces/{index:06x}/Change"


def run_scale_point(
    brokers: int = SMOKE_BROKERS,
    entities: int = SMOKE_ENTITIES,
    events: int = SMOKE_EVENTS,
    seed: int = 42,
    federation: bool = True,
) -> dict:
    """Run one fabric-scale point and return its deterministic snapshot.

    ``brokers`` ring-connected brokers; ``entities`` per-entity trace
    subscriptions spread round-robin; ``events`` publishes to seeded
    entity choices, each injected at the broker diametrically opposite
    the subscriber (worst-case hop count on a ring).  ``federation``
    selects the summarized control plane; the verbatim plane is only
    tractable at small points — its interest table is
    O(entities × brokers) — so the curve runs it for comparison where it
    fits and federated-only beyond.
    """
    if brokers < 2:
        raise ConfigurationError(f"need at least 2 brokers, got {brokers}")
    sim = Simulator()
    network = BrokerNetwork(sim, seed=seed, federation=federation)
    ids = [f"b{i:03d}" for i in range(brokers)]
    for broker_id in ids:
        network.add_broker(broker_id)
    for i in range(brokers):
        network.connect_brokers(ids[i], ids[(i + 1) % brokers])

    received = [0]

    def on_trace(message: Message) -> None:
        received[0] += 1

    for index in range(entities):
        network.broker(ids[index % brokers]).subscribe_local(
            entity_topic(index), on_trace
        )

    rng = network.streams.stream("scale.publish")
    offset = brokers // 2
    for event in range(events):
        index = rng.randrange(entities)
        origin = ids[(index + offset) % brokers]
        network.broker(origin).publish_from_broker(
            Message(
                topic=Topic(entity_topic(index)),
                body=event,
                source=origin,
            )
        )
    sim.run()

    metrics = network.monitor.metrics
    counters = {name: metrics.counter_value(name) for name in SCALE_COUNTERS}
    digest_summaries = 0
    if network.federation is not None:
        network.federation.flush()
        digest_summaries = int(metrics.gauge_value("fed.summary.overflowed"))
    return {
        "scenario": "fabric-scale",
        "brokers": brokers,
        "entities": entities,
        "events": events,
        "seed": seed,
        "federation": federation,
        "counters": counters,
        "received": received[0],
        "control_floods": network.monitor.count("control.floods"),
        "interest_patterns_gauge": metrics.gauge_value("broker.interest.patterns"),
        "fed_patterns_gauge": metrics.gauge_value("fed.interest.patterns"),
        "digest_summaries": digest_summaries,
    }
