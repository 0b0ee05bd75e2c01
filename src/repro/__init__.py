"""repro — reproduction of "A Scalable Approach for the Secure and
Authorized Tracking of the Availability of Entities in Distributed Systems"
(Pallickara, Ekanayake & Fox, IPDPS 2007).

The package implements the paper's full stack in a deterministic
discrete-event simulation: a NaradaBrokering-style pub/sub broker network,
Topic Discovery Nodes, constrained topics, and on top of them the secure
and authorized availability-tracing scheme with its benchmarks.

Quickstart::

    from repro import build_deployment

    dep = build_deployment(broker_ids=["b1", "b2", "b3"])
    entity = dep.add_traced_entity("service-42")
    tracker = dep.add_tracker("watcher-1")
    tracker.connect("b3")
    tracker.on_trace.append(print)  # every verified trace, as it arrives
    entity.start("b1")
    dep.sim.run(until=5_000)
    tracker.track("service-42")
    dep.sim.run(until=60_000)
"""

from repro.deployment import Deployment, build_deployment
from repro.sim.engine import Simulator
from repro.tracing import (
    EntityState,
    InterestCategory,
    TracedEntity,
    Tracker,
    TraceType,
)

__version__ = "1.0.0"

__all__ = [
    "build_deployment",
    "Deployment",
    "Simulator",
    "TracedEntity",
    "Tracker",
    "TraceType",
    "EntityState",
    "InterestCategory",
    "__version__",
]
