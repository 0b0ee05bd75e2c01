"""Broker discovery (Ref [3] of the paper).

Before registering for tracing, an entity "proceeds to securely discover a
valid broker within the broker network" (section 3.2).  We model the
discovery service as a directory that knows the live brokers and answers
queries under a placement policy, charging a modeled round-trip delay.
"""

from __future__ import annotations

import enum
from typing import Generator

from repro.errors import DiscoveryError
from repro.messaging.broker import Broker
from repro.sim.engine import Event, Simulator
from repro.sim.monitor import Monitor

#: Modeled round trip of one discovery request.
RESPONSE_DELAY_MS = 4.0


class PlacementPolicy(enum.Enum):
    """How the discovery service picks a broker for a requester."""

    ROUND_ROBIN = "round_robin"
    LEAST_LOADED = "least_loaded"
    FIRST = "first"


class BrokerDiscoveryService:
    """Directory of live brokers with pluggable placement."""

    def __init__(self, sim: Simulator, monitor: Monitor) -> None:
        self.sim = sim
        self.monitor = monitor
        self._brokers: dict[str, Broker] = {}
        self._round_robin_index = 0

    def register_broker(self, broker: Broker) -> None:
        """Make a broker discoverable to joining clients."""
        self._brokers[broker.broker_id] = broker

    def deregister_broker(self, broker_id: str) -> None:
        """Remove a broker (e.g. crashed) from the discoverable set."""
        self._brokers.pop(broker_id, None)

    def discover(
        self, policy: PlacementPolicy = PlacementPolicy.ROUND_ROBIN
    ) -> Generator[Event, None, Broker]:
        """Process body: resolve one valid broker after the modeled delay."""
        yield self.sim.timeout(RESPONSE_DELAY_MS)
        self.monitor.metrics.counter("broker.discovery.requests").inc()
        if not self._brokers:
            raise DiscoveryError("no live brokers registered")
        ordered = sorted(self._brokers)
        if policy is PlacementPolicy.FIRST:
            chosen = ordered[0]
        elif policy is PlacementPolicy.ROUND_ROBIN:
            chosen = ordered[self._round_robin_index % len(ordered)]
            self._round_robin_index += 1
        elif policy is PlacementPolicy.LEAST_LOADED:
            chosen = min(ordered, key=lambda b: len(self._brokers[b].client_ids))
        else:  # pragma: no cover - exhaustive enum
            raise DiscoveryError(f"unknown policy {policy}")
        return self._brokers[chosen]
