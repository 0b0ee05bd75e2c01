"""The all-to-all heartbeat strawman (section 1).

"If there are N entities within the system, with each of them issuing one
message at regular intervals, every entity within the system receives
(N-1) messages.  If every entity issues one such message per second, there
would be N x (N-1) messages within the system every second."

This module implements that scheme faithfully so the ablation benchmark
can plot its quadratic message growth against the interest-gated tracing
scheme's. Each entity both sends heartbeats to all peers and judges peers
failed when heartbeats stop arriving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from repro.transport.base import TransportProfile
from repro.transport.udp import UDP_CLUSTER


def allpairs_message_rate(n: int, heartbeats_per_second: float = 1.0) -> float:
    """Messages per second in an N-entity all-pairs deployment."""
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    return n * (n - 1) * heartbeats_per_second


@dataclass(slots=True)
class _PeerState:
    last_heartbeat_ms: float
    failed: bool = False


class AllPairsHeartbeatSystem:
    """N entities heartbeating each other directly."""

    def __init__(
        self,
        sim: Simulator,
        entity_count: int,
        heartbeat_interval_ms: float = 1_000.0,
        failure_timeout_ms: float = 3_500.0,
        profile: TransportProfile = UDP_CLUSTER,
        seed: int = 0,
        monitor: Monitor | None = None,
    ) -> None:
        if entity_count < 2:
            raise ConfigurationError("need at least two entities")
        self.sim = sim
        self.entity_count = entity_count
        self.heartbeat_interval_ms = heartbeat_interval_ms
        self.failure_timeout_ms = failure_timeout_ms
        self.profile = profile
        self.monitor = monitor or Monitor()
        self._rng = random.Random(seed)
        self.messages_sent = 0
        self._crashed: set[int] = set()
        #: peer_views[i][j] is what entity i believes about entity j
        self.peer_views: list[dict[int, _PeerState]] = [
            {j: _PeerState(last_heartbeat_ms=0.0)
             for j in range(entity_count) if j != i}
            for i in range(entity_count)
        ]
        self._detections: dict[tuple[int, int], float] = {}

    # -------------------------------------------------------------------- run

    def start(self) -> None:
        """Spawn the heartbeat and failure-check loops for every entity."""
        for i in range(self.entity_count):
            self.sim.process(self._heartbeat_loop(i), name=f"allpairs.hb.{i}")
            self.sim.process(self._check_loop(i), name=f"allpairs.check.{i}")

    def crash(self, entity: int) -> None:
        self._crashed.add(entity)

    def _heartbeat_loop(self, sender: int):
        while True:
            if sender in self._crashed:
                return
            now = self.sim.now
            for receiver in range(self.entity_count):
                if receiver == sender:
                    continue
                self.messages_sent += 1
                self.monitor.increment("allpairs.messages")
                latency = self.profile.sample_latency_ms(64, self._rng)
                if self.profile.sample_loss(self._rng):
                    continue
                self.sim.call_later(
                    latency,
                    lambda r=receiver, s=sender, t=now: self._deliver(r, s, t),
                )
            yield self.sim.timeout(self.heartbeat_interval_ms)

    def _deliver(self, receiver: int, sender: int, _sent_ms: float) -> None:
        if receiver in self._crashed:
            return
        state = self.peer_views[receiver][sender]
        state.last_heartbeat_ms = self.sim.now
        if state.failed:
            state.failed = False  # peer came back

    def _check_loop(self, checker: int):
        while True:
            yield self.sim.timeout(self.heartbeat_interval_ms)
            if checker in self._crashed:
                return
            now = self.sim.now
            for peer, state in self.peer_views[checker].items():
                if state.failed:
                    continue
                if now - state.last_heartbeat_ms > self.failure_timeout_ms:
                    state.failed = True
                    self._detections[(checker, peer)] = now
                    self.monitor.increment("allpairs.detections")

    # ------------------------------------------------------------------ stats

    def believes_failed(self, checker: int, peer: int) -> bool:
        return self.peer_views[checker][peer].failed

    def detection_times_for(self, peer: int) -> list[float]:
        return sorted(
            t for (checker, p), t in self._detections.items() if p == peer
        )
