"""Gossip-style failure detection after van Renesse et al. (Ref [7]).

Each node keeps a table of (peer -> heartbeat counter, last-increase time).
Every gossip round a node increments its own counter and sends its full
table to ``fanout`` randomly chosen peers; receivers merge by taking the
maximum counter per peer.  A peer whose counter has not increased for
``fail_timeout_ms`` is suspected failed.

The paper's related-work section notes the weakness this reproduces:
"systems based on gossip schemes need to address the consistency issue
which results from uneven propagation of the gossips" — detection times
vary node to node, which the benchmark reports as detection-time spread.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.transport.base import TransportProfile
from repro.transport.udp import UDP_CLUSTER


@dataclass(slots=True)
class _PeerEntry:
    counter: int = 0
    last_increase_ms: float = 0.0
    suspected: bool = False


class GossipNode:
    """One participant in the gossip group."""

    def __init__(self, detector: "GossipFailureDetector", node_id: int) -> None:
        self.detector = detector
        self.node_id = node_id
        self.crashed = False
        self.table: dict[int, _PeerEntry] = {
            peer: _PeerEntry() for peer in range(detector.node_count)
        }

    def merge(self, remote_table: dict[int, int], now_ms: float) -> None:
        """Take the max counter per peer; note increases."""
        if self.crashed:
            return
        for peer, counter in remote_table.items():
            entry = self.table[peer]
            if counter > entry.counter:
                entry.counter = counter
                entry.last_increase_ms = now_ms
                if entry.suspected:
                    entry.suspected = False

    def snapshot(self) -> dict[int, int]:
        return {peer: entry.counter for peer, entry in self.table.items()}

    def suspects(self, peer: int) -> bool:
        return self.table[peer].suspected


class GossipFailureDetector:
    """The gossip group plus its loops and measurements."""

    def __init__(
        self,
        sim: Simulator,
        node_count: int,
        gossip_interval_ms: float = 1_000.0,
        fail_timeout_ms: float = 8_000.0,
        fanout: int = 2,
        profile: TransportProfile = UDP_CLUSTER,
        seed: int = 0,
    ) -> None:
        if node_count < 2:
            raise ConfigurationError("need at least two nodes")
        if not 1 <= fanout < node_count:
            raise ConfigurationError("fanout must be in [1, node_count)")
        self.sim = sim
        self.node_count = node_count
        self.gossip_interval_ms = gossip_interval_ms
        self.fail_timeout_ms = fail_timeout_ms
        self.fanout = fanout
        self.profile = profile
        self._rng = random.Random(seed)
        self.nodes = [GossipNode(self, i) for i in range(node_count)]
        self.messages_sent = 0
        self._detections: dict[tuple[int, int], float] = {}

    def start(self) -> None:
        for node in self.nodes:
            self.sim.process(self._gossip_loop(node), name=f"gossip.{node.node_id}")

    def crash(self, node_id: int) -> None:
        self.nodes[node_id].crashed = True

    def _gossip_loop(self, node: GossipNode):
        while True:
            if node.crashed:
                return
            now = self.sim.now
            # heartbeat: bump own counter
            own = node.table[node.node_id]
            own.counter += 1
            own.last_increase_ms = now

            # gossip to `fanout` random peers
            peers = [i for i in range(self.node_count) if i != node.node_id]
            for target_id in self._rng.sample(peers, self.fanout):
                self.messages_sent += 1
                latency = self.profile.sample_latency_ms(
                    32 + 8 * self.node_count, self._rng
                )
                if self.profile.sample_loss(self._rng):
                    continue
                snapshot = node.snapshot()
                target = self.nodes[target_id]
                self.sim.call_later(
                    latency, lambda t=target, s=snapshot: t.merge(s, self.sim.now)
                )

            # failure checks
            for peer, entry in node.table.items():
                if peer == node.node_id or entry.suspected:
                    continue
                if now - entry.last_increase_ms > self.fail_timeout_ms:
                    entry.suspected = True
                    self._detections[(node.node_id, peer)] = now

            yield self.sim.timeout(self.gossip_interval_ms)

    # ------------------------------------------------------------------ stats

    def detection_times_for(self, peer: int) -> list[float]:
        """When each live node first suspected ``peer`` (sorted)."""
        return sorted(
            t for (node, p), t in self._detections.items() if p == peer
        )

    def all_live_nodes_suspect(self, peer: int) -> bool:
        return all(
            node.suspects(peer)
            for node in self.nodes
            if not node.crashed and node.node_id != peer
        )
