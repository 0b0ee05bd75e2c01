"""Helpers and oracles the tests share and the package itself never calls.

Each reads only state the package keeps anyway; ``tests/test_reachability.py``
is why they live here and not in ``src/repro``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.crypto.costmodel import CryptoCostModel, CryptoOp, OpCost
from repro.errors import RoutingError, SimulationError
from repro.messaging.routing import _sorted_adjacency, _walk
from repro.sim.engine import Event, Resource, Simulator

# -------------------------------------------------------------------- crypto


def free_cost_model() -> CryptoCostModel:
    """A cost model charging zero time for every operation."""
    return CryptoCostModel(calibration={op: OpCost(0.0, 0.0, 0.0) for op in CryptoOp}, seed=0)


# ----------------------------------------------------------------------- sim


def run_process(sim: Simulator, generator, name: str = "") -> Any:
    """Spawn a process, step until it completes, and return its result."""
    proc = sim.process(generator, name)
    while proc._state == Event.PENDING:
        if not sim.step():
            raise SimulationError(f"deadlock: process {proc.name!r} never completed")
    return proc.value


def succeeded(event: Event) -> bool:
    """Triggered, and without an exception."""
    return event.triggered and event._exception is None


def occupancy(resource: Resource) -> tuple[int, int]:
    """``(slots in use, waiters queued)``."""
    return resource._in_use, len(resource._waiters)


# ------------------------------------------------------------------- routing

NodeId = Hashable


def bfs_next_hops(
    adjacency: Mapping[NodeId, set[NodeId]], source: NodeId
) -> dict[NodeId, NodeId]:
    """Next-hop table from ``source`` alone, through the walk ``all_next_hops`` uses."""
    if source not in adjacency:
        raise RoutingError(f"unknown source node {source!r}")
    return _walk(_sorted_adjacency(adjacency), source)


def hop_distance(adjacency: Mapping[NodeId, set[NodeId]], a: NodeId, b: NodeId) -> int:
    """Shortest hop count between two nodes (0 if identical), by its own BFS."""
    if a == b:
        return 0
    if a not in adjacency:
        raise RoutingError(f"unknown node {a!r}")
    visited = {a}
    queue: deque[tuple[NodeId, int]] = deque([(a, 0)])
    while queue:
        node, dist = queue.popleft()
        for neighbor in adjacency.get(node, ()):
            if neighbor == b:
                return dist + 1
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append((neighbor, dist + 1))
    raise RoutingError(f"no path from {a!r} to {b!r}")


def network_hops(network, a: str, b: str) -> int:
    """Broker-to-broker hop count over a network's current adjacency."""
    adjacency = {
        broker.broker_id: set(network.neighbors_of(broker.broker_id))
        for broker in network.brokers()
    }
    return hop_distance(adjacency, a, b)


def build_chain(network, broker_ids: Iterable[str], profile=None) -> list:
    """A linear chain of brokers (the paper's Figure 1 topology)."""
    ids = list(broker_ids)
    brokers = [network._brokers.get(bid) or network.add_broker(bid) for bid in ids]
    for left, right in zip(ids, ids[1:], strict=False):
        network.connect_brokers(left, right, profile)
    return brokers


def stale_interest_entries(network, client_id: str | None = None) -> list[str]:
    """Fabric-interest rows with no live local subscriber behind them.

    Every ``(pattern, owner)`` the control plane still advertises must be
    backed by a local subscription on the owning broker, and if
    ``client_id`` is given, no broker may still index a subscription for
    that client.
    """
    stale: list[str] = []
    if network.federation is not None:
        accumulators = network.federation._accumulators
        advertised = [
            (pattern, owner)
            for owner in sorted(accumulators)
            for pattern in sorted(accumulators[owner].patterns)
        ]
    else:
        interest = network._interest
        advertised = [
            (pattern, owner) for pattern in sorted(interest) for owner in sorted(interest[pattern])
        ]
    for pattern, owner in advertised:
        broker = network._brokers.get(owner)
        if broker is None or not broker._subs.has_local(pattern):
            stale.append(f"{pattern} advertised by {owner} with no local subscriber")
    if client_id is not None:
        for broker in network.brokers():
            for pattern, entry in sorted(broker._subs._by_pattern.items()):
                if client_id in entry.clients:
                    stale.append(
                        f"{pattern} on {broker.broker_id} still lists client {client_id}"
                    )
    return stale


# ----------------------------------------------------------------- snapshots


def _leaves(node, path: tuple = ()) -> Iterator[tuple[tuple, str]]:
    """Yield ``(path, rendered value)`` for every leaf under ``node``.

    Empty containers count as leaves so adding or dropping one is seen.
    """
    if isinstance(node, dict) and node:
        for key in sorted(node):
            yield from _leaves(node[key], (*path, key))
    elif isinstance(node, list) and node:
        for index, item in enumerate(node):
            yield from _leaves(item, (*path, index))
    else:
        yield path, json.dumps(node)


def _show(path: tuple) -> str:
    parts = [f"[{p}]" if isinstance(p, int) else f".{p}" for p in path]
    return "".join(parts).lstrip(".") or "<root>"


def snapshot_drift(live: dict, seed: dict) -> list[str]:
    """Leaf-level findings where ``live`` diverges from ``seed``.

    Empty exactly when the two canonical renderings are byte-identical;
    otherwise one finding per changed, added or missing leaf, each naming
    the leaf's path (``counters.broker.msgs.delivered``,
    ``results[3].metrics.delivered``).
    """
    # Round-trip through JSON first so in-memory tuples and non-string
    # keys compare the way their committed rendering does.
    live_leaves = dict(_leaves(json.loads(json.dumps(live))))
    seed_leaves = dict(_leaves(json.loads(json.dumps(seed))))
    findings: list[str] = []
    for path in sorted({*live_leaves, *seed_leaves}, key=_show):
        got, want = live_leaves.get(path), seed_leaves.get(path)
        if got == want:
            continue
        if want is None:
            findings.append(f"{_show(path)} added: {got} (not in seed)")
        elif got is None:
            findings.append(f"{_show(path)} missing: seed has {want}")
        else:
            findings.append(f"{_show(path)} drifted: {got} != seed {want}")
    return findings


# ------------------------------------------------------------------ matching


def index_patterns(index) -> list[str]:
    """Every live pattern of a ``SubscriptionIndex``, sorted."""
    return sorted(index._by_pattern)


def index_clients(index, pattern: str) -> list[str]:
    """Client ids subscribed to exactly ``pattern`` (any spelling), sorted."""
    entry = index._lookup(pattern)
    return sorted(entry.clients) if entry is not None else []


def trie_nodes(index) -> int:
    """Trie nodes allocated below the root; only wildcard patterns have any."""
    total, stack = 0, [index._trie]
    while stack:
        node = stack.pop()
        total += len(node.children)
        stack.extend(node.children.values())
    return total


def shard_count(index) -> int:
    """Distinct first segments over live patterns."""
    return len(index._shards)


def flushed_summary(plane, broker_id: str):
    """A broker's summary on a ``FederatedInterestPlane`` after a flush."""
    plane.flush()
    return plane._summaries.get(broker_id)
