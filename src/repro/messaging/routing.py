"""Routing-table computation for the broker graph.

Brokers forward messages toward interested peers along shortest paths.  The
fabric computes, for every broker, a next-hop table via breadth-first search
over the (undirected) broker adjacency graph.  Recomputed whenever topology
changes; O(B * (B + E)) which is fine at simulation scales.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Mapping

from repro.errors import RoutingError

NodeId = Hashable


def bfs_next_hops(
    adjacency: Mapping[NodeId, set[NodeId]], source: NodeId
) -> dict[NodeId, NodeId]:
    """Next-hop table from ``source`` to every reachable node.

    ``result[dest]`` is the neighbor of ``source`` on a shortest path to
    ``dest``.  Deterministic: neighbors are explored in sorted-repr order.
    """
    if source not in adjacency:
        raise RoutingError(f"unknown source node {source!r}")
    return _walk(_sorted_adjacency(adjacency), source)


def all_next_hops(
    adjacency: Mapping[NodeId, set[NodeId]]
) -> dict[NodeId, dict[NodeId, NodeId]]:
    """Next-hop tables for every node; each neighbor set is sorted once,
    not once per walk that visits it."""
    ordered = _sorted_adjacency(adjacency)
    return {node: _walk(ordered, node) for node in adjacency}


def _sorted_adjacency(
    adjacency: Mapping[NodeId, set[NodeId]]
) -> dict[NodeId, list[NodeId]]:
    return {node: sorted(neighbors, key=repr) for node, neighbors in adjacency.items()}


def _walk(
    ordered: Mapping[NodeId, list[NodeId]], source: NodeId
) -> dict[NodeId, NodeId]:
    """Breadth-first next hops from ``source`` over pre-sorted neighbors."""
    next_hop: dict[NodeId, NodeId] = {}
    visited = {source}
    queue: deque[tuple[NodeId, NodeId]] = deque()
    for neighbor in ordered[source]:
        visited.add(neighbor)
        next_hop[neighbor] = neighbor
        queue.append((neighbor, neighbor))
    while queue:
        node, first_hop = queue.popleft()
        for neighbor in ordered.get(node, ()):
            if neighbor not in visited:
                visited.add(neighbor)
                next_hop[neighbor] = first_hop
                queue.append((neighbor, first_hop))
    return next_hop


def hop_distance(
    adjacency: Mapping[NodeId, set[NodeId]], a: NodeId, b: NodeId
) -> int:
    """Shortest hop count between two brokers (0 if identical)."""
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
