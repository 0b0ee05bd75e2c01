"""Routing-table computation for the broker graph.

Brokers forward messages toward interested peers along shortest paths.  The
fabric computes, for every broker, a next-hop table via breadth-first search
over the (undirected) broker adjacency graph.  Recomputed whenever topology
changes; O(B * (B + E)) which is fine at simulation scales.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Mapping

NodeId = Hashable


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
