"""Property-based routing tests over random graphs."""

from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.messaging.routing import all_next_hops
from tests.support import bfs_next_hops, hop_distance


@st.composite
def connected_graphs(draw):
    """A random connected undirected graph as an adjacency dict."""
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.floats(min_value=0.2, max_value=0.9))
    graph = nx.gnp_random_graph(n, p, seed=seed)
    # force connectivity by chaining components
    components = [list(c) for c in nx.connected_components(graph)]
    for a, b in zip(components, components[1:], strict=False):
        graph.add_edge(a[0], b[0])
    return {node: set(graph.neighbors(node)) for node in graph.nodes}


class TestRoutingProperties:
    @given(connected_graphs())
    @settings(max_examples=50, deadline=None)
    def test_walk_reaches_destination_in_shortest_hops(self, adjacency):
        tables = all_next_hops(adjacency)
        nodes = sorted(adjacency)
        for src in nodes:
            for dst in nodes:
                if src == dst:
                    continue
                node, steps = src, 0
                while node != dst:
                    node = tables[node][dst]
                    steps += 1
                    assert steps <= len(nodes), "routing loop"
                assert steps == hop_distance(adjacency, src, dst)

    @given(connected_graphs())
    @settings(max_examples=50, deadline=None)
    def test_next_hop_is_a_neighbor(self, adjacency):
        for src in adjacency:
            table = bfs_next_hops(adjacency, src)
            for dst, hop in table.items():
                assert hop in adjacency[src]

    @given(connected_graphs())
    @settings(max_examples=50, deadline=None)
    def test_distance_symmetric(self, adjacency):
        nodes = sorted(adjacency)
        for src in nodes[:4]:
            for dst in nodes[:4]:
                assert hop_distance(adjacency, src, dst) == hop_distance(
                    adjacency, dst, src
                )

    @given(connected_graphs())
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, adjacency):
        nodes = sorted(adjacency)[:5]
        for a in nodes:
            for b in nodes:
                for c in nodes:
                    assert hop_distance(adjacency, a, c) <= hop_distance(
                        adjacency, a, b
                    ) + hop_distance(adjacency, b, c)


@st.composite
def any_graphs(draw):
    """A random undirected graph, connected or not: several components and
    isolated nodes included; nodes are ints, whose repr order is not their
    numeric order past 9, so ties break differently under each."""
    n = draw(st.integers(min_value=1, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.floats(min_value=0.0, max_value=0.6))
    graph = nx.gnp_random_graph(n, p, seed=seed)
    if draw(st.booleans()):
        components = [list(c) for c in nx.connected_components(graph)]
        for a, b in zip(components, components[1:], strict=False):
            graph.add_edge(a[0], b[0])
    return {node: set(graph.neighbors(node)) for node in graph.nodes}


def reference_next_hops(adjacency, source):
    """The walk as it was before all_next_hops sorted each neighbor set
    once: every visited node's neighbors sorted by repr on each visit."""
    next_hop = {}
    visited = {source}
    queue = deque()
    for neighbor in sorted(adjacency[source], key=repr):
        visited.add(neighbor)
        next_hop[neighbor] = neighbor
        queue.append((neighbor, neighbor))
    while queue:
        node, first_hop = queue.popleft()
        for neighbor in sorted(adjacency.get(node, ()), key=repr):
            if neighbor not in visited:
                visited.add(neighbor)
                next_hop[neighbor] = first_hop
                queue.append((neighbor, first_hop))
    return next_hop


def _route_tables_oracle(examples: int):
    @settings(max_examples=examples, deadline=None)
    @given(st.one_of(connected_graphs(), any_graphs()))
    def test(adjacency):
        tables = all_next_hops(adjacency)
        # the same tie-breaking next hop, not only the same path length
        assert tables == {node: bfs_next_hops(adjacency, node) for node in adjacency}
        assert tables == {node: reference_next_hops(adjacency, node) for node in adjacency}

    return test


test_all_next_hops_is_bfs_next_hops_per_node = _route_tables_oracle(200)
#: the deep budget (``-m deep``; CI's "Deep example budgets" step)
test_all_next_hops_is_bfs_next_hops_per_node_deep = pytest.mark.deep(_route_tables_oracle(5_000))
