"""Tests for broker-graph routing tables."""

import pytest

from repro.errors import RoutingError
from repro.messaging.routing import all_next_hops
from tests.support import bfs_next_hops, hop_distance

CHAIN = {"a": {"b"}, "b": {"a", "c"}, "c": {"b", "d"}, "d": {"c"}}
STAR = {"hub": {"s1", "s2", "s3"}, "s1": {"hub"}, "s2": {"hub"}, "s3": {"hub"}}
RING = {"a": {"b", "d"}, "b": {"a", "c"}, "c": {"b", "d"}, "d": {"c", "a"}}


class TestNextHops:
    def test_chain(self):
        table = bfs_next_hops(CHAIN, "a")
        assert table == {"b": "b", "c": "b", "d": "b"}

    def test_star_from_spoke(self):
        table = bfs_next_hops(STAR, "s1")
        assert table["s2"] == "hub"
        assert table["s3"] == "hub"
        assert table["hub"] == "hub"

    def test_ring_prefers_shortest(self):
        table = bfs_next_hops(RING, "a")
        assert table["b"] == "b"
        assert table["d"] == "d"
        # c is equidistant; either neighbor is valid but choice is stable
        assert table["c"] in ("b", "d")
        assert bfs_next_hops(RING, "a")["c"] == table["c"]

    def test_unknown_source(self):
        with pytest.raises(RoutingError):
            bfs_next_hops(CHAIN, "zz")

    def test_disconnected_nodes_absent(self):
        graph = {"a": {"b"}, "b": {"a"}, "island": set()}
        table = bfs_next_hops(graph, "a")
        assert "island" not in table

    def test_all_next_hops(self):
        tables = all_next_hops(CHAIN)
        assert set(tables) == set(CHAIN)
        assert tables["d"]["a"] == "c"


class TestHopDistance:
    def test_chain_distances(self):
        assert hop_distance(CHAIN, "a", "a") == 0
        assert hop_distance(CHAIN, "a", "b") == 1
        assert hop_distance(CHAIN, "a", "d") == 3

    def test_ring_shortcut(self):
        assert hop_distance(RING, "a", "c") == 2

    def test_no_path(self):
        graph = {"a": set(), "b": set()}
        with pytest.raises(RoutingError):
            hop_distance(graph, "a", "b")

    def test_unknown_node(self):
        with pytest.raises(RoutingError):
            hop_distance(CHAIN, "zz", "a")


class TestRouteConsistency:
    def test_following_next_hops_reaches_destination(self):
        """Walking next-hop tables from any source reaches any dest."""
        for graph in (CHAIN, STAR, RING):
            tables = all_next_hops(graph)
            for src in graph:
                for dst in graph:
                    if src == dst:
                        continue
                    node, steps = src, 0
                    while node != dst:
                        node = tables[node][dst]
                        steps += 1
                        assert steps <= len(graph), "routing loop"
                    assert steps == hop_distance(graph, src, dst)
