"""Tests for the Euclidean-bounded (A*) shortest-path search."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import UnreachableError
from repro.network.astar import node_distance_astar, point_distance_astar
from repro.network.augmented import AugmentedView
from repro.network.dijkstra import node_distance
from repro.network.distance import network_distance
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet


def euclidean_weighted_network(rng: random.Random, side: int) -> SpatialNetwork:
    """A jittered grid whose weights are the Euclidean node distances —
    the admissibility precondition for the A* heuristic."""
    net = SpatialNetwork(name="astar-grid")

    def nid(i, j):
        return i * side + j

    for i in range(side):
        for j in range(side):
            net.add_node(
                nid(i, j),
                x=i + rng.uniform(-0.2, 0.2),
                y=j + rng.uniform(-0.2, 0.2),
            )
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                net.add_edge(nid(i, j), nid(i + 1, j))  # Euclidean weight
            if j + 1 < side:
                net.add_edge(nid(i, j), nid(i, j + 1))
    return net


class TestNodeAstar:
    def test_same_node(self, grid_network):
        assert node_distance_astar(grid_network, 3, 3) == (0.0, 0)

    def test_matches_dijkstra(self):
        rng = random.Random(2)
        net = euclidean_weighted_network(rng, 8)
        nodes = sorted(net.nodes())
        for _ in range(30):
            a, b = rng.sample(nodes, 2)
            d_astar, _ = node_distance_astar(net, a, b)
            assert d_astar == pytest.approx(node_distance(net, a, b))

    def test_settles_fewer_vertices_than_dijkstra(self):
        """The point of the Euclidean bound: directed search touches less
        of the network."""
        rng = random.Random(3)
        net = euclidean_weighted_network(rng, 14)
        from repro.network.dijkstra import single_source

        # Corner to the adjacent corner: Dijkstra floods in all directions.
        source, target = 0, 13  # (0,0) -> (0,13)
        _, settled_astar = node_distance_astar(net, source, target)
        settled_dijkstra = len(single_source(net, source, targets=(target,)))
        assert settled_astar < settled_dijkstra

    def test_no_coords_falls_back_to_dijkstra(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (2, 3, 1.0)])
        d, _ = node_distance_astar(net, 1, 3)
        assert d == pytest.approx(2.0)

    def test_unreachable(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (3, 4, 1.0)])
        with pytest.raises(UnreachableError):
            node_distance_astar(net, 1, 3)


class TestPointAstar:
    def test_matches_augmented_dijkstra(self):
        rng = random.Random(4)
        net = euclidean_weighted_network(rng, 7)
        edges = list(net.edges())
        ps = PointSet(net)
        for _ in range(12):
            u, v, w = edges[rng.randrange(len(edges))]
            ps.add(u, v, rng.uniform(0, w))
        aug = AugmentedView(net, ps)
        pts = list(ps)
        for _ in range(20):
            p, q = rng.sample(pts, 2)
            d_astar, _ = point_distance_astar(aug, p, q)
            assert d_astar == pytest.approx(network_distance(aug, p, q))

    def test_same_point(self, small_network, small_points):
        aug = AugmentedView(small_network, small_points)
        p = small_points.get(0)
        assert point_distance_astar(aug, p, p) == (0.0, 0)

    def test_unreachable(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (3, 4, 1.0)])
        ps = PointSet(net)
        a = ps.add(1, 2, 0.5)
        b = ps.add(3, 4, 0.5)
        aug = AugmentedView(net, ps)
        with pytest.raises(UnreachableError):
            point_distance_astar(aug, a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=3, max_value=7))
def test_property_astar_exact_on_euclidean_weights(seed, side):
    rng = random.Random(seed)
    net = euclidean_weighted_network(rng, side)
    nodes = sorted(net.nodes())
    a, b = rng.sample(nodes, 2)
    d_astar, _ = node_distance_astar(net, a, b)
    assert d_astar == pytest.approx(node_distance(net, a, b), rel=1e-9)
