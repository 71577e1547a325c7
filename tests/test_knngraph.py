"""Tests for network k-NN graphs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ParameterError
from repro.network.augmented import AugmentedView
from repro.network.distance import network_distance
from repro.network.graph import SpatialNetwork
from repro.network.knngraph import build_knn_graph, mutual_knn_edges
from repro.network.points import PointSet

from tests.strategies import clustering_instance


class TestBuildKnnGraph:
    def test_known_neighbors(self, small_network, small_points):
        # d(p0,p1)=1, d(p0,p2)=2.5, d(p0,p3)=5.5.
        graph = build_knn_graph(small_network, small_points, k=2)
        assert [pid for pid, _ in graph[0]] == [1, 2]
        assert graph[0][0][1] == pytest.approx(1.0)

    def test_every_point_has_entry(self, small_network, small_points):
        graph = build_knn_graph(small_network, small_points, k=1)
        assert set(graph) == set(small_points.point_ids())
        assert all(len(nbrs) == 1 for nbrs in graph.values())

    def test_k_capped_by_population(self, small_network, small_points):
        graph = build_knn_graph(small_network, small_points, k=10)
        assert all(len(nbrs) == 3 for nbrs in graph.values())

    def test_disconnected_component(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (3, 4, 1.0)])
        ps = PointSet(net)
        ps.add(1, 2, 0.3, point_id=0)
        ps.add(1, 2, 0.7, point_id=1)
        ps.add(3, 4, 0.5, point_id=2)
        graph = build_knn_graph(net, ps, k=2)
        assert [pid for pid, _ in graph[2]] == []
        assert [pid for pid, _ in graph[0]] == [1]

    def test_validation(self, small_network, small_points):
        with pytest.raises(ParameterError):
            build_knn_graph(small_network, small_points, k=0)


class TestMutualEdges:
    def test_mutual_pairs_only(self, small_network, small_points):
        graph = build_knn_graph(small_network, small_points, k=1)
        # NN pairs: 0->1, 1->0, 2->1, 3->2. Only (0,1) is mutual.
        mutual = mutual_knn_edges(graph)
        assert [(a, b) for a, b, _ in mutual] == [(0, 1)]

    def test_sorted_by_distance(self, small_network, small_points):
        graph = build_knn_graph(small_network, small_points, k=3)
        mutual = mutual_knn_edges(graph)
        dists = [d for _, _, d in mutual]
        assert dists == sorted(dists)

    def test_full_k_makes_everything_mutual(self, small_network, small_points):
        graph = build_knn_graph(small_network, small_points, k=3)
        mutual = mutual_knn_edges(graph)
        assert len(mutual) == 6  # all 4*3/2 pairs


@settings(max_examples=30, deadline=None)
@given(clustering_instance(min_points=3, max_points=9), st.integers(1, 3))
def test_property_knn_lists_are_true_nearest(data, k):
    net, points, seed = data
    aug = AugmentedView(net, points)
    graph = build_knn_graph(net, points, k=k)
    pts = list(points)
    for p in pts:
        brute = sorted(
            (network_distance(aug, p, q), q.point_id)
            for q in pts
            if q.point_id != p.point_id
            and _reachable(aug, p, q)
        )
        got = [d for _, d in graph[p.point_id]]
        want = [d for d, _ in brute[:k]]
        assert got == pytest.approx(want), f"seed={seed} pid={p.point_id}"


def _reachable(aug, p, q) -> bool:
    from repro.exceptions import UnreachableError

    try:
        network_distance(aug, p, q)
        return True
    except UnreachableError:
        return False
