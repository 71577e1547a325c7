"""Tests for the Section 3.2 object-graph transformation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

from repro.exceptions import ParameterError
from repro.network.augmented import AugmentedView
from repro.network.distance import network_distance
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet
from repro.network.transform import object_graph, transformation_blowup

from tests.strategies import clustering_instance


class TestSimpleChains:
    def test_chain_on_one_edge(self):
        """Consecutive points connect; non-consecutive are blocked."""
        net = SpatialNetwork.from_edge_list([(1, 2, 10.0)])
        ps = PointSet(net)
        for i, off in enumerate((1.0, 4.0, 8.0)):
            ps.add(1, 2, off, point_id=i)
        edges = object_graph(net, ps)
        assert edges == pytest.approx({(0, 1): 3.0, (1, 2): 4.0})

    def test_two_points_weight_is_network_distance(self, small_network):
        ps = PointSet(small_network)
        a = ps.add(1, 2, 0.5, point_id=0)
        b = ps.add(4, 5, 1.0, point_id=1)
        edges = object_graph(small_network, ps)
        aug = AugmentedView(small_network, ps)
        assert edges[(0, 1)] == pytest.approx(network_distance(aug, a, b))

    def test_empty_rejected(self, small_network):
        with pytest.raises(ParameterError):
            object_graph(small_network, PointSet(small_network))


class TestFigure2bRingToClique:
    """The paper's example: objects hanging off a ring see each other
    pairwise without intermediaries -> G' is a clique."""

    @pytest.fixture
    def ring_with_pendants(self):
        k = 6
        net = SpatialNetwork(name="ring")
        for i in range(k):
            net.add_edge(i, (i + 1) % k, 1.0)  # the ring
            net.add_edge(i, 100 + i, 1.0)  # a pendant spoke per ring node
        ps = PointSet(net)
        for i in range(k):
            ps.add(i, 100 + i, 0.5, point_id=i)  # one object per spoke
        return net, ps, k

    def test_clique(self, ring_with_pendants):
        net, ps, k = ring_with_pendants
        edges = object_graph(net, ps)
        assert len(edges) == k * (k - 1) // 2  # the full clique

    def test_clique_weights_are_exact_distances(self, ring_with_pendants):
        net, ps, k = ring_with_pendants
        edges = object_graph(net, ps)
        aug = AugmentedView(net, ps)
        for (a, b), w in edges.items():
            assert w == pytest.approx(
                network_distance(aug, ps.get(a), ps.get(b))
            )

    def test_blowup_metrics(self, ring_with_pendants):
        net, ps, k = ring_with_pendants
        stats = transformation_blowup(net, ps)
        assert stats["clique_fraction"] == pytest.approx(1.0)
        # G' is denser than the (planar) original: the paper's complaint.
        assert stats["transformed_density"] > stats["original_density"]


class TestBlockedPaths:
    def test_blocking_point_cuts_the_edge(self):
        """A point strictly between two others blocks their G' edge even
        when a longer detour exists."""
        net = SpatialNetwork.from_edge_list(
            [(1, 2, 10.0), (1, 3, 20.0), (2, 3, 20.0)]
        )
        ps = PointSet(net)
        ps.add(1, 2, 1.0, point_id=0)
        ps.add(1, 2, 5.0, point_id=1)  # blocks the direct edge
        ps.add(1, 2, 9.0, point_id=2)
        edges = object_graph(net, ps)
        # 0-2 connect around the triangle (1 + 20 + 20 + 1 = 42), not via p1.
        assert (0, 2) in edges
        assert edges[(0, 2)] == pytest.approx(42.0)
        assert edges[(0, 1)] == pytest.approx(4.0)

    def test_disconnected_objects_no_edge(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (3, 4, 1.0)])
        ps = PointSet(net)
        ps.add(1, 2, 0.5, point_id=0)
        ps.add(3, 4, 0.5, point_id=1)
        assert object_graph(net, ps) == {}


@settings(max_examples=30, deadline=None)
@given(clustering_instance(min_points=2, max_points=8))
def test_property_edge_weights_bound_distances(data):
    """Every G' edge weight is a genuine object-free path length: at least
    the network distance, and the *minimum* over neighbours of (d(p,r) +
    w(r,q)) can never undercut d(p,q)'s triangle bound."""
    net, points, seed = data
    edges = object_graph(net, points)
    aug = AugmentedView(net, points)
    for (a, b), w in edges.items():
        exact = network_distance(aug, points.get(a), points.get(b))
        assert w >= exact - 1e-9, f"seed={seed}"
        assert math.isfinite(w)


@settings(max_examples=25, deadline=None)
@given(clustering_instance(min_points=2, max_points=7))
def test_property_shortest_paths_preserved_in_gprime(data):
    """G' preserves all object-to-object shortest distances: the paper's
    premise that clustering *could* run on G' (before rejecting it on cost
    grounds).  Dijkstra over G' == network distance for reachable pairs."""
    import heapq

    net, points, seed = data
    gprime = object_graph(net, points)
    adj: dict[int, list[tuple[int, float]]] = {}
    for (a, b), w in gprime.items():
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    aug = AugmentedView(net, points)
    ids = sorted(points.point_ids())
    source = ids[0]
    dist = {source: 0.0}
    heap = [(0.0, source)]
    seen = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    for pid in ids[1:]:
        try:
            exact = network_distance(aug, points.get(source), points.get(pid))
        except Exception:
            assert pid not in dist
            continue
        assert dist.get(pid) == pytest.approx(exact, rel=1e-9, abs=1e-9), (
            f"seed={seed} pid={pid}"
        )
