"""Tests for network range and kNN queries, validated against brute force."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.augmented import AugmentedView
from repro.network.csr import CSRNetwork
from repro.network.distance import network_distance
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet
from repro.network.queries import _group_scan, knn_query, nearest_point, range_query
from repro.storage import NetworkStore

from tests.conftest import (
    make_grid_network,
    make_random_connected_network,
    scatter_points,
)


@pytest.fixture
def aug(small_network, small_points):
    return AugmentedView(small_network, small_points)


class TestRangeQuery:
    def test_known_ranges(self, aug, small_points):
        # Distances from p0: p1=1.0, p2=2.5, p3=5.5.
        q = small_points.get(0)
        got = range_query(aug, q, eps=2.5)
        ids = [p.point_id for p, _ in got]
        assert ids == [0, 1, 2]
        dists = dict((p.point_id, d) for p, d in got)
        assert dists[1] == pytest.approx(1.0)
        assert dists[2] == pytest.approx(2.5)

    def test_exclude_query(self, aug, small_points):
        got = range_query(aug, small_points.get(0), eps=2.5, include_query=False)
        assert [p.point_id for p, _ in got] == [1, 2]

    def test_zero_eps_only_query(self, aug, small_points):
        got = range_query(aug, small_points.get(0), eps=0.0)
        assert [p.point_id for p, _ in got] == [0]

    def test_negative_eps_empty(self, aug, small_points):
        assert range_query(aug, small_points.get(0), eps=-1.0) == []

    def test_sorted_by_distance(self, aug, small_points):
        got = range_query(aug, small_points.get(0), eps=10.0)
        dists = [d for _, d in got]
        assert dists == sorted(dists)
        assert len(got) == 4


class TestKnnQuery:
    def test_known_neighbors(self, aug, small_points):
        got = knn_query(aug, small_points.get(0), k=2)
        assert [p.point_id for p, _ in got] == [1, 2]

    def test_k_zero(self, aug, small_points):
        assert knn_query(aug, small_points.get(0), k=0) == []

    def test_k_exceeds_population(self, aug, small_points):
        got = knn_query(aug, small_points.get(0), k=10)
        assert len(got) == 3  # all other points

    def test_include_query(self, aug, small_points):
        got = knn_query(aug, small_points.get(0), k=1, include_query=True)
        assert got[0][0].point_id == 0
        assert got[0][1] == 0.0

    def test_nearest_point(self, aug, small_points):
        hit = nearest_point(aug, small_points.get(0))
        assert hit is not None
        assert hit[0].point_id == 1

    def test_nearest_point_alone(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0)])
        ps = PointSet(net)
        p = ps.add(1, 2, 0.5)
        aug = AugmentedView(net, ps)
        assert nearest_point(aug, p) is None


# ---------------------------------------------------------------------------
# Result order: (distance, point id) on every backend
# ---------------------------------------------------------------------------


def _tied_grid():
    """A unit grid whose objects sit at offsets 0, 0.5 and 1, several of
    them coincident: every distance is a multiple of 0.5, so nearly every
    answer has ties, some joined by zero-length segments."""
    net = make_grid_network(4, 4)
    rng = random.Random(11)
    edges = list(net.edges())
    points = PointSet(net)
    for _ in range(30):
        u, v, _w = edges[rng.randrange(len(edges))]
        points.add(u, v, rng.choice((0.0, 0.5, 1.0)))
    return net, points


def _random_instance(seed):
    rng = random.Random(seed)
    net = make_random_connected_network(rng, 12, extra_edges=6)
    return net, scatter_points(rng, net, 25)


def _views(net, points, backend, tmp_path, request):
    """``(aug, points)`` of one instance on ``backend``."""
    if backend == "csr":
        return AugmentedView(CSRNetwork.freeze(net), points), points
    if backend == "store":
        store = NetworkStore.build(str(tmp_path / "q.db"), net, points)
        request.addfinalizer(store.close)
        store_points = store.points()
        return AugmentedView(store, store_points), store_points
    return AugmentedView(net, points), points


def _ordered(hits):
    keys = [(d, p.point_id) for p, d in hits]
    return keys == sorted(keys)


@pytest.mark.parametrize("backend", ["dict", "csr", "store"])
@pytest.mark.parametrize("instance", ["tied-grid", "random-1", "random-2"])
def test_search_results_sorted_by_distance_then_id(
    backend, instance, tmp_path, request
):
    if instance == "tied-grid":
        net, points = _tied_grid()
    else:
        net, points = _random_instance(int(instance[-1]))
    aug, pts = _views(net, points, backend, tmp_path, request)
    for query in list(pts):
        for include_query in (True, False):
            for eps in (0.0, 0.5, 1.5, 4.0):
                hits, _, _ = _group_scan(aug, query, include_query, cutoff=eps)
                assert _ordered(hits)
                assert hits == range_query(aug, query, eps, include_query)
            for k in (1, 3, 8):
                hits, _, _ = _group_scan(aug, query, include_query, k=k)
                assert _ordered(hits)
                assert hits == knn_query(aug, query, k, include_query)


def test_coincident_points_reached_from_larger_endpoint_sorted_by_id(
    tmp_path, request
):
    # Objects 1 and 2 share a position; walking in from node 2 reaches
    # object 2 first and object 1 over a zero-length segment, so they
    # settle in descending id order: the answer must be re-sorted, and a
    # kNN cut at the tie must keep the smaller id.
    net = SpatialNetwork.from_edge_list([(1, 2, 2.0), (2, 3, 3.0)])
    points = PointSet(net)
    points.add(2, 3, 1.0)
    points.add(1, 2, 0.5)
    points.add(1, 2, 0.5)
    for backend in ("dict", "csr", "store"):
        aug, pts = _views(net, points, backend, tmp_path, request)
        query = pts.get(0)
        got = range_query(aug, query, 10.0, include_query=False)
        assert [(p.point_id, d) for p, d in got] == [(1, 2.5), (2, 2.5)]
        got = knn_query(aug, query, 2)
        assert [(p.point_id, d) for p, d in got] == [(1, 2.5), (2, 2.5)]
        got = knn_query(aug, query, 1)
        assert [(p.point_id, d) for p, d in got] == [(1, 2.5)]


# ---------------------------------------------------------------------------
# Property tests against brute force
# ---------------------------------------------------------------------------

@st.composite
def query_instance(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    n_nodes = draw(st.integers(min_value=3, max_value=12))
    net = make_random_connected_network(rng, n_nodes, extra_edges=draw(st.integers(0, 6)))
    points = scatter_points(rng, net, draw(st.integers(min_value=3, max_value=10)))
    eps = draw(st.floats(min_value=0.1, max_value=30.0, allow_nan=False))
    k = draw(st.integers(min_value=1, max_value=5))
    return net, points, eps, k


@settings(max_examples=50, deadline=None)
@given(query_instance())
def test_property_range_query_matches_bruteforce(instance):
    net, points, eps, _ = instance
    aug = AugmentedView(net, points)
    pts = list(points)
    query = pts[0]
    got = {p.point_id for p, _ in range_query(aug, query, eps)}
    want = {
        p.point_id
        for p in pts
        if network_distance(aug, query, p) <= eps + 1e-12
    }
    assert got == want


@settings(max_examples=50, deadline=None)
@given(query_instance())
def test_property_knn_matches_bruteforce(instance):
    net, points, _, k = instance
    aug = AugmentedView(net, points)
    pts = list(points)
    query = pts[0]
    got = knn_query(aug, query, k)
    brute = sorted(
        (network_distance(aug, query, p), p.point_id)
        for p in pts
        if p.point_id != query.point_id
    )
    want_dists = [d for d, _ in brute[:k]]
    got_dists = [d for _, d in got]
    assert got_dists == pytest.approx(want_dists)
