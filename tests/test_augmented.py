"""Unit tests for the point-augmented network view."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import StaleBackendError
from repro.network.augmented import (
    AugmentedView,
    NODE,
    POINT,
    node_vertex,
    point_vertex,
)
from repro.network.csr import CSRNetwork
from repro.network.points import PointSet
from repro.storage.netstore import NetworkStore
from tests.conftest import make_random_connected_network, scatter_points


@pytest.fixture
def aug(small_network, small_points):
    return AugmentedView(small_network, small_points)


class TestVertexEncoding:
    def test_distinct_kinds(self):
        assert node_vertex(3) == (NODE, 3)
        assert point_vertex(3) == (POINT, 3)
        assert node_vertex(3) != point_vertex(3)

    def test_orderable(self):
        # Vertices act as heap tie-breakers, so they must compare.
        assert sorted([point_vertex(1), node_vertex(2), node_vertex(1)]) == [
            node_vertex(1),
            node_vertex(2),
            point_vertex(1),
        ]


class TestNodeNeighbors:
    def test_empty_edge_yields_node(self, aug):
        # Edge (3,5) has no points: node 3's neighbour along it is node 5.
        nbrs = dict(aug.neighbors(node_vertex(3)))
        assert nbrs[node_vertex(5)] == pytest.approx(1.0)

    def test_populated_edge_yields_first_point(self, aug):
        # Edge (1,2) has p0@0.5 and p1@1.5; from node 1 the first is p0.
        nbrs = dict(aug.neighbors(node_vertex(1)))
        assert nbrs[point_vertex(0)] == pytest.approx(0.5)
        assert node_vertex(2) not in nbrs

    def test_populated_edge_reverse_direction(self, aug):
        # From node 2, the nearest point on (1,2) is p1 at distance 0.5.
        nbrs = dict(aug.neighbors(node_vertex(2)))
        assert nbrs[point_vertex(1)] == pytest.approx(0.5)
        # And the nearest on (2,3) is p2 at distance 1.0.
        assert nbrs[point_vertex(2)] == pytest.approx(1.0)

    def test_degree_preserved(self, aug, small_network):
        for node in small_network.nodes():
            assert len(list(aug.neighbors(node_vertex(node)))) == small_network.degree(node)


class TestPointNeighbors:
    def test_interior_point(self, aug):
        # p0 on (1,2)@0.5: neighbours are node 1 (0.5) and p1 (1.0).
        nbrs = dict(aug.neighbors(point_vertex(0)))
        assert nbrs == {
            node_vertex(1): pytest.approx(0.5),
            point_vertex(1): pytest.approx(1.0),
        }

    def test_last_point_reaches_far_node(self, aug):
        # p1 on (1,2)@1.5: neighbours are p0 (1.0) and node 2 (0.5).
        nbrs = dict(aug.neighbors(point_vertex(1)))
        assert nbrs == {
            point_vertex(0): pytest.approx(1.0),
            node_vertex(2): pytest.approx(0.5),
        }

    def test_sole_point_on_edge(self, aug):
        # p3 on (4,5)@1.0 with weight 2: both endpoints at 1.0.
        nbrs = dict(aug.neighbors(point_vertex(3)))
        assert nbrs == {
            node_vertex(4): pytest.approx(1.0),
            node_vertex(5): pytest.approx(1.0),
        }

    def test_segment_lengths_sum_to_edge_weight(self, aug, small_network, small_points):
        # Walking edge (1,2) node->p0->p1->node sums to the edge weight.
        total = 0.5 + 1.0 + 0.5
        assert total == pytest.approx(small_network.edge_weight(1, 2))


class TestManyPointsOnOneEdge:
    def test_chain_ordering(self, small_network):
        ps = PointSet(small_network)
        offsets = [0.2, 0.4, 0.9, 1.3, 1.9]
        for off in offsets:
            ps.add(1, 2, off)
        aug = AugmentedView(small_network, ps)
        # Walk the chain from node 1 to node 2 following augmented edges.
        walk = [node_vertex(1)]
        seen = {node_vertex(1)}
        while walk[-1] != node_vertex(2):
            candidates = [v for v, _ in aug.neighbors(walk[-1]) if v not in seen]
            # Restrict to vertices on this edge (points 0..4 or node 2).
            candidates = [
                v for v in candidates if v[0] == POINT or v == node_vertex(2)
            ]
            nxt = candidates[0]
            walk.append(nxt)
            seen.add(nxt)
        assert [v for v in walk if v[0] == POINT] == [point_vertex(i) for i in range(5)]

    def test_invalidate_after_mutation(self, small_network):
        ps = PointSet(small_network)
        a = ps.add(1, 2, 0.5)
        aug = AugmentedView(small_network, ps)
        list(aug.neighbors(point_vertex(a.point_id)))  # warm the cache
        b = ps.add(1, 2, 0.2)
        aug.invalidate()
        nbrs = dict(aug.neighbors(point_vertex(a.point_id)))
        assert point_vertex(b.point_id) in nbrs


# ---------------------------------------------------------------------------
# The adjacency memo: parity with a row rebuilt from scratch, and staleness
# ---------------------------------------------------------------------------


def _reference_row(network, points, vertex):
    """``vertex``'s row rebuilt from ``points_on_edge`` and ``edge_weight``
    with the same float expressions the view uses."""
    kind, ident = vertex
    if kind == NODE:
        row = []
        for nbr, weight in network.neighbors(ident):
            pts = points.points_on_edge(ident, nbr)
            if not pts:
                row.append((node_vertex(nbr), weight))
            elif ident < nbr:
                row.append((point_vertex(pts[0].point_id), pts[0].offset))
            else:
                row.append((point_vertex(pts[-1].point_id), weight - pts[-1].offset))
        return row
    point = points.get(ident)
    group = points.points_on_edge(point.u, point.v)
    idx = [p.point_id for p in group].index(ident)
    weight = network.edge_weight(point.u, point.v)
    if idx > 0:
        prev = group[idx - 1]
        left = (point_vertex(prev.point_id), point.offset - prev.offset)
    else:
        left = (node_vertex(point.u), point.offset)
    if idx + 1 < len(group):
        nxt = group[idx + 1]
        right = (point_vertex(nxt.point_id), nxt.offset - point.offset)
    else:
        right = (node_vertex(point.v), weight - point.offset)
    return [left, right]


def _hexed(row):
    return [(vertex, float.hex(seg)) for vertex, seg in row]


def _parity_instance():
    rng = random.Random(13)
    net = make_random_connected_network(rng, 40, extra_edges=25)
    # Crowd one edge, a tie and both ends included, so a long group is
    # walked.
    points = scatter_points(rng, net, 60)
    u, v, w = next(iter(net.edges()))
    for off in (0.0, w / 3, w / 3, w):
        points.add(u, v, off)
    return net, points


class TestMemoParity:
    @pytest.mark.parametrize("backend", ["dict", "csr", "store"])
    def test_rows_match_reference(self, backend, tmp_path):
        net, points = _parity_instance()
        if backend == "store":
            store = NetworkStore.build(tmp_path / "parity.db", net, points)
            network, view_points = store, store.points()
        else:
            store = None
            network = CSRNetwork.freeze(net) if backend == "csr" else net
            view_points = points
        try:
            vertices = [node_vertex(n) for n in network.nodes()] + [
                point_vertex(p.point_id) for p in view_points
            ]
            # Two visit orders: a point row first builds its whole edge
            # group, a node row first builds only itself.
            for order in (vertices, vertices[::-1]):
                aug = AugmentedView(network, view_points)
                for vertex in order:
                    got = aug.neighbors(vertex)
                    assert isinstance(got, tuple)
                    assert _hexed(got) == _hexed(
                        _reference_row(network, view_points, vertex)
                    )
                    # A second read is served from the memo, unchanged.
                    assert aug.neighbors(vertex) is got
        finally:
            if store is not None:
                store.close()


class TestMemoStaleness:
    def _warm(self, aug, net, points):
        for node in net.nodes():
            aug.neighbors(node_vertex(node))
        for p in points:
            aug.neighbors(point_vertex(p.point_id))

    def test_point_insert_and_remove_seen_without_invalidate(self, small_network):
        points = PointSet(small_network)
        a = points.add(1, 2, 0.5)
        aug = AugmentedView(small_network, points)
        calls = []
        aug.add_invalidation_hook(lambda ids, reweigh: calls.append((ids, reweigh)))
        self._warm(aug, small_network, points)
        b = points.add(1, 2, 0.2)
        # Node 1's nearest object on (1, 2) is now b, and b sits between
        # node 1 and a.
        assert dict(aug.neighbors(node_vertex(1)))[
            point_vertex(b.point_id)
        ] == 0.2
        assert aug.neighbors(point_vertex(a.point_id))[0] == (
            point_vertex(b.point_id), 0.5 - 0.2
        )
        assert calls == [(None, False)]
        points.remove(b.point_id)
        assert dict(aug.neighbors(node_vertex(1)))[
            point_vertex(a.point_id)
        ] == 0.5
        assert aug.neighbors(point_vertex(a.point_id))[0] == (node_vertex(1), 0.5)
        assert calls == [(None, False), (None, False)]

    def test_dict_reweigh_seen_without_invalidate(self, small_network, small_points):
        aug = AugmentedView(small_network, small_points)
        calls = []
        aug.add_invalidation_hook(lambda ids, reweigh: calls.append((ids, reweigh)))
        self._warm(aug, small_network, small_points)
        # (3, 5) carries no points; (4, 5) carries p3 at 1.0.
        small_network.add_edge(3, 5, 4.0)
        small_network.add_edge(4, 5, 3.0)
        assert dict(aug.neighbors(node_vertex(3)))[node_vertex(5)] == 4.0
        assert dict(aug.neighbors(point_vertex(3)))[node_vertex(5)] == 2.0
        assert calls == [(None, True)]
        for node in small_network.nodes():
            vertex = node_vertex(node)
            assert _hexed(aug.neighbors(vertex)) == _hexed(
                _reference_row(small_network, small_points, vertex)
            )

    def test_warm_view_over_stale_csr_raises(self, small_network, small_points):
        csr = CSRNetwork.freeze(small_network)
        aug = AugmentedView(csr, small_points)
        self._warm(aug, small_network, small_points)
        small_network.add_edge(3, 5, 4.0)
        with pytest.raises(StaleBackendError):
            aug.neighbors(node_vertex(3))
        with pytest.raises(StaleBackendError):
            aug.neighbors(point_vertex(0))
