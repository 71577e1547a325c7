"""Tests for Single-Link and its dendrogram.

Oracles: agglomerative single-link on the exact distance matrix (invariant
7a) and ε-Link for distance cuts (invariant 7b — the paper's Section 5.1
observation that Single-Link stopped at ε reproduces ε-Link exactly).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.classic import matrix_single_link
from repro.baselines.matrix import DistanceMatrix
from repro.core.epslink import EpsLink
from repro.core.singlelink import SingleLink
from repro.exceptions import ParameterError
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet

from tests.strategies import clustering_instance


class TestValidation:
    def test_bad_delta(self, small_network, small_points):
        with pytest.raises(ParameterError):
            SingleLink(small_network, small_points, delta=-1.0)

    def test_bad_stop_k(self, small_network, small_points):
        with pytest.raises(ParameterError):
            SingleLink(small_network, small_points, stop_k=0)

    def test_both_stops_rejected(self, small_network, small_points):
        with pytest.raises(ParameterError):
            SingleLink(small_network, small_points, stop_k=2, stop_distance=1.0)


class TestSmallNetwork:
    """Fixture distances: d(p0,p1)=1, d(p1,p2)=1.5, d(p0,p2)=2.5,
    d(p2,p3)=4, d(p0,p3)=5.5, d(p1,p3)=5.5.
    Single-link merges: (p0,p1)@1, (+p2)@1.5, (+p3)@4."""

    def test_merge_distances(self, small_network, small_points):
        dendrogram = SingleLink(small_network, small_points).build_dendrogram()
        assert dendrogram.merge_distances() == pytest.approx([1.0, 1.5, 4.0])
        assert dendrogram.num_leaves == 4
        assert dendrogram.num_roots == 1

    def test_cut_k(self, small_network, small_points):
        dendrogram = SingleLink(small_network, small_points).build_dendrogram()
        assert dendrogram.cut_k(2).as_partition() == {
            frozenset({0, 1, 2}),
            frozenset({3}),
        }
        assert dendrogram.cut_k(4).as_partition() == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        }
        assert dendrogram.cut_k(1).num_clusters == 1

    def test_cut_distance(self, small_network, small_points):
        dendrogram = SingleLink(small_network, small_points).build_dendrogram()
        assert dendrogram.cut_distance(1.2).as_partition() == {
            frozenset({0, 1}),
            frozenset({2}),
            frozenset({3}),
        }
        # A cut exactly at a merge distance applies that merge.
        assert dendrogram.cut_distance(1.5).as_partition() == {
            frozenset({0, 1, 2}),
            frozenset({3}),
        }

    def test_run_with_stop_k(self, small_network, small_points):
        result = SingleLink(small_network, small_points, stop_k=2).run()
        assert result.num_clusters == 2

    def test_run_with_stop_distance(self, small_network, small_points):
        result = SingleLink(small_network, small_points, stop_distance=2.0).run()
        assert result.as_partition() == {frozenset({0, 1, 2}), frozenset({3})}

    def test_run_default_merges_all(self, small_network, small_points):
        result = SingleLink(small_network, small_points).run()
        assert result.num_clusters == 1


class TestDeltaHeuristic:
    def test_premerge_groups_leaves(self, small_network, small_points):
        sl = SingleLink(small_network, small_points, delta=1.5)
        dendrogram = sl.build_dendrogram()
        # p0,p1,p2 chain within delta; p3 separate.
        assert dendrogram.num_leaves == 2
        assert dendrogram.merge_distances() == pytest.approx([4.0])
        assert sl.last_stats["initial_clusters"] == 2

    def test_merges_above_delta_unchanged(self, small_network, small_points):
        plain = SingleLink(small_network, small_points).build_dendrogram()
        grouped = SingleLink(small_network, small_points, delta=1.2).build_dendrogram()
        above = [d for d in plain.merge_distances() if d > 1.2]
        assert grouped.merge_distances() == pytest.approx(above)

    def test_cut_below_delta_rejected(self, small_network, small_points):
        dendrogram = SingleLink(small_network, small_points, delta=1.5).build_dendrogram()
        with pytest.raises(ParameterError):
            dendrogram.cut_distance(1.0)

    def test_cut_above_delta_matches_plain(self, small_network, small_points):
        plain = SingleLink(small_network, small_points).build_dendrogram()
        grouped = SingleLink(small_network, small_points, delta=1.2).build_dendrogram()
        assert grouped.cut_distance(2.0).as_partition() == plain.cut_distance(
            2.0
        ).as_partition()


class TestDisconnectedData:
    def test_forest_has_multiple_roots(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (3, 4, 1.0)])
        ps = PointSet(net)
        ps.add(1, 2, 0.2, point_id=0)
        ps.add(1, 2, 0.8, point_id=1)
        ps.add(3, 4, 0.5, point_id=2)
        dendrogram = SingleLink(net, ps).build_dendrogram()
        assert dendrogram.num_roots == 2
        result = dendrogram.cut_k(1)  # cannot reach 1: returns the 2 roots
        assert result.num_clusters == 2


class TestInterestingLevels:
    def test_detects_sharp_jump(self):
        """Merges at ~1 then a jump to 50 must be flagged (Section 5.3)."""
        net = SpatialNetwork.from_edge_list([(1, 2, 200.0)])
        ps = PointSet(net)
        offsets = [1.0, 2.0, 3.1, 4.0, 5.2, 6.0, 7.1, 8.0, 9.0, 10.2, 60.0, 61.0]
        for off in offsets:
            ps.add(1, 2, off)
        dendrogram = SingleLink(net, ps).build_dendrogram()
        levels = dendrogram.interesting_levels(window=5, factor=3.0)
        distances = dendrogram.merge_distances()
        assert levels, "the ~50-unit jump was not flagged"
        assert any(distances[i] > 40 for i in levels)

    def test_no_jump_no_levels(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 100.0)])
        ps = PointSet(net)
        for i in range(10):
            ps.add(1, 2, 1.0 + i)  # perfectly even spacing
        dendrogram = SingleLink(net, ps).build_dendrogram()
        assert dendrogram.interesting_levels(window=3, factor=3.0) == []

    def test_clusters_before_merge(self, small_network, small_points):
        dendrogram = SingleLink(small_network, small_points).build_dendrogram()
        before_last = dendrogram.clusters_before_merge(2)
        assert before_last.as_partition() == {
            frozenset({0, 1, 2}),
            frozenset({3}),
        }


class TestDendrogramSerialization:
    def test_roundtrip(self, small_network, small_points):
        import json

        dendrogram = SingleLink(small_network, small_points, delta=1.2).build_dendrogram()
        doc = json.loads(json.dumps(dendrogram.to_dict()))
        from repro.core.dendrogram import Dendrogram

        back = Dendrogram.from_dict(doc)
        assert back.merge_distances() == pytest.approx(dendrogram.merge_distances())
        assert back.leaf_members == dendrogram.leaf_members
        assert back.premerge_distance == dendrogram.premerge_distance
        assert back.cut_k(2).as_partition() == dendrogram.cut_k(2).as_partition()

    def test_bad_document_rejected(self):
        from repro.core.dendrogram import Dendrogram
        from repro.exceptions import TreeError

        with pytest.raises(TreeError):
            Dendrogram.from_dict({"format": "something"})


class TestLinkageMatrix:
    def test_scipy_compatible_shape(self, small_network, small_points):
        dendrogram = SingleLink(small_network, small_points).build_dendrogram()
        matrix = dendrogram.to_linkage_matrix()
        assert matrix.shape == (3, 4)
        assert list(matrix[:, 2]) == pytest.approx([1.0, 1.5, 4.0])
        # Sizes are cumulative point counts.
        assert list(matrix[:, 3]) == pytest.approx([2.0, 3.0, 4.0])


@settings(max_examples=50, deadline=None)
@given(clustering_instance())
def test_property_matches_matrix_single_link(data):
    """Invariant 7a: merge distances equal the matrix single-link's."""
    net, points, seed = data
    dm = DistanceMatrix.from_points(net, points)
    want = matrix_single_link(dm)
    got = SingleLink(net, points).build_dendrogram()
    assert got.merge_distances() == pytest.approx(
        want.merge_distances(), rel=1e-9, abs=1e-9
    ), f"seed={seed}"
    assert got.num_roots == want.num_roots


@settings(max_examples=40, deadline=None)
@given(clustering_instance(), st.floats(min_value=0.05, max_value=20.0))
def test_property_cut_at_eps_equals_epslink(data, eps):
    """Invariant 7b (paper Section 5.1): Single-Link cut at ε == ε-Link."""
    net, points, seed = data
    dendrogram = SingleLink(net, points).build_dendrogram()
    cut = dendrogram.cut_distance(eps)
    linked = EpsLink(net, points, eps=eps).run()
    assert cut.as_partition() == linked.as_partition(), f"seed={seed} eps={eps}"


@settings(max_examples=30, deadline=None)
@given(
    clustering_instance(min_points=3),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_property_delta_preserves_merges_above_delta(data, delta):
    net, points, seed = data
    plain = SingleLink(net, points).build_dendrogram()
    grouped = SingleLink(net, points, delta=delta).build_dendrogram()
    above = [d for d in plain.merge_distances() if d > delta]
    assert grouped.merge_distances() == pytest.approx(
        above, rel=1e-9, abs=1e-9
    ), f"seed={seed} delta={delta}"


@pytest.mark.parametrize("delta", [0.0, 2.0])
def test_kruskal_finds_each_bridge_endpoint_once(delta, monkeypatch):
    """Kruskal takes the merged root and size from the union itself: one
    ``find`` per endpoint per bridge, pre-merge included, and none for
    the leaves."""
    import random

    from repro.core.unionfind import UnionFind
    from tests.conftest import make_random_connected_network, scatter_points

    rng = random.Random(3)
    net = make_random_connected_network(rng, 40, extra_edges=15)
    pts = scatter_points(rng, net, 60)
    bridges, _ = SingleLink(net, pts)._bridges()
    expected = SingleLink(net, pts, delta=delta).build_dendrogram().to_dict()
    calls = 0
    find = UnionFind.find

    def counted(self, item):
        nonlocal calls
        calls += 1
        return find(self, item)

    monkeypatch.setattr(UnionFind, "find", counted)
    dendrogram = SingleLink(net, pts, delta=delta).build_dendrogram()
    assert calls == 2 * len(bridges)
    assert dendrogram.to_dict() == expected
