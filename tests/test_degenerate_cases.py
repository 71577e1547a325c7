"""Degenerate and tie-breaking cases across the algorithms.

These exercise configurations that random property tests almost never
generate: coincident points (zero distances), points sitting exactly on
nodes, equal-weight shortest paths, single-edge networks, and the empty
point set.
"""

from __future__ import annotations

import pytest

from repro.baselines.matrix import DistanceMatrix
from repro.core.dbscan import NetworkDBSCAN
from repro.core.epslink import EpsLink
from repro.core.kmedoids import NetworkKMedoids
from repro.core.optics import NetworkOPTICS
from repro.core.singlelink import SingleLink
from repro.network.augmented import AugmentedView
from repro.network.distance import network_distance
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet


@pytest.fixture
def coincident_points():
    """Three points at the exact same location, one farther away."""
    net = SpatialNetwork.from_edge_list([(1, 2, 10.0)])
    ps = PointSet(net)
    for pid in range(3):
        ps.add(1, 2, 5.0, point_id=pid)
    ps.add(1, 2, 9.0, point_id=3)
    return net, ps


class TestCoincidentPoints:
    def test_zero_distances(self, coincident_points):
        net, ps = coincident_points
        aug = AugmentedView(net, ps)
        assert network_distance(aug, ps.get(0), ps.get(1)) == 0.0
        assert network_distance(aug, ps.get(0), ps.get(3)) == pytest.approx(4.0)

    def test_epslink_groups_coincident(self, coincident_points):
        net, ps = coincident_points
        result = EpsLink(net, ps, eps=0.5).run()
        assert result.as_partition() == {frozenset({0, 1, 2}), frozenset({3})}

    def test_edgewise_agrees(self, coincident_points):
        """The group scan meets coincident members at zero distance and
        resets there: a scan from either end links all three."""
        net, ps = coincident_points
        for pid in range(3):
            seed = ps.get(pid)
            members, _ = EpsLink(net, ps, eps=0.5)._expand_cluster(seed, {})
            assert members == {0, 1, 2}

    def test_single_link_zero_merges(self, coincident_points):
        net, ps = coincident_points
        dendrogram = SingleLink(net, ps).build_dendrogram()
        distances = dendrogram.merge_distances()
        assert distances[0] == 0.0
        assert distances[1] == 0.0
        assert distances[2] == pytest.approx(4.0)

    def test_dbscan_density_from_coincidence(self, coincident_points):
        net, ps = coincident_points
        # min_pts=3 satisfied purely by the coincident triple.
        result = NetworkDBSCAN(net, ps, eps=0.5, min_pts=3).run()
        assert result.as_partition() == {frozenset({0, 1, 2})}
        assert result.outliers() == [3]

    def test_kmedoids_zero_R(self, coincident_points):
        net, ps = coincident_points
        result = NetworkKMedoids(net, ps, k=2, seed=0).run()
        # Optimal: one medoid on the triple, one on the loner -> R = 0.
        assert result.stats["R"] == pytest.approx(0.0)

    def test_optics_handles_zero_core_distance(self, coincident_points):
        net, ps = coincident_points
        result = NetworkOPTICS(net, ps, max_eps=1.0, min_pts=3).compute()
        by_id = {o.point_id: o for o in result.ordering}
        assert by_id[0].core_distance == 0.0 or by_id[1].core_distance == 0.0


class TestPointsAtNodes:
    def test_point_at_offset_zero_and_full(self):
        """Offsets exactly 0 and W(e) sit on the nodes themselves."""
        net = SpatialNetwork.from_edge_list([(1, 2, 2.0), (2, 3, 3.0)])
        ps = PointSet(net)
        a = ps.add(1, 2, 2.0, point_id=0)  # exactly at node 2
        b = ps.add(2, 3, 0.0, point_id=1)  # also exactly at node 2
        aug = AugmentedView(net, ps)
        assert network_distance(aug, a, b) == pytest.approx(0.0)
        result = EpsLink(net, ps, eps=1e-9).run()
        assert result.num_clusters == 1

    def test_matrix_agrees(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 2.0), (2, 3, 3.0)])
        ps = PointSet(net)
        ps.add(1, 2, 2.0, point_id=0)
        ps.add(2, 3, 0.0, point_id=1)
        dm = DistanceMatrix.from_points(net, ps)
        assert dm.distance(0, 1) == pytest.approx(0.0)


class TestEqualShortestPaths:
    def test_symmetric_diamond(self):
        """Two exactly equal shortest paths: algorithms must not crash or
        double-count."""
        net = SpatialNetwork.from_edge_list(
            [(1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)]
        )
        ps = PointSet(net)
        a = ps.add(1, 2, 0.0, point_id=0)  # at node 1 (canonical edge 1-2)
        b = ps.add(2, 4, 1.0, point_id=1)  # at node 4
        aug = AugmentedView(net, ps)
        assert network_distance(aug, a, b) == pytest.approx(2.0)
        dendrogram = SingleLink(net, ps).build_dendrogram()
        assert dendrogram.merge_distances() == pytest.approx([2.0])


class TestSinglePointAndEmpty:
    def test_single_point_everywhere(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 5.0)])
        ps = PointSet(net)
        ps.add(1, 2, 2.5)
        assert EpsLink(net, ps, eps=1.0).run().num_clusters == 1
        assert NetworkDBSCAN(net, ps, eps=1.0, min_pts=1).run().num_clusters == 1
        assert NetworkKMedoids(net, ps, k=1, seed=0).run().num_clusters == 1
        dendrogram = SingleLink(net, ps).build_dendrogram()
        assert dendrogram.num_leaves == 1
        assert dendrogram.merges == []

    def test_empty_point_set(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 5.0)])
        ps = PointSet(net)
        result = EpsLink(net, ps, eps=1.0).run()
        assert result.num_points == 0
        assert result.num_clusters == 0
        dendrogram = SingleLink(net, ps).build_dendrogram()
        assert dendrogram.num_leaves == 0


class TestHeavyPopulation:
    def test_hundred_points_one_edge(self):
        """A single edge carrying a long chain stresses the group walks."""
        net = SpatialNetwork.from_edge_list([(1, 2, 100.0)])
        ps = PointSet(net)
        for i in range(100):
            ps.add(1, 2, 0.5 + i, point_id=i)
        a = EpsLink(net, ps, eps=1.0).run()
        assert a.num_clusters == 1
        assert a.stats["vertices_visited"] == 2  # the two end nodes, once each
        dendrogram = SingleLink(net, ps).build_dendrogram()
        assert len(dendrogram.merges) == 99
        assert max(dendrogram.merge_distances()) == pytest.approx(1.0)
