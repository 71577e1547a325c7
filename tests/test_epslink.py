"""Tests for ε-Link, including the component-equivalence property test.

The oracle: ε-Link's clusters are exactly the connected components of the
graph on points with an edge wherever the network distance is at most ε
(the paper's MinPts=2 sufficient condition, applied transitively).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.baselines.classic import threshold_components
from repro.baselines.matrix import DistanceMatrix
from repro.core.epslink import EpsLink, Expansion
from repro.core.unionfind import UnionFind
from repro.exceptions import ParameterError
from repro.network.augmented import AugmentedView, point_vertex
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet
from repro.network.queries import range_query

from tests.strategies import clustering_instance, decimal_instance


def range_components(net, points, eps) -> set[frozenset[int]]:
    """Components of the ≤ε graph that ``range_query`` sees: each object
    is linked to every object its range query at ε returns."""
    aug = AugmentedView(net, points)
    uf = UnionFind(points.point_ids())
    for p in points:
        for q, _ in range_query(aug, p, eps, include_query=False):
            uf.union(p.point_id, q.point_id)
    parts: dict = {}
    for pid in points.point_ids():
        parts.setdefault(uf.find(pid), set()).add(pid)
    return {frozenset(part) for part in parts.values()}


class TestValidation:
    def test_bad_eps(self, small_network, small_points):
        with pytest.raises(ParameterError):
            EpsLink(small_network, small_points, eps=0.0)

    def test_bad_min_sup(self, small_network, small_points):
        with pytest.raises(ParameterError):
            EpsLink(small_network, small_points, eps=1.0, min_sup=0)

    def test_foreign_point_set(self, small_network, small_points):
        other = SpatialNetwork.from_edge_list([(1, 2, 1.0)])
        with pytest.raises(ParameterError):
            EpsLink(other, small_points, eps=1.0)


class TestSmallNetwork:
    """Distances in the fixture: d(p0,p1)=1, d(p1,p2)=1.5, d(p0,p2)=2.5,
    d(p2,p3)=4, d(p0,p3)=5.5, d(p1,p3)=5.5."""

    def test_tight_eps_pairs(self, small_network, small_points):
        result = EpsLink(small_network, small_points, eps=1.0).run()
        assert result.as_partition() == {
            frozenset({0, 1}),
            frozenset({2}),
            frozenset({3}),
        }

    def test_chain_through_middle_point(self, small_network, small_points):
        # eps=1.5 chains p0-p1-p2 even though d(p0,p2)=2.5 > eps.
        result = EpsLink(small_network, small_points, eps=1.5).run()
        assert result.as_partition() == {frozenset({0, 1, 2}), frozenset({3})}

    def test_everything_linked(self, small_network, small_points):
        result = EpsLink(small_network, small_points, eps=4.0).run()
        assert result.num_clusters == 1

    def test_min_sup_marks_outliers(self, small_network, small_points):
        result = EpsLink(small_network, small_points, eps=1.0, min_sup=2).run()
        assert result.outliers() == [2, 3]
        assert result.as_partition() == {frozenset({0, 1})}

    def test_stats_recorded(self, small_network, small_points):
        result = EpsLink(small_network, small_points, eps=1.0).run()
        assert result.stats["vertices_visited"] > 0
        assert "wall_time_s" in result.stats


class TestSameEdgeShortcut:
    def test_cluster_through_detour(self):
        """Two points far apart along a heavy edge but close via a detour
        must cluster: eps-link uses network distance, not direct distance."""
        net = SpatialNetwork.from_edge_list([(1, 2, 10.0), (1, 3, 1.0), (2, 3, 1.0)])
        ps = PointSet(net)
        ps.add(1, 2, 0.5, point_id=0)
        ps.add(1, 2, 9.5, point_id=1)  # direct gap 9, network distance 3
        result = EpsLink(net, ps, eps=3.0).run()
        assert result.num_clusters == 1

    def test_no_cluster_below_detour_length(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 10.0), (1, 3, 1.0), (2, 3, 1.0)])
        ps = PointSet(net)
        ps.add(1, 2, 0.5, point_id=0)
        ps.add(1, 2, 9.5, point_id=1)
        result = EpsLink(net, ps, eps=2.9).run()
        assert result.num_clusters == 2


class TestDisconnectedNetwork:
    def test_components_stay_apart(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (3, 4, 1.0)])
        ps = PointSet(net)
        ps.add(1, 2, 0.4, point_id=0)
        ps.add(1, 2, 0.6, point_id=1)
        ps.add(3, 4, 0.5, point_id=2)
        result = EpsLink(net, ps, eps=100.0).run()
        assert result.as_partition() == {frozenset({0, 1}), frozenset({2})}


class TestSinglePoint:
    def test_lone_point_is_own_cluster(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 5.0)])
        ps = PointSet(net)
        ps.add(1, 2, 1.0)
        result = EpsLink(net, ps, eps=1.0).run()
        assert result.num_clusters == 1
        assert result.outliers() == []


class TestEdgewiseVariant:
    """``EpsLink`` runs the paper's Figure 6 traversal (node heap, point
    groups scanned edge by edge); its clusters must be the components of
    the ≤ε graph of the augmented-graph range search."""

    def test_small_network_all_eps(self, small_network, small_points):
        for eps in (0.4, 1.0, 1.5, 2.5, 4.0, 6.0):
            got = EpsLink(small_network, small_points, eps=eps).run()
            want = range_components(small_network, small_points, eps)
            assert got.as_partition() == want, f"eps={eps}"

    def test_detour_through_other_edges(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 10.0), (1, 3, 1.0), (2, 3, 1.0)])
        ps = PointSet(net)
        ps.add(1, 2, 0.5, point_id=0)
        ps.add(1, 2, 9.5, point_id=1)
        result = EpsLink(net, ps, eps=3.0).run()
        assert result.as_partition() == range_components(net, ps, 3.0)
        assert result.num_clusters == 1

    def test_min_sup(self, small_network, small_points):
        result = EpsLink(small_network, small_points, eps=1.5, min_sup=2).run()
        assert result.outliers() == [3]
        assert result.as_partition() == {frozenset({0, 1, 2})}

    def test_reports_its_own_name(self, small_network, small_points):
        result = EpsLink(small_network, small_points, eps=1.0).run()
        assert result.algorithm == "eps-link"

    def test_last_bit_hazard(self):
        """Segments walked from the larger endpoint as differences of
        ``weight - offset`` values differ in the last bit from the
        augmented graph's offset differences.  Here that splits the
        clusters: ε is d(0, 2) as the range search sums it, and a scan
        that walked ``t - pos`` from node 1 linked all three objects."""
        net = SpatialNetwork.from_edge_list([(0, 1, 0.5)])
        ps = PointSet(net)
        for pid, offset in enumerate((0.15, 0.05, 0.1)):
            ps.add(0, 1, offset, point_id=pid)
        eps = 0.15 - 0.1
        assert (0.5 - 0.1) - (0.5 - 0.15) != eps
        want = {frozenset({0, 2}), frozenset({1})}
        assert range_components(net, ps, eps) == want
        assert EpsLink(net, ps, eps=eps).run().as_partition() == want


def _eps_candidates(net, points) -> list[float]:
    """0.5 and, from the distances the range search computes between
    objects, the smallest nonzero one and the median."""
    aug = AugmentedView(net, points)
    finite = sorted(
        d for p in points
        for _, d in range_query(aug, p, float("inf"), include_query=False)
        if d > 0
    )
    candidates = [0.5]
    if finite:
        candidates.extend([finite[0], finite[len(finite) // 2]])
    return candidates


@settings(max_examples=40, deadline=None)
@given(clustering_instance())
def test_property_edgewise_equals_augmented(data):
    """Figure 6's edge-scanning traversal == the components of the
    augmented-graph range search, ε set at distances that search computed."""
    net, points, seed = data
    for eps in _eps_candidates(net, points):
        got = EpsLink(net, points, eps=eps).run()
        assert got.as_partition() == range_components(net, points, eps), (
            f"seed={seed} eps={eps}"
        )


@settings(max_examples=60, deadline=None)
@given(decimal_instance())
def test_property_decimal_ties(data):
    """As above on decimal weights and offsets, which do not sum exactly
    in binary: ε at every distance the range search computes, so ties
    within an ulp decide links."""
    net, points, seed = data
    aug = AugmentedView(net, points)
    distances = sorted({
        d for p in points
        for _, d in range_query(aug, p, float("inf"), include_query=False)
        if d > 0
    })
    for eps in distances:
        got = EpsLink(net, points, eps=eps).run()
        assert got.as_partition() == range_components(net, points, eps), (
            f"seed={seed} eps={eps!r}"
        )


@settings(max_examples=60, deadline=None)
@given(clustering_instance())
def test_property_equals_threshold_components(data):
    """Invariant 5: ε-Link == connected components of the ≤ε distance graph."""
    net, points, seed = data
    dm = DistanceMatrix.from_points(net, points)
    # Derive a meaningful eps from the actual distance distribution.
    finite = sorted(
        dm.values[i, j]
        for i in range(len(dm.ids))
        for j in range(i + 1, len(dm.ids))
        if dm.values[i, j] < float("inf")
    )
    candidates = [0.5]
    if finite:
        candidates.extend(
            [finite[0] * 1.01, finite[len(finite) // 2] * 1.0001, finite[-1] * 0.99]
        )
    for eps_value in candidates:
        if eps_value <= 0:
            continue
        got = EpsLink(net, points, eps=eps_value).run()
        want = threshold_components(dm, eps_value)
        assert got.same_clustering(want), (
            f"seed={seed} eps={eps_value}: {got.as_partition()} != "
            f"{want.as_partition()}"
        )


class TestResumableExpansion:
    """``EpsLink._grow``: the resumable expansion, run in slices and, with
    an owner map, stopped when it reaches another expansion's object."""

    @pytest.fixture
    def line(self):
        # Objects 0..5 at offsets 1.0, 1.5, ..., 3.5: one chain at eps 1.
        net = SpatialNetwork.from_edge_list([(1, 2, 10.0)])
        pts = PointSet(net)
        for i in range(6):
            pts.add(1, 2, 1.0 + 0.5 * i, point_id=i)
        return EpsLink(net, pts, eps=1.0), AugmentedView(net, pts)

    def test_slices_equal_one_run(self, line):
        algo, aug = line
        whole = Expansion(0)
        assert algo._grow(aug, whole, None) is None
        sliced = Expansion(0)
        while sliced.heap:
            assert algo._grow(aug, sliced, None, 1) is None
        assert sliced.members == whole.members == set(range(6))
        assert sliced.visited == whole.visited
        members, _ = algo._expand_cluster(aug.points.get(0), {})
        assert members == whole.members

    def test_meets_an_owned_object_when_pushing_it(self, line):
        algo, aug = line
        f, g = Expansion(0), Expansion(1)
        owner = {0: f, 1: g}
        assert algo._grow(aug, f, None, -1, owner) is g
        # The vertex whose relaxation met g goes back on the heap.
        assert (0.0, point_vertex(0)) in f.heap
        assert f.visited == 1

    def test_meets_an_object_claimed_after_the_push(self, line):
        algo, aug = line
        f, g = Expansion(0), Expansion(2)
        owner = {0: f, 2: g}
        assert algo._grow(aug, f, None, 1, owner) is None  # pushed 1
        owner[1] = g  # g absorbs 1 before f settles it
        g.members.add(1)
        assert algo._grow(aug, f, None, -1, owner) is g
        assert 1 not in f.members

    def test_absorb_continues_as_one_expansion(self, line):
        algo, aug = line
        f, g = Expansion(0), Expansion(5)
        owner = {0: f, 5: g}
        turns, met = [f, g], None
        while met is None:  # one settle each in turn until they meet
            expansion = turns[0]
            turns.reverse()
            met = algo._grow(aug, expansion, None, 1, owner)
        met.absorb(expansion, owner)
        assert algo._grow(aug, met, None, -1, owner) is None
        assert met.members == set(range(6))
        assert all(owner[pid] is met for pid in range(6))
