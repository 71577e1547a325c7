"""Tests for network OPTICS and DBSCAN-extraction equivalence."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dbscan import NetworkDBSCAN
from repro.core.optics import NetworkOPTICS
from repro.core.singlelink import SingleLink
from repro.eval.metrics import NOISE
from repro.exceptions import ParameterError
from repro.network.augmented import AugmentedView
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet
from repro.network.queries import range_query

from tests.conftest import make_random_connected_network, scatter_points
from tests.strategies import clustering_instance


@pytest.fixture
def line_points():
    """Two dense groups on one long edge, with a straggler."""
    net = SpatialNetwork.from_edge_list([(1, 2, 100.0)])
    ps = PointSet(net)
    for off in (1.0, 1.5, 2.0, 2.5):  # dense group A
        ps.add(1, 2, off)
    for off in (50.0, 50.4, 50.8):  # dense group B
        ps.add(1, 2, off)
    ps.add(1, 2, 80.0)  # straggler
    return net, ps


class TestValidation:
    def test_bad_max_eps(self, small_network, small_points):
        with pytest.raises(ParameterError):
            NetworkOPTICS(small_network, small_points, max_eps=0.0)

    def test_bad_min_pts(self, small_network, small_points):
        with pytest.raises(ParameterError):
            NetworkOPTICS(small_network, small_points, max_eps=1.0, min_pts=0)

    def test_extract_above_max_eps(self, small_network, small_points):
        result = NetworkOPTICS(small_network, small_points, max_eps=1.0).compute()
        with pytest.raises(ParameterError):
            result.extract_dbscan(2.0)


class TestOrdering:
    def test_all_points_ordered_once(self, line_points):
        net, ps = line_points
        result = NetworkOPTICS(net, ps, max_eps=5.0, min_pts=2).compute()
        ids = [o.point_id for o in result.ordering]
        assert sorted(ids) == sorted(ps.point_ids())
        assert len(ids) == len(set(ids))

    def test_first_point_has_inf_reachability(self, line_points):
        net, ps = line_points
        result = NetworkOPTICS(net, ps, max_eps=5.0, min_pts=2).compute()
        assert math.isinf(result.ordering[0].reachability)

    def test_dense_groups_are_contiguous_valleys(self, line_points):
        """Members of one dense group appear consecutively with small
        reachability; the jump to the next group is large."""
        net, ps = line_points
        result = NetworkOPTICS(net, ps, max_eps=100.0, min_pts=2).compute()
        group_a = {0, 1, 2, 3}
        positions = [i for i, o in enumerate(result.ordering) if o.point_id in group_a]
        assert positions == list(range(positions[0], positions[0] + 4))

    def test_core_distances(self, line_points):
        net, ps = line_points
        result = NetworkOPTICS(net, ps, max_eps=5.0, min_pts=2).compute()
        by_id = {o.point_id: o for o in result.ordering}
        # Point 0 at offset 1.0: nearest neighbour at 1.5 -> core dist 0.5.
        assert by_id[0].core_distance == pytest.approx(0.5)
        # The straggler at 80.0 has no neighbour within 5 -> not core.
        assert math.isinf(by_id[7].core_distance)

    def test_reachability_plot_shape(self, line_points):
        net, ps = line_points
        result = NetworkOPTICS(net, ps, max_eps=5.0, min_pts=2).compute()
        plot = result.reachability_plot()
        assert len(plot) == len(ps)
        finite = [r for _, r in plot if not math.isinf(r)]
        assert all(r <= 5.0 for r in finite)


class TestExtractDBSCAN:
    def test_two_clusters_and_noise(self, line_points):
        net, ps = line_points
        result = NetworkOPTICS(net, ps, max_eps=5.0, min_pts=2).compute()
        flat = result.extract_dbscan(1.0)
        assert flat.num_clusters == 2
        assert flat.cluster_of(7) == NOISE

    def test_extraction_at_multiple_eps_without_recompute(self, line_points):
        net, ps = line_points
        result = NetworkOPTICS(net, ps, max_eps=60.0, min_pts=2).compute()
        tight = result.extract_dbscan(1.0)
        loose = result.extract_dbscan(50.0)
        assert tight.num_clusters == 2
        assert loose.num_clusters == 1  # 48-unit hop links the groups

    def test_run_interface(self, line_points):
        net, ps = line_points
        flat = NetworkOPTICS(net, ps, max_eps=1.0, min_pts=2).run()
        assert flat.algorithm == "optics"
        assert flat.num_clusters == 2


def _core_ids(net, points, eps, min_pts) -> set[int]:
    aug = AugmentedView(net, points)
    return {
        p.point_id
        for p in points
        if len(range_query(aug, p, eps)) >= min_pts
    }


@settings(max_examples=40, deadline=None)
@given(clustering_instance(), st.integers(min_value=2, max_value=4))
def test_property_extract_matches_dbscan_on_core_points(data, min_pts):
    """OPTICS extraction at eps equals DBSCAN at eps on the core points
    (border points may tie-break differently, per the original papers)."""
    net, points, seed = data
    max_eps = 8.0
    eps = 3.1  # off the distance distribution to avoid exact ties
    optics = NetworkOPTICS(net, points, max_eps=max_eps, min_pts=min_pts).compute()
    extracted = optics.extract_dbscan(eps)
    direct = NetworkDBSCAN(net, points, eps=eps, min_pts=min_pts).run()
    core = _core_ids(net, points, eps, min_pts)

    # Noise agreement is exact on core points; a core point is never noise.
    for pid in core:
        assert extracted.cluster_of(pid) != NOISE
        assert direct.cluster_of(pid) != NOISE
    # The partitions restricted to core points are identical.
    def core_partition(result):
        groups: dict[int, set[int]] = {}
        for pid in core:
            groups.setdefault(result.cluster_of(pid), set()).add(pid)
        return {frozenset(g) for g in groups.values()}

    assert core_partition(extracted) == core_partition(direct), f"seed={seed}"
    # Non-core points: a point DBSCAN calls noise (no core within eps) has
    # reachability > eps from every core, so extraction must call it noise
    # too.  The converse does not hold — per the original OPTICS paper the
    # extraction may differ from DBSCAN "for some border objects" (a border
    # point processed before its cluster's cores keeps inf reachability).
    for p in points:
        if p.point_id not in core and direct.cluster_of(p.point_id) == NOISE:
            assert extracted.cluster_of(p.point_id) == NOISE


# ----------------------------------------------------------------------
# OPTICS at MinPts = 2 is single linkage
# ----------------------------------------------------------------------
def _reachabilities_and_merges(net, points, max_eps):
    """Sorted finite OPTICS(MinPts = 2) reachabilities, and the sorted
    Single-Link merge distances up to ``max_eps``."""
    ordering = NetworkOPTICS(net, points, max_eps=max_eps, min_pts=2).compute().ordering
    reach = sorted(o.reachability for o in ordering if math.isfinite(o.reachability))
    merges = SingleLink(net, points).build_dendrogram().merge_distances()
    return reach, [d for d in merges if d <= max_eps]


#: Probe instances whose reachabilities and merge distances differ, each
#: pair by one ulp: OPTICS sums a path fold-left from one object, a
#: Single-Link bridge adds two half-paths (see "Summation order" in
#: docs/algorithms.md).
ULP_SEEDS = {13, 17, 44, 60, 88, 93, 96, 105, 120, 133, 145, 160, 170, 208,
             218, 257, 266, 292, 295}


def test_optics_reachabilities_are_single_link_merges():
    """OPTICS at MinPts = 2 runs Prim's algorithm on network distance, so
    its finite reachabilities are the single-linkage merge distances
    (Garcia-Pulido & Samardzhiev: the mpts = 2 DBSCAN* hierarchy is single
    linkage).  Lengths are equal on all 300 instances; values are
    float-equal except on the pinned one-ulp instances."""
    differ = set()
    for seed in range(300):
        rng = random.Random(seed)
        net = make_random_connected_network(
            rng, rng.randint(3, 20), extra_edges=rng.randint(0, 10)
        )
        points = scatter_points(rng, net, rng.randint(2, 20))
        reach, merges = _reachabilities_and_merges(
            net, points, rng.uniform(0.5, 15.0)
        )
        assert len(reach) == len(merges), seed
        if reach != merges:
            differ.add(seed)
            for a, b in zip(reach, merges):
                assert a == b or abs(a - b) == math.ulp(max(a, b)), seed
    assert differ == ULP_SEEDS


def _path_instance(a, w1, w2, w3, b):
    """Object 0 at ``a`` from node 0, empty edges 0-2-3-4 of weights
    ``w1``, ``w2``, ``w3``, object 1 at ``b`` from node 4: one path."""
    net = SpatialNetwork.from_edge_list(
        [(0, 1, 2.0), (0, 2, w1), (2, 3, w2), (3, 4, w3), (4, 5, 2.0)]
    )
    points = PointSet(net)
    points.add(0, 1, a, point_id=0)
    points.add(4, 5, b, point_id=1)
    return net, points


@pytest.mark.parametrize(
    "segments, optics, single_link, exact_side",
    [
        # Node 3 is object 0's, node 4 object 1's.  OPTICS folds the five
        # segments left from either object; the bridge over edge 3-4
        # keeps (0.1 + 0.7) + ((0.1 + 0.1) + 0.2), the smaller direction.
        ((0.1, 0.1, 0.2, 0.7, 0.1), 1.2000000000000002, 1.2, "single-link"),
        ((0.1, 0.1, 0.2, 0.2, 0.1), 0.7000000000000001, 0.7, "optics"),
    ],
)
def test_one_ulp_case_pinned(segments, optics, single_link, exact_side):
    """The two sides differ by one ulp, and neither order is always the
    one exact arithmetic rounds to: ``Fraction`` sums of the same floats
    pick Single-Link in one case and OPTICS in the other."""
    net, points = _path_instance(*segments)
    reach, merges = _reachabilities_and_merges(net, points, 100.0)
    assert (reach, merges) == ([optics], [single_link])
    assert abs(optics - single_link) == math.ulp(optics)
    exact = float(sum(Fraction(x) for x in segments))
    assert exact == (single_link if exact_side == "single-link" else optics)
