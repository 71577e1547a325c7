"""Tests for the paper's distance definitions (Definitions 2-4).

Includes hypothesis property tests establishing that (a) the augmented-graph
distance and the Definition 4 formula agree, and (b) the network distance is
a metric.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import faults, obs
from repro.baselines.matrix import DistanceMatrix
from repro.exceptions import BudgetExceededError, UnreachableError
from repro.faults import FaultRule, InjectedIOError, OpBudget
from repro.network.augmented import AugmentedView, point_vertex
from repro.network.distance import (
    direct_distance,
    direct_point_node_distance,
    network_distance,
    network_distance_formula,
    pairwise_point_distances,
)
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet
from repro.network.transform import object_graph

from tests.conftest import make_random_connected_network, scatter_points


class TestDirectDistance:
    def test_same_edge(self, small_points):
        assert direct_distance(small_points.get(0), small_points.get(1)) == pytest.approx(1.0)

    def test_different_edges_infinite(self, small_points):
        assert math.isinf(direct_distance(small_points.get(0), small_points.get(2)))

    def test_symmetric(self, small_points):
        p, q = small_points.get(0), small_points.get(1)
        assert direct_distance(p, q) == direct_distance(q, p)

    def test_point_to_node(self, small_network, small_points):
        p = small_points.get(0)
        assert direct_point_node_distance(small_network, p, 1) == pytest.approx(0.5)
        assert direct_point_node_distance(small_network, p, 2) == pytest.approx(1.5)
        assert math.isinf(direct_point_node_distance(small_network, p, 5))


class TestNetworkDistanceKnownValues:
    """Hand-computed distances on the fixture network (see conftest)."""

    EXPECTED = {
        (0, 1): 1.0,
        (0, 2): 2.5,
        (1, 2): 1.5,
        (0, 3): 5.5,
        # p1 -> node 2 (0.5) -> node 3 (3.0) -> node 5 (1.0) -> p3 (1.0)
        (1, 3): 5.5,
        (2, 3): 4.0,
    }

    def test_formula(self, small_network, small_points):
        for (i, j), want in self.EXPECTED.items():
            p, q = small_points.get(i), small_points.get(j)
            assert network_distance_formula(small_network, p, q) == pytest.approx(want)

    def test_augmented(self, small_network, small_points):
        aug = AugmentedView(small_network, small_points)
        for (i, j), want in self.EXPECTED.items():
            p, q = small_points.get(i), small_points.get(j)
            assert network_distance(aug, p, q) == pytest.approx(want)

    def test_self_distance_zero(self, small_network, small_points):
        aug = AugmentedView(small_network, small_points)
        p = small_points.get(0)
        assert network_distance(aug, p, p) == 0.0
        assert network_distance_formula(small_network, p, p) == 0.0


class TestSameEdgeShortcut:
    def test_direct_not_always_shortest(self):
        """The paper's remark: direct distance on a shared edge may exceed
        the network distance through other edges."""
        net = SpatialNetwork.from_edge_list(
            [(1, 2, 10.0), (1, 3, 1.0), (2, 3, 1.0)]
        )
        ps = PointSet(net)
        p = ps.add(1, 2, 0.5)
        q = ps.add(1, 2, 9.5)
        aug = AugmentedView(net, ps)
        # Direct along the heavy edge is 9.0; around via node 3 it is
        # 0.5 + 1 + 1 + 0.5 = 3.0.
        assert direct_distance(p, q) == pytest.approx(9.0)
        assert network_distance(aug, p, q) == pytest.approx(3.0)
        assert network_distance_formula(net, p, q) == pytest.approx(3.0)

    def test_direct_is_shortest_on_light_edge(self, small_network, small_points):
        aug = AugmentedView(small_network, small_points)
        p, q = small_points.get(0), small_points.get(1)
        assert network_distance(aug, p, q) == pytest.approx(direct_distance(p, q))


class TestUnreachable:
    def test_disconnected_points_raise(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (3, 4, 1.0)])
        ps = PointSet(net)
        p = ps.add(1, 2, 0.5)
        q = ps.add(3, 4, 0.5)
        aug = AugmentedView(net, ps)
        with pytest.raises(UnreachableError):
            network_distance(aug, p, q)
        with pytest.raises(UnreachableError):
            network_distance_formula(net, p, q)

    def test_pairwise_reports_inf(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (3, 4, 1.0)])
        ps = PointSet(net)
        ps.add(1, 2, 0.5, point_id=0)
        ps.add(3, 4, 0.5, point_id=1)
        dists = pairwise_point_distances(net, ps)
        assert math.isinf(dists[(0, 1)])


class TestPairwiseMatrix:
    def test_matches_pointwise(self, small_network, small_points):
        dists = pairwise_point_distances(small_network, small_points)
        assert dists == pytest.approx(TestNetworkDistanceKnownValues.EXPECTED)


class TestGuarded:
    """Point distances run the shared Dijkstra loop, budget included."""

    def test_budget_interrupts_network_distance(self, small_network, small_points):
        aug = AugmentedView(small_network, small_points)
        p, q = small_points.get(0), small_points.get(3)
        budget = OpBudget()
        with budget.activate():
            want = network_distance(aug, p, q)
        assert want == pytest.approx(5.5)
        assert budget.expansions > 1
        with OpBudget(max_expansions=budget.expansions - 1).activate():
            with pytest.raises(BudgetExceededError) as exc:
                network_distance(aug, p, q)
        assert point_vertex(q.point_id) not in exc.value.partial


@pytest.fixture(scope="module")
def routed_searches():
    """The two searches that run ``single_source`` over the augmented
    view: the distance matrix and the object graph."""
    rng = random.Random(23)
    net = make_random_connected_network(rng, 40, extra_edges=20)
    points = scatter_points(rng, net, 25)
    return {
        "matrix": lambda: DistanceMatrix.from_points(net, points).values.tobytes(),
        "object_graph": lambda: object_graph(net, points),
    }


@pytest.mark.parametrize("search", ["matrix", "object_graph"])
class TestRoutedThroughSingleSource:
    """Budgets, the ``dijkstra.settle`` fault site and the ``dijkstra.*``
    counters reach every search folded into :func:`single_source`."""

    def test_budget_interrupts(self, search, routed_searches):
        call = routed_searches[search]
        budget = OpBudget()
        with budget.activate():
            call()
        assert budget.expansions > 1
        with OpBudget(max_expansions=budget.expansions - 1).activate():
            with pytest.raises(BudgetExceededError):
                call()

    def test_settle_fault_fires(self, search, routed_searches):
        rule = FaultRule("dijkstra.settle", "error", after=2)
        with faults.plan(rule):
            with pytest.raises(InjectedIOError):
                routed_searches[search]()
        assert rule.fired == 1

    def test_counters_match_budget(self, search, routed_searches):
        call = routed_searches[search]
        plain = call()
        budget = OpBudget()
        obs.enable(fresh=True)
        try:
            with budget.activate():
                counted = call()
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert counted == plain
        assert counters["dijkstra.nodes_settled"] == budget.expansions > 1
        assert counters["dijkstra.edges_relaxed"] == budget.distance_computations


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@st.composite
def network_with_points(draw, max_nodes=14, max_extra=8, max_points=8):
    """A random connected network plus >= 2 points placed on its edges."""
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    n_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    extra = draw(st.integers(min_value=0, max_value=max_extra))
    net = make_random_connected_network(rng, n_nodes, extra_edges=extra)
    n_points = draw(st.integers(min_value=2, max_value=max_points))
    points = scatter_points(rng, net, n_points)
    return net, points


@settings(max_examples=60, deadline=None)
@given(network_with_points())
def test_property_formula_equals_augmented(data):
    """Definition 4 formula == exact augmented-graph Dijkstra (invariant 2)."""
    net, points = data
    aug = AugmentedView(net, points)
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            formula = network_distance_formula(net, pts[i], pts[j])
            exact = network_distance(aug, pts[i], pts[j])
            assert formula == pytest.approx(exact, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(network_with_points(max_points=6))
def test_property_network_distance_is_metric(data):
    """Symmetry, identity, and triangle inequality (invariant 1)."""
    net, points = data
    aug = AugmentedView(net, points)
    pts = list(points)
    n = len(pts)
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i][j] = network_distance(aug, pts[i], pts[j])
    for i in range(n):
        assert d[i][i] == 0.0
        for j in range(n):
            assert d[i][j] >= 0.0
            assert d[i][j] == pytest.approx(d[j][i], rel=1e-9, abs=1e-9)
            for k in range(n):
                assert d[i][k] <= d[i][j] + d[j][k] + 1e-7


@settings(max_examples=30, deadline=None)
@given(network_with_points(max_points=6))
def test_property_pairwise_matches_pointwise(data):
    net, points = data
    aug = AugmentedView(net, points)
    dists = pairwise_point_distances(net, points)
    for (i, j), got in dists.items():
        want = network_distance(aug, points.get(i), points.get(j))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
