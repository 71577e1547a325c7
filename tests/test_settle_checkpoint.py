"""Every guarded traversal loop charges each settle through one checkpoint.

Each loop below calls :func:`repro.resilience.deadline.settle_checkpoint`
at its own site on every settle.  For each loop this file asserts that an
expansion budget stops it with a partial result, that a fault rule at its
site fires, that a deadline stops it at exactly its site, and that one
run charges the budget, hits the fault site and checks the deadline once
per settle each, without changing the result; where a loop reports its
settle count, the budget's expansions equal it.  A loop that drops or
duplicates a charge fails here.
"""

from __future__ import annotations

import random

import pytest

from repro import faults, obs
from repro.core.epslink import EpsLink, Expansion
from repro.core.kmedoids import NetworkKMedoids
from repro.core.singlelink import SingleLink
from repro.datagen.networks import grid_city
from repro.exceptions import BudgetExceededError, DeadlineExceeded
from repro.faults import FaultRule, InjectedIOError, OpBudget
from repro.network.astar import node_distance_astar, point_distance_astar
from repro.network.augmented import AugmentedView, point_vertex
from repro.network.dijkstra import multi_source, single_source
from repro.network.queries import knn_query, range_query
from repro.perf import DistanceAccelerator, LandmarkIndex
from repro.resilience import Deadline, TickingClock
from repro.resilience.deadline import STATE

from tests.conftest import scatter_points

EPS = 1.5


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()
    assert STATE.engaged == 0, "a deadline activation leaked"


@pytest.fixture(scope="module")
def city():
    net = grid_city(20, 20, removal=0.0, seed=3)
    pts = scatter_points(random.Random(5), net, 120)
    return net, pts


def _kmedoids_update(net, pts):
    km = NetworkKMedoids(net, pts, k=3, seed=0)
    ordered = sorted(pts, key=lambda p: p.point_id)
    medoids = ordered[:3]
    state = km.medoid_dist_find(medoids)

    def update():
        new = km.inc_medoid_update(state, medoids[0], ordered[60], medoids[1:])
        return new.node_dist, new.node_medoid

    return update


def _first(pts):
    return min(pts, key=lambda p: p.point_id)


def _last(pts):
    return max(pts, key=lambda p: p.point_id)


def _grown_clusters(net, pts):
    """Every cluster grown by the resumable per-object expansion
    (``EpsLink._grow``, the live split check's loop), one per unclustered
    seed; returns the assignment and the vertices settled."""
    algo = EpsLink(net, pts, EPS)

    def grow():
        aug = AugmentedView(net, pts)
        assignment, settled = {}, 0
        for seed in pts:
            if seed.point_id not in assignment:
                expansion = Expansion(seed.point_id)
                algo._grow(aug, expansion, assignment)
                settled += expansion.visited
                for pid in expansion.members:
                    assignment[pid] = seed.point_id
        return assignment, settled

    return grow


def _accelerated(net, pts, op):
    accel = DistanceAccelerator(AugmentedView(net, pts), index=LandmarkIndex(net, 4))
    if op == "range":
        return lambda: accel.range_query(_first(pts), 3 * EPS)
    return lambda: accel.knn_query(_first(pts), 10)


def _counter(name):
    return lambda result, counters: counters[name]


def _returned(result, counters):
    return result[1]


#: loop -> (its settle site, builder of a zero-argument call that runs it,
#: the settle count the loop reports, or None where it reports none);
#: a builder does its set-up (views, indexes, medoid state) unguarded.
LOOPS = {
    "single_source": (
        "dijkstra.settle",
        lambda net, pts: lambda: single_source(
            AugmentedView(net, pts), point_vertex(_first(pts).point_id)
        ),
        _counter("dijkstra.nodes_settled"),
    ),
    "multi_source": (
        "dijkstra.settle",
        lambda net, pts: lambda: multi_source(
            AugmentedView(net, pts),
            [(0.0, point_vertex(p.point_id), p.point_id) for p in pts],
        ),
        _counter("dijkstra.nodes_settled"),
    ),
    "range_query": (
        "queries.settle",
        lambda net, pts: lambda: range_query(
            AugmentedView(net, pts), _first(pts), 3 * EPS
        ),
        _counter("queries.vertices_settled"),
    ),
    "knn_query": (
        "queries.settle",
        lambda net, pts: lambda: knn_query(AugmentedView(net, pts), _first(pts), 10),
        _counter("queries.vertices_settled"),
    ),
    "range_query_landmarks": (
        "queries.settle",
        lambda net, pts: _accelerated(net, pts, "range"),
        _counter("perf.range.vertices_settled"),
    ),
    "knn_query_landmarks": (
        "queries.settle",
        lambda net, pts: _accelerated(net, pts, "knn"),
        _counter("perf.knn.vertices_settled"),
    ),
    "epslink": ("epslink.expand", _grown_clusters, _returned),
    # EpsLink.run: the Figure 6 group scan, one charge per node settle.
    "epslink_edgewise": (
        "epslink.expand",
        lambda net, pts: lambda: EpsLink(net, pts, EPS).run().assignment,
        _counter("epslink.vertices_visited"),
    ),
    "kmedoids_update": ("kmedoids.update_settle", _kmedoids_update, None),
    # SingleLink's node Voronoi: one charge per node settle.
    "singlelink_voronoi": (
        "singlelink.voronoi",
        lambda net, pts: lambda: SingleLink(net, pts)._voronoi()[:2],
        lambda result, counters: len(result[0]),
    ),
    "node_distance_astar": (
        "astar.settle",
        lambda net, pts: lambda: node_distance_astar(net, 0, 399),
        _returned,
    ),
    "point_distance_astar": (
        "astar.settle",
        lambda net, pts: lambda: point_distance_astar(
            AugmentedView(net, pts), _first(pts), _last(pts)
        ),
        _returned,
    ),
}


@pytest.fixture(params=sorted(LOOPS))
def loop(request, city):
    site, build, _ = LOOPS[request.param]
    return site, build(*city)


def test_budget_stops_with_partial(loop):
    _, call = loop
    with OpBudget(max_expansions=3).activate():
        with pytest.raises(BudgetExceededError) as exc:
            call()
    assert exc.value.partial is not None


def test_fault_fires_at_site(loop):
    site, call = loop
    rule = FaultRule(site, "error", after=2)
    with faults.plan(rule):
        with pytest.raises(InjectedIOError):
            call()
    assert rule.fired == 1


def test_deadline_stops_at_site(loop):
    site, call = loop
    with Deadline(3.0, clock=TickingClock()).activate():
        with pytest.raises(DeadlineExceeded) as exc:
            call()
    assert exc.value.site == site


def test_one_charge_of_each_kind_per_settle(loop):
    site, call = loop
    plain = call()
    budget = OpBudget()
    deadline = Deadline(3600.0)
    rule = FaultRule(site, "error", after=10**9)
    with faults.plan(rule) as state, budget.activate(), deadline.activate():
        guarded = call()
        hits = state.site_hits.get(site, 0)
    assert guarded == plain
    assert rule.fired == 0
    assert budget.expansions == hits == deadline.checks > 3


@pytest.mark.parametrize(
    "name", sorted(name for name, (_, _, settled) in LOOPS.items() if settled)
)
def test_budget_charges_match_reported_settles(name, city):
    _, build, settled = LOOPS[name]
    call = build(*city)
    budget = OpBudget()
    obs.enable(fresh=True)
    try:
        with budget.activate():
            result = call()
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    assert budget.expansions == settled(result, counters) > 3
