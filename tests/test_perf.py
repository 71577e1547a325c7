"""Tests for the distance-acceleration layer (repro.perf).

The headline property, asserted from every angle hypothesis can reach:
**accelerated == unaccelerated, bit for bit** — range and kNN queries —
across landmark counts, cache sizes, disconnected components, and networks
without coordinates.
"""

from __future__ import annotations

import math
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.exceptions import IndexStaleError
from repro.faults import FaultRule, OpBudget, plan
from repro.network.augmented import AugmentedView
from repro.network.dijkstra import single_source
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet
from repro.network.queries import knn_query, range_query
from repro.perf import (
    DistanceAccelerator,
    DistanceCache,
    LandmarkIndex,
    vector_upper_bound,
)
from repro.resilience import Deadline
from tests.conftest import (
    make_grid_network,
    make_random_connected_network,
    scatter_points,
)
from tests.strategies import clustering_instance

LANDMARK_COUNTS = [0, 1, 4]
CACHE_MBS = [0.0, 0.5]


def _accelerators(aug):
    """One accelerator per (landmarks, cache) combination under test."""
    return [
        DistanceAccelerator(
            aug, index=LandmarkIndex(aug.network, lm), cache=DistanceCache(mb)
        )
        for lm in LANDMARK_COUNTS
        for mb in CACHE_MBS
    ]


def _strip_coords(net: SpatialNetwork) -> SpatialNetwork:
    """The same topology with no node coordinates (landmarks need none)."""
    bare = SpatialNetwork(name="bare")
    for node in net.nodes():
        bare.add_node(node)
    for u, v, w in net.edges():
        bare.add_edge(u, v, w)
    return bare


def _two_components() -> SpatialNetwork:
    net = SpatialNetwork()
    for n in (1, 2, 3, 11, 12):
        net.add_node(n)
    net.add_edge(1, 2, 1.0)
    net.add_edge(2, 3, 1.0)
    net.add_edge(11, 12, 2.0)
    return net


def _reference_landmarks(network, num_landmarks: int) -> list[int]:
    """Farthest-point sampling one node at a time: the smallest id first,
    then the node farthest from every chosen landmark (unreached counts
    as infinitely far), ties by smallest id."""
    nodes = sorted(network.nodes())
    nearest = {n: math.inf for n in nodes}
    chosen = [nodes[0]]
    while len(chosen) < min(num_landmarks, len(nodes)):
        table = single_source(network, chosen[-1])
        best_node, best_dist = None, -1.0
        for n in nodes:
            nearest[n] = min(nearest[n], table.get(n, math.inf))
            if nearest[n] > best_dist:
                best_node, best_dist = n, nearest[n]
        if best_dist <= 0.0:
            break
        chosen.append(best_node)
    return chosen


# ---------------------------------------------------------------------------
# LandmarkIndex
# ---------------------------------------------------------------------------


class TestLandmarkIndex:
    def test_deterministic_selection(self, small_network):
        a = LandmarkIndex(small_network, 3)
        b = LandmarkIndex(small_network, 3)
        assert a.landmarks == b.landmarks
        assert len(a) == 3

    def test_tables_match_single_source(self, small_network):
        index = LandmarkIndex(small_network, 4)
        tables = [single_source(small_network, lm) for lm in index.landmarks]
        for node in small_network.nodes():
            assert index.node_vector(node) == tuple(
                t.get(node, math.inf) for t in tables
            )

    @pytest.mark.parametrize("make", [
        lambda: make_grid_network(5, 4),
        lambda: make_random_connected_network(random.Random(9), 25, 8),
        lambda: _two_components(),
    ])
    def test_selection_matches_reference_loop(self, make):
        """The vectorised farthest-point sampling picks exactly what the
        node-by-node loop picks, ties by smallest id included."""
        net = make()
        for k in (1, 3, 8, 100):
            assert LandmarkIndex(net, k).landmarks == \
                _reference_landmarks(net, k)

    def test_first_landmark_is_smallest_node(self, small_network):
        index = LandmarkIndex(small_network, 2)
        assert index.landmarks[0] == min(small_network.nodes())

    def test_clamped_to_node_count(self, small_network):
        index = LandmarkIndex(small_network, 100)
        n = len(list(small_network.nodes()))
        assert len(index) <= n
        assert len(set(index.landmarks)) == len(index.landmarks)

    def test_covers_disconnected_components(self):
        net = SpatialNetwork()
        for n in (1, 2, 11, 12):
            net.add_node(n)
        net.add_edge(1, 2, 1.0)
        net.add_edge(11, 12, 1.0)
        index = LandmarkIndex(net, 2)
        assert index.landmarks == [1, 11]
        assert index.node_vector(1) == (0.0, math.inf)
        assert index.node_vector(2) == (1.0, math.inf)
        assert index.node_vector(11) == (math.inf, 0.0)
        assert index.node_vector(12) == (math.inf, 1.0)

    def test_zero_landmarks(self, small_network):
        assert len(LandmarkIndex(small_network, 0)) == 0


class TestVectorBounds:
    def test_inf_semantics(self):
        assert vector_upper_bound((math.inf,), (1.0,)) == math.inf

    def test_basic(self):
        assert vector_upper_bound((5.0, 2.0), (1.0, 2.5)) == 4.5


# ---------------------------------------------------------------------------
# The exactness property: accelerated == unaccelerated, bit for bit
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    clustering_instance(max_points=10),
    st.floats(min_value=0.0, max_value=30.0),
    st.integers(min_value=1, max_value=12),
)
def test_queries_bit_identical(instance, eps, k):
    net, points, _seed = instance
    aug = AugmentedView(net, points)
    pts = list(points)
    for accel in _accelerators(aug):
        for q in pts:
            for include in (True, False):
                assert accel.range_query(q, eps, include) == range_query(
                    aug, q, eps, include
                )
                assert accel.knn_query(q, k, include) == knn_query(
                    aug, q, k, include
                )
    # A timed served request runs under an active deadline, so it takes
    # the guarded branch of the shared range and kNN loops: that branch
    # must answer exactly as the unguarded plain search does.
    expected = {
        (q.point_id, include): (
            range_query(aug, q, eps, include), knn_query(aug, q, k, include)
        )
        for q in pts
        for include in (True, False)
    }
    with Deadline(None).activate():
        for accel in _accelerators(aug):
            for q in pts:
                for include in (True, False):
                    ranged, nearest = expected[q.point_id, include]
                    assert range_query(aug, q, eps, include) == ranged
                    assert knn_query(aug, q, k, include) == nearest
                    assert accel.range_query(q, eps, include) == ranged
                    assert accel.knn_query(q, k, include) == nearest


@pytest.mark.parametrize("kind", ["range", "knn"])
@pytest.mark.parametrize("landmarks", [0, 4])
def test_guarded_search_charges_what_it_reports(kind, landmarks):
    """A budgeted search charges one expansion and one ``queries.settle``
    hit per settled vertex it reports, with or without the landmark kNN
    prefilter (the plain and accelerated searches share one loop)."""
    import random

    net = make_random_connected_network(random.Random(5), 40, extra_edges=20)
    points = scatter_points(random.Random(6), net, 60)
    aug = AugmentedView(net, points)
    accel = DistanceAccelerator(aug, index=LandmarkIndex(net, landmarks))
    query = next(iter(points))
    search = {
        "range": lambda: accel.range_query(query, 6.0),
        "knn": lambda: accel.knn_query(query, 5),
    }[kind]
    expected = search()
    budget = OpBudget()
    rule = FaultRule("queries.settle", "error", after=10**9)
    obs.enable(fresh=True)
    try:
        with plan(rule) as state, budget.activate():
            assert search() == expected
            hits = state.site_hits.get("queries.settle", 0)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    prefix = "queries" if landmarks == 0 or kind == "range" else "perf.knn"
    settled = counters[f"{prefix}.vertices_settled"]
    assert settled > 0
    assert budget.expansions == settled
    assert hits == settled
    assert rule.fired == 0


def test_acceleration_needs_no_coordinates():
    import random

    rng = random.Random(9)
    coords_net = make_random_connected_network(rng, 15, extra_edges=5)
    net = _strip_coords(coords_net)
    points = scatter_points(random.Random(10), net, 12)
    aug = AugmentedView(net, points)
    accel = DistanceAccelerator(
        aug, index=LandmarkIndex(net, 4), cache=DistanceCache(0.5)
    )
    for p in points:
        for eps in (1.0, 4.0):
            assert accel.range_query(p, eps) == range_query(aug, p, eps)
        assert accel.knn_query(p, 3) == knn_query(aug, p, 3)


def test_exact_on_grid_ties():
    # Unit-weight grids are all ties — the hardest case for any search
    # that reorders or prunes work.
    net = make_grid_network(6, 6)
    import random

    points = scatter_points(random.Random(3), net, 15)
    aug = AugmentedView(net, points)
    accel = DistanceAccelerator(aug, index=LandmarkIndex(net, 4))
    for p in points:
        for k in (1, 5, 20):
            assert accel.knn_query(p, k) == knn_query(aug, p, k)
        for eps in (0.0, 1.0, 3.5):
            assert accel.range_query(p, eps) == range_query(aug, p, eps)


def test_indexed_range_computes_no_landmark_vector(
    monkeypatch, small_network, small_points
):
    """With an index, a range query is the plain search behind the
    cache: it reads no landmark vector and counts as a plain query."""
    calls = []
    point_vector = LandmarkIndex.point_vector

    def counted(self, point):
        calls.append(point.point_id)
        return point_vector(self, point)

    monkeypatch.setattr(LandmarkIndex, "point_vector", counted)
    aug = AugmentedView(small_network, small_points)
    accel = DistanceAccelerator(aug, index=LandmarkIndex(small_network, 2))
    query = next(iter(small_points))
    expected = range_query(aug, query, 2.0)
    obs.enable(fresh=True)
    try:
        assert accel.range_query(query, 2.0) == expected
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    assert calls == []
    assert accel._point_vectors == {}
    assert counters["queries.range_queries"] == 1
    assert not [name for name in counters if name.startswith("perf.range")]


@pytest.mark.parametrize("kind", ["range", "knn"])
@pytest.mark.parametrize("landmarks", [0, 2])
def test_one_sync_per_accelerated_query(
    monkeypatch, small_network, small_points, kind, landmarks
):
    """An accelerated query checks the view's watermark once, on a cache
    miss as on a hit: the plain search behind it does not check again."""
    aug = AugmentedView(small_network, small_points)
    accel = DistanceAccelerator(
        aug,
        index=LandmarkIndex(small_network, landmarks),
        cache=DistanceCache(0.5),
    )
    syncs = []
    sync = AugmentedView.sync

    def counted(self):
        syncs.append(self)
        sync(self)

    monkeypatch.setattr(AugmentedView, "sync", counted)
    query = next(iter(small_points))
    search = {
        "range": lambda: accel.range_query(query, 2.0),
        "knn": lambda: accel.knn_query(query, 3),
    }[kind]
    search()
    assert len(syncs) == 1
    assert accel.cache.misses == 1
    search()
    assert len(syncs) == 2
    assert accel.cache.hits == 1


# ---------------------------------------------------------------------------
# DistanceCache
# ---------------------------------------------------------------------------


class TestDistanceCache:
    def test_capacity_from_mb(self):
        cache = DistanceCache(1.0, entry_bytes=1024)
        assert cache.capacity == 1024
        assert cache.enabled

    def test_disabled_cache(self):
        cache = DistanceCache(0.0)
        assert not cache.enabled
        cache.put("k", 1.0)
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DistanceCache(-1.0)
        with pytest.raises(ValueError):
            DistanceCache(1.0, entry_bytes=0)

    def test_lru_eviction_order(self):
        cache = DistanceCache(1.0, entry_bytes=1024 * 1024 // 3)  # capacity 3
        assert cache.capacity == 3
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") == 1  # refresh "a": now "b" is LRU
        cache.put("d", 4)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("d") == 4
        assert cache.evictions == 1

    def test_counters_and_clear(self):
        cache = DistanceCache(1.0)
        cache.get("missing")
        cache.put("k", 2.5)
        assert cache.get("k") == 2.5
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["invalidations"] == 1

    def test_put_refreshes_existing_key(self):
        cache = DistanceCache(1.0, entry_bytes=1024 * 1024 // 2)  # capacity 2
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert
        cache.put("c", 3)
        assert cache.get("b") is None  # b was LRU
        assert cache.get("a") == 10

    def test_thread_safety_smoke(self):
        cache = DistanceCache(1.0, entry_bytes=2048)
        errors = []

        def worker(base):
            try:
                for i in range(500):
                    cache.put(("range", base, i), float(i))
                    cache.get(("range", base, i))
                    if i % 100 == 0:
                        cache.clear()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 4 * 500


# ---------------------------------------------------------------------------
# Invalidation: mutation can never serve a stale answer
# ---------------------------------------------------------------------------


def _distances(results):
    """``(point_id, distance)`` pairs of a query result."""
    return [(p.point_id, d) for p, d in results]


class TestInvalidation:
    def _setup(self):
        net = SpatialNetwork.from_edge_list(
            [(1, 2, 10.0), (2, 3, 10.0), (1, 3, 10.0)]
        )
        points = PointSet(net)
        points.add(1, 2, 1.0, point_id=0)
        points.add(1, 2, 9.0, point_id=1)
        aug = AugmentedView(net, points)
        accel = DistanceAccelerator(
            aug, index=LandmarkIndex(net, 2), cache=DistanceCache(1.0)
        )
        return net, points, aug, accel

    def test_mutation_without_explicit_invalidate(self):
        net, points, aug, accel = self._setup()
        p0 = points.get(0)
        # A new point between p0 and p1 changes the answer of a range
        # query, and the cache must notice the version bump *without*
        # anyone calling invalidate() — the regression this guards: a
        # cache hit skips the traversal layer whose auto-check would
        # otherwise fire.
        hits_before = accel.range_query(p0, 10.0)
        assert accel.range_query(p0, 10.0) == hits_before
        assert accel.cache.hits == 1  # the warm entry a mutation must retire
        points.add(1, 2, 5.0, point_id=2)
        hits_after = accel.range_query(p0, 10.0)
        assert hits_after == range_query(
            AugmentedView(net, points), p0, 10.0
        )
        assert len(hits_after) == len(hits_before) + 1

    def test_reweigh_without_explicit_invalidate(self):
        # Re-adding an edge reweighs it without touching the point set:
        # only the network's edition moves.  The cached answers and the
        # landmark index bound to the old weights must all go.
        net, points, aug, accel = self._setup()
        p0, p5 = points.get(0), points.add(2, 3, 1.0, point_id=5)
        assert _distances(accel.knn_query(p0, 2)) == [(1, 8.0), (5, 10.0)]
        assert [p.point_id for p, _ in accel.range_query(p0, 12.0)] == [0, 1, 5]
        net.add_edge(1, 2, 30.0)
        fresh = AugmentedView(net, points)
        assert accel.range_query(p0, 12.0) == range_query(fresh, p0, 12.0)
        assert accel.knn_query(p0, 2) == knn_query(fresh, p0, 2)
        assert _distances(accel.knn_query(p0, 2))[1] == (5, 20.0)
        assert accel.index is None

    def test_point_vector_syncs_before_answering(self):
        # The public lookup must see an unannounced reweigh itself, not
        # answer from the memo of the old weights.
        net, points, aug, accel = self._setup()
        p1 = points.get(1)
        assert accel.point_vector(p1) == LandmarkIndex(net, 2).point_vector(p1)
        net.add_edge(1, 2, 30.0)
        with pytest.raises(IndexStaleError):
            accel.point_vector(p1)
        assert accel.index is None

    def test_point_vector_after_the_index_was_dropped(self):
        net, points, aug, accel = self._setup()
        p0 = points.get(0)
        net.add_edge(1, 2, 30.0)
        accel.range_query(p0, 12.0)  # syncs, and drops the index
        assert accel.index is None
        with pytest.raises(IndexStaleError):
            accel.point_vector(p0)
        with pytest.raises(IndexStaleError):
            DistanceAccelerator(aug).point_vector(p0)

    def test_remove_invalidate(self):
        net, points, aug, accel = self._setup()
        p0 = points.get(0)
        assert len(accel.knn_query(p0, 5)) == 1
        points.remove(1)
        assert accel.knn_query(p0, 5) == []

    def test_explicit_invalidate_clears_cache(self):
        net, points, aug, accel = self._setup()
        accel.knn_query(points.get(0), 1)
        assert len(accel.cache) > 0
        aug.invalidate()
        assert len(accel.cache) == 0
        assert accel.cache.invalidations == 1

    def test_shared_cache_cleared_for_all_views(self):
        net, points, aug, accel = self._setup()
        index = LandmarkIndex(net, 2)
        shared = DistanceCache(1.0)
        aug2 = AugmentedView(net, points)
        accel2 = DistanceAccelerator(aug2, index=index, cache=shared)
        p0 = points.get(0)
        accel2.range_query(p0, 15.0)
        assert len(shared) == 1
        points.add(2, 3, 5.0, point_id=7)
        # The other view's accelerator syncs on its next call and drops
        # the shared entries.
        assert accel2.range_query(p0, 15.0) == range_query(
            AugmentedView(net, points), p0, 15.0
        )
        assert shared.invalidations >= 1


# ---------------------------------------------------------------------------
# Obs integration
# ---------------------------------------------------------------------------


class TestObsCounters:
    def test_cache_counters(self):
        obs.enable(fresh=True)
        try:
            cache = DistanceCache(1.0)
            cache.get("miss")
            cache.put("k", 1.0)
            cache.get("k")
            cache.clear()
            counters = obs.snapshot()["counters"]
            assert counters["perf.cache.misses"] == 1
            assert counters["perf.cache.hits"] == 1
            assert counters["perf.cache.invalidations"] == 1
            assert counters["perf.cache.invalidated_entries"] == 1
        finally:
            obs.disable()

    def test_search_counters(self, small_network, small_points):
        obs.enable(fresh=True)
        try:
            aug = AugmentedView(small_network, small_points)
            accel = DistanceAccelerator(
                aug, index=LandmarkIndex(small_network, 2)
            )
            pts = list(small_points)
            accel.range_query(pts[0], 2.0)
            accel.knn_query(pts[0], 2)
            counters = obs.snapshot()["counters"]
            assert counters["perf.landmarks.built"] == 2
            assert counters["queries.range_queries"] == 1
            assert counters["perf.knn.queries"] == 1
        finally:
            obs.disable()

    def test_heuristic_fallback_counter(self):
        from repro.network.astar import point_distance_astar

        net = _strip_coords(
            SpatialNetwork.from_edge_list([(1, 2, 3.0), (2, 3, 4.0)])
        )
        points = PointSet(net)
        points.add(1, 2, 1.0, point_id=0)
        points.add(2, 3, 1.0, point_id=1)
        aug = AugmentedView(net, points)
        obs.enable(fresh=True)
        try:
            point_distance_astar(aug, points.get(0), points.get(1))
            counters = obs.snapshot()["counters"]
            # Once per search, not once per heuristic evaluation.
            assert counters["perf.heuristic.fallback"] == 1
        finally:
            obs.disable()
