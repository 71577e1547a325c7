"""Range and kNN by group scan against the augmented-graph search.

:func:`repro.network.queries.range_query` and
:func:`~repro.network.queries.knn_query` run [16]'s network expansion: a
heap of nodes whose settles scan the incident point groups.
``tests/queries_reference.py`` keeps the search they replaced, a
Dijkstra over the point-augmented graph with every object a vertex.
Both sum each distance fold-left with the same segment expressions, so
their answers must be equal float for float and in order, on the dict,
CSR and store backends, at exact ties and at ties within an ulp, for
either value of ``include_query``.  The accelerated searches must give
the same answers, and a search must still see a mutation nobody
announced and refuse a stale frozen CSR.
"""

from __future__ import annotations

import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.exceptions import StaleBackendError
from repro.network.augmented import AugmentedView
from repro.network.csr import CSRNetwork
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet
from repro.network.queries import knn_query, range_query
from repro.perf import DistanceAccelerator, DistanceCache, LandmarkIndex
from repro.storage.netstore import NetworkStore
from tests.conftest import make_random_connected_network, scatter_points
from tests.queries_reference import reference_knn, reference_range
from tests.test_queries import _tied_grid
from tests.strategies import decimal_instance


def _views(net, pts, directory):
    """``(backend, view, its point set)`` on dict, CSR and store."""
    yield "dict", AugmentedView(net, pts), pts
    yield "csr", AugmentedView(CSRNetwork.freeze(net), pts), pts
    store = NetworkStore.build(str(Path(directory) / "q.db"), net, pts)
    try:
        stored = store.points()
        yield "store", AugmentedView(store, stored), stored
    finally:
        store.close()


def _reference_distances(net, pts) -> dict[int, list[float]]:
    """Query id -> the distinct distances its reference range sees."""
    aug = AugmentedView(net, pts)
    return {
        q.point_id: sorted({d for _, d in reference_range(aug, q, math.inf)})
        for q in pts
    }


def _check(net, pts, directory, eps_values=None, k_values=None):
    """Every object as the query: range at each radius and kNN at each k
    equal the reference over the dict view, on every backend."""
    reference = AugmentedView(net, pts)
    distances = _reference_distances(net, pts) if eps_values is None else None
    ks = k_values or range(1, len(pts) + 2)
    for backend, aug, points in _views(net, pts, directory):
        for query in points:
            qid = query.point_id
            radii = distances[qid] if eps_values is None else eps_values
            for include in (True, False):
                for eps in radii:
                    expected = reference_range(reference, pts.get(qid), eps, include)
                    assert range_query(aug, query, eps, include) == expected, (
                        backend, qid, eps, include)
                for k in ks:
                    expected = reference_knn(reference, pts.get(qid), k, include)
                    assert knn_query(aug, query, k, include) == expected, (
                        backend, qid, k, include)


@pytest.mark.parametrize("seed", range(6))
def test_random_floats(seed, tmp_path):
    rng = random.Random(seed)
    net = make_random_connected_network(rng, 14, extra_edges=7)
    pts = scatter_points(rng, net, 30)
    _check(net, pts, tmp_path, eps_values=(0.0, 0.7, 2.5, 6.0, 40.0),
           k_values=(1, 2, 5, 12))


@settings(max_examples=60, deadline=None)
@given(decimal_instance(max_nodes=6, max_points=8))
def test_decimal_ties_at_computed_distances(instance):
    """Decimal weights and tenth offsets tie, or differ within an ulp,
    when summed in different orders: every radius is a distance the
    reference computed, and every k from 1 past the set size, so the
    cut falls on every distance tie."""
    net, pts, _ = instance
    with tempfile.TemporaryDirectory() as directory:
        _check(net, pts, directory)


def test_integer_all_ties_grid(tmp_path):
    """A unit grid with objects at offsets 0, 0.5 and 1, many coincident
    or on a node: every distance is a multiple of 0.5."""
    _check(*_tied_grid(), tmp_path)


def test_coincident_objects_and_edge_ends(tmp_path):
    """Coincident objects, objects at offset 0 and at the weight, an
    edge with objects at both ends only."""
    net = SpatialNetwork.from_edge_list(
        [(1, 2, 2.0), (2, 3, 3.0), (1, 3, 4.0), (3, 4, 1.5)]
    )
    pts = PointSet(net)
    pts.add(2, 3, 1.0)
    pts.add(1, 2, 0.5)
    pts.add(1, 2, 0.5)
    pts.add(1, 2, 0.0)
    pts.add(1, 2, 2.0)
    pts.add(1, 3, 0.0)
    pts.add(1, 3, 4.0)
    pts.add(3, 4, 1.5)
    pts.add(3, 4, 1.5)
    _check(net, pts, tmp_path)


def test_k_beyond_the_component_and_disconnected(tmp_path):
    """Two components: no answer crosses, and a k larger than the
    query's component returns the component."""
    net = SpatialNetwork.from_edge_list(
        [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 2.5), (10, 11, 1.0), (11, 12, 1.0)]
    )
    pts = PointSet(net)
    for u, v, off in ((1, 2, 0.3), (2, 3, 1.1), (1, 3, 2.0), (10, 11, 0.5),
                      (11, 12, 0.25), (11, 12, 0.75)):
        pts.add(u, v, off)
    _check(net, pts, tmp_path, eps_values=(0.0, 1.0, 100.0, math.inf),
           k_values=(1, 2, 3, 4, 10))
    aug = AugmentedView(net, pts)
    assert [p.point_id for p, _ in knn_query(aug, pts.get(3), 10)] == [4, 5]


def test_nan_radius_admits_nothing_but_the_query():
    net = SpatialNetwork.from_edge_list([(1, 2, 1.0)])
    pts = PointSet(net)
    pts.add(1, 2, 0.2)
    pts.add(1, 2, 0.2)
    aug = AugmentedView(net, pts)
    query = pts.get(0)
    for include in (True, False):
        expected = reference_range(aug, query, math.nan, include)
        assert range_query(aug, query, math.nan, include) == expected
    assert [p.point_id for p, _ in range_query(aug, query, math.nan)] == [0]


@pytest.mark.parametrize("seed", range(3))
def test_accelerated_equals_plain(seed):
    rng = random.Random(seed)
    net = make_random_connected_network(rng, 20, extra_edges=8)
    pts = scatter_points(rng, net, 40)
    aug = AugmentedView(net, pts)
    accels = [
        DistanceAccelerator(aug, index=LandmarkIndex(net, 4)),
        DistanceAccelerator(aug, index=LandmarkIndex(net, 4),
                            cache=DistanceCache(1.0)),
    ]
    for accel in accels:
        for query in pts:
            for include in (True, False):
                for eps in (0.0, 1.5, 5.0):
                    assert accel.range_query(query, eps, include) == \
                        reference_range(aug, query, eps, include)
                for k in (1, 4, 41):
                    assert accel.knn_query(query, k, include) == \
                        reference_knn(aug, query, k, include)


def test_unannounced_mutation_is_seen():
    """A point added or an edge reweighed without ``invalidate``: the
    next search answers for the new world, plain and accelerated."""
    net = SpatialNetwork.from_edge_list([(1, 2, 10.0), (2, 3, 10.0), (1, 3, 10.0)])
    pts = PointSet(net)
    pts.add(1, 2, 1.0, point_id=0)
    pts.add(1, 2, 9.0, point_id=1)
    aug = AugmentedView(net, pts)
    accel = DistanceAccelerator(aug, cache=DistanceCache(1.0))
    query = pts.get(0)
    assert len(range_query(aug, query, 10.0)) == 2
    assert len(accel.range_query(query, 10.0)) == 2
    pts.add(1, 2, 5.0, point_id=2)
    pts.add(2, 3, 1.0, point_id=3)
    for hits in (range_query(aug, query, 10.0), accel.range_query(query, 10.0)):
        assert hits == reference_range(AugmentedView(net, pts), query, 10.0)
        assert [p.point_id for p, _ in hits] == [0, 2, 1, 3]
    net.add_edge(1, 2, 30.0)
    fresh = AugmentedView(net, pts)
    for hits in (knn_query(aug, query, 3), accel.knn_query(query, 3)):
        assert hits == reference_knn(fresh, query, 3)


def test_stale_frozen_csr_raises():
    net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (2, 3, 1.0)])
    pts = PointSet(net)
    pts.add(1, 2, 0.5)
    pts.add(2, 3, 0.5)
    aug = AugmentedView(CSRNetwork.freeze(net), pts)
    query = pts.get(0)
    assert len(range_query(aug, query, 5.0)) == 2
    net.add_edge(1, 3, 0.5)
    with pytest.raises(StaleBackendError):
        range_query(aug, query, 5.0)
    with pytest.raises(StaleBackendError):
        knn_query(aug, query, 1)
