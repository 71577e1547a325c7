"""Network range and nearest-neighbour queries over objects.

These reproduce the query primitives of Papadias et al. [16] that the
paper's DBSCAN adaptation relies on: given a query point on the network,
find all objects within network distance ε (:func:`range_query`) or the k
closest objects (:func:`knn_query`).  Both expand the point-augmented graph
around the query with a Dijkstra whose frontier never exceeds the answer
region, so cost is proportional to the part of the network within range.

Each search has exactly one loop (:func:`_range_search`,
:func:`_knn_search`).  The landmark accelerator in :mod:`repro.perf` runs
the same loops with its prefilter passed in, so the plain and the
accelerated searches share their heap discipline, fault and deadline
site, budget charges and result ordering.
"""

from __future__ import annotations

import heapq
import math

from repro.faults.core import STATE as _FAULTS, fire as _fault
from repro.network.augmented import AugmentedView, POINT, point_vertex
from repro.network.points import NetworkPoint
from repro.obs.core import STATE as _OBS, add as _obs_add
from repro.resilience.deadline import STATE as _RES, check as _res_check

__all__ = ["range_query", "knn_query", "nearest_point"]


def _result_order(hit: tuple[NetworkPoint, float]) -> tuple[float, int]:
    """Canonical result ordering: ascending distance, ties by point id."""
    point, distance = hit
    return (distance, point.point_id)


def range_query(
    aug: AugmentedView,
    query: NetworkPoint,
    eps: float,
    include_query: bool = True,
) -> list[tuple[NetworkPoint, float]]:
    """All objects within network distance ``eps`` of ``query``.

    Returns ``(point, distance)`` pairs sorted by ascending distance, ties
    broken by point id (a deterministic ordering shared with the
    accelerated search in :mod:`repro.perf`).  The query point itself
    (distance 0) is included by default, matching DBSCAN's convention of
    counting the centre in its ε-neighbourhood.
    """
    if eps < 0:
        return []
    results, settled = _range_search(aug, query, eps, include_query)
    if _OBS.enabled:
        _obs_add("queries.range_queries")
        _obs_add("queries.vertices_settled", settled)
        _obs_add("queries.points_found", len(results))
    return results


def _range_search(
    aug: AugmentedView,
    query: NetworkPoint,
    eps: float,
    include_query: bool,
    candidates: set[int] | None = None,
) -> tuple[list[tuple[NetworkPoint, float]], int]:
    """The one range loop: ``(sorted results, vertices settled)``.

    ``candidates``, when given, is a set of point ids that holds every
    object within ``eps`` (the landmark prefilter of :mod:`repro.perf`).
    The search discards each point it settles from the set and stops once
    the set is empty: the remaining frontier can hold no result.  The set
    is consumed.  Every settle hits the ``queries.settle`` fault site, the
    deadline checkpoint and the active budget, with the hits found so far
    as the partial result.
    """
    guard = _FAULTS.engaged or _RES.engaged
    budget = _FAULTS.budget if guard else None
    neighbors = aug.neighbors
    get_point = aug.points.get
    results: list[tuple[NetworkPoint, float]] = []
    source = point_vertex(query.point_id)
    dist: dict = {}
    best: dict = {source: 0.0}  # tentative distances: no dominated pushes
    heap: list[tuple[float, tuple[int, int]]] = [(0.0, source)]
    while heap:
        d, vertex = heapq.heappop(heap)
        if vertex in dist:
            continue
        if guard:
            if _FAULTS.engaged:
                _fault("queries.settle")
            if _RES.engaged:
                _res_check("queries.settle", partial=results)
            if budget is not None:
                budget.spend_expansions(1, partial=results)
        dist[vertex] = d
        kind, ident = vertex
        if kind == POINT:
            if include_query or ident != query.point_id:
                results.append((get_point(ident), d))
            if candidates is not None:
                candidates.discard(ident)
                if not candidates:
                    break
        for nbr, weight in neighbors(vertex):
            if nbr in dist:
                continue
            nd = d + weight
            if nd <= eps and nd < best.get(nbr, math.inf):
                best[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    results.sort(key=_result_order)
    return results, len(dist)


def knn_query(
    aug: AugmentedView,
    query: NetworkPoint,
    k: int,
    include_query: bool = False,
) -> list[tuple[NetworkPoint, float]]:
    """The ``k`` objects with smallest network distance from ``query``.

    Returns at most ``k`` ``(point, distance)`` pairs sorted by ascending
    distance, ties broken by point id — including the tie *at the k-th
    distance*: vertices settle in ``(distance, vertex)`` order and point
    vertices encode their point id, so of several objects exactly at the
    k-th distance the smallest ids win deterministically (the accelerated
    search in :mod:`repro.perf` makes the same choice).  Fewer pairs are
    returned when the reachable component holds fewer objects.  The query
    point itself is excluded by default.
    """
    if k <= 0:
        return []
    results, settled, _ = _knn_search(aug, query, k, include_query)
    if _OBS.enabled:
        _obs_add("queries.knn_queries")
        _obs_add("queries.vertices_settled", settled)
    return results


def _knn_search(
    aug: AugmentedView,
    query: NetworkPoint,
    k: int,
    include_query: bool,
    cutoff: float = math.inf,
) -> tuple[list[tuple[NetworkPoint, float]], int, int]:
    """The one kNN loop: ``(sorted results, vertices settled, pushes pruned)``.

    ``cutoff``, when finite, bounds the k-th neighbour's distance from
    above (the landmark prefilter of :mod:`repro.perf`): a push beyond it
    can neither be a result nor lie on a shortest path to one, so it is
    dropped and counted.  Settles are guarded as in :func:`_range_search`.
    """
    guard = _FAULTS.engaged or _RES.engaged
    budget = _FAULTS.budget if guard else None
    neighbors = aug.neighbors
    get_point = aug.points.get
    results: list[tuple[NetworkPoint, float]] = []
    source = point_vertex(query.point_id)
    dist: dict = {}
    best: dict = {source: 0.0}  # tentative distances: no dominated pushes
    heap: list[tuple[float, tuple[int, int]]] = [(0.0, source)]
    pruned = 0
    while heap and len(results) < k:
        d, vertex = heapq.heappop(heap)
        if vertex in dist:
            continue
        if guard:
            if _FAULTS.engaged:
                _fault("queries.settle")
            if _RES.engaged:
                _res_check("queries.settle", partial=results)
            if budget is not None:
                budget.spend_expansions(1, partial=results)
        dist[vertex] = d
        kind, ident = vertex
        if kind == POINT and (include_query or ident != query.point_id):
            results.append((get_point(ident), d))
            if len(results) == k:
                break
        for nbr, weight in neighbors(vertex):
            if nbr in dist:
                continue
            nd = d + weight
            if nd > cutoff:
                pruned += 1
                continue
            if nd < best.get(nbr, math.inf):
                best[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    results.sort(key=_result_order)
    return results, len(dist), pruned


def nearest_point(
    aug: AugmentedView, query: NetworkPoint
) -> tuple[NetworkPoint, float] | None:
    """The single nearest other object, or ``None`` if query is alone."""
    hits = knn_query(aug, query, k=1)
    return hits[0] if hits else None

