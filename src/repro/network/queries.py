"""Network range and nearest-neighbour queries over objects.

These reproduce the query primitives of Papadias et al. [16] that the
paper's DBSCAN adaptation relies on: given a query point on the network,
find all objects within network distance ε (:func:`range_query`) or the k
closest objects (:func:`knn_query`).  Both expand the point-augmented graph
around the query with a Dijkstra whose frontier never exceeds the answer
region, so cost is proportional to the part of the network within range.

Both searches run one loop, :func:`_search`, and differ only in its stop
rule: a range query prunes pushes beyond ε, a kNN query stops past the
k-th object's distance.  The landmark accelerator in :mod:`repro.perf`
runs the same loop with its prefilter passed in (a candidate set, a push
cutoff), so the plain and the accelerated searches share their heap
discipline, their ``queries.settle`` checkpoint (fault site, deadline and
budget charge) and their result ordering.
"""

from __future__ import annotations

import heapq
import math

from repro.faults.core import STATE as _FAULTS
from repro.network.augmented import AugmentedView, POINT, point_vertex
from repro.network.points import NetworkPoint
from repro.obs.core import STATE as _OBS, add as _obs_add
from repro.resilience.deadline import STATE as _RES, settle_checkpoint

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
    results, settled, _ = _search(aug, query, include_query, cutoff=eps)
    if _OBS.enabled:
        _obs_add("queries.range_queries")
        _obs_add("queries.vertices_settled", settled)
        _obs_add("queries.points_found", len(results))
    return results


def knn_query(
    aug: AugmentedView,
    query: NetworkPoint,
    k: int,
    include_query: bool = False,
) -> list[tuple[NetworkPoint, float]]:
    """The ``k`` objects with smallest network distance from ``query``.

    Returns at most ``k`` ``(point, distance)`` pairs sorted by ascending
    distance, ties broken by point id — including the tie *at the k-th
    distance*: the search collects every object exactly at the k-th
    distance before it sorts and cuts, so the smallest ids win
    deterministically (the accelerated search in :mod:`repro.perf` runs
    the same loop and makes the same choice).  Fewer pairs are
    returned when the reachable component holds fewer objects.  The query
    point itself is excluded by default.
    """
    if k <= 0:
        return []
    results, settled, _ = _search(aug, query, include_query, k=k)
    if _OBS.enabled:
        _obs_add("queries.knn_queries")
        _obs_add("queries.vertices_settled", settled)
    return results


def _search(
    aug: AugmentedView,
    query: NetworkPoint,
    include_query: bool,
    cutoff: float = math.inf,
    k: int = -1,
    candidates: set[int] | None = None,
) -> tuple[list[tuple[NetworkPoint, float]], int, int]:
    """The one object-search loop: ``(sorted results, vertices settled,
    pushes pruned)``.

    Expands the augmented graph around ``query`` and collects objects in
    settle order, which is ascending distance but not always ascending
    point id among equal distances: coincident objects reached from the
    larger endpoint of their edge settle in descending id order, over
    their zero-length segment.  So the results are sorted by
    ``(distance, point id)`` at the end.

    A push beyond ``cutoff`` is counted and dropped: it can neither be a
    result nor lie on a shortest path to one (the range radius, or the
    landmark upper bound on the k-th neighbour's distance in
    :mod:`repro.perf`).  When ``k > 0`` the search goes on past the
    ``k``-th collected object only while vertices settle at exactly its
    distance, pushing nothing farther, so every object tied with it is
    collected before the sort; the results are then cut to ``k``, and
    the smallest ids win the tie.  ``candidates``, when given, is a set
    of point ids that holds every result (the landmark range prefilter):
    each settled object, the query included, is discarded from it, and
    the search stops once it is empty.  The set is consumed.  Every settle
    goes through :func:`~repro.resilience.deadline.settle_checkpoint` at
    the ``queries.settle`` site, with the hits found so far as the
    partial result.
    """
    guard = _FAULTS.engaged or _RES.engaged
    neighbors = aug.neighbors
    get_point = aug.points.get
    results: list[tuple[NetworkPoint, float]] = []
    query_id = query.point_id
    source = point_vertex(query_id)
    dist: dict = {}
    best: dict = {source: 0.0}  # tentative distances: no dominated pushes
    heap: list[tuple[float, tuple[int, int]]] = [(0.0, source)]
    pruned = 0
    kth = math.inf  # the k-th collected object's distance, once there is one
    while heap:
        d, vertex = heapq.heappop(heap)
        if vertex in dist:
            continue
        if d > kth:
            break
        if guard:
            settle_checkpoint("queries.settle", results)
        dist[vertex] = d
        kind, ident = vertex
        if kind == POINT:
            if include_query or ident != query_id:
                results.append((get_point(ident), d))
                if len(results) == k:
                    kth = d
            if candidates is not None:
                candidates.discard(ident)
                if not candidates:
                    break
        if d == kth:
            # Past the k-th object only a tie at its distance can still
            # be a result: follow the zero-length segments, nothing else.
            for nbr, weight in neighbors(vertex):
                if (d + weight == d and nbr not in dist
                        and d < best.get(nbr, math.inf)):
                    best[nbr] = d
                    heapq.heappush(heap, (d, nbr))
            if heap and heap[0][0] == d:
                continue
            break
        for nbr, weight in neighbors(vertex):
            if nbr in dist:
                continue
            nd = d + weight
            if nd <= cutoff:
                if nd < best.get(nbr, math.inf):
                    best[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
            else:
                pruned += 1
    results.sort(key=_result_order)
    if k > 0:
        del results[k:]
    return results, len(dist), pruned


def nearest_point(
    aug: AugmentedView, query: NetworkPoint
) -> tuple[NetworkPoint, float] | None:
    """The single nearest other object, or ``None`` if query is alone."""
    hits = knn_query(aug, query, k=1)
    return hits[0] if hits else None

