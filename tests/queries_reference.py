"""The augmented-graph object search, kept as a test-only reference for
:func:`repro.network.queries._group_scan`.

Every object is a vertex of the point-augmented graph
(:class:`~repro.network.augmented.AugmentedView`): the search pushes each
object it reaches onto the heap, reads every adjacency row through the
view's memo and resolves each hit through ``aug.points.get``.  Range and
kNN differ only in the stop rule passed in, exactly as the group scan's
callers pass theirs.  The parity tests compare the two float for float
and in order.
"""

from __future__ import annotations

import heapq
import math

from repro.faults.core import STATE as _FAULTS
from repro.network.augmented import AugmentedView, POINT, point_vertex
from repro.network.points import NetworkPoint
from repro.resilience.deadline import STATE as _RES, settle_checkpoint

__all__ = ["_search", "reference_range", "reference_knn"]


def _result_order(hit: tuple[NetworkPoint, float]) -> tuple[float, int]:
    """Canonical result ordering: ascending distance, ties by point id."""
    point, distance = hit
    return (distance, point.point_id)


def reference_range(aug, query, eps, include_query=True):
    """The augmented range query: ``range_query``'s answer."""
    if eps < 0:
        return []
    return _search(aug, query, include_query, cutoff=eps)[0]


def reference_knn(aug, query, k, include_query=False):
    """The augmented kNN query: ``knn_query``'s answer."""
    if k <= 0:
        return []
    return _search(aug, query, include_query, k=k)[0]


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
