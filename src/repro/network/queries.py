"""Network range and nearest-neighbour queries over objects.

These reproduce the query primitives of Papadias et al. [16] that the
paper's DBSCAN adaptation relies on: given a query point on the network,
find all objects within network distance ε (:func:`range_query`) or the k
closest objects (:func:`knn_query`).  Both run [16]'s network expansion:
a heap of network *nodes*, where settling a node scans the point group of
every incident edge (the groups are stored in offset order, Section 4.1),
so cost is proportional to the part of the network within range and no
object is ever a heap entry.

Both searches run one loop, :func:`_group_scan`, and differ only in its
stop rule: a range query prunes at ε, a kNN query stops once the heap
passes the k-th smallest distance found.  The accelerator in
:mod:`repro.perf` answers a range miss with this module's range search
itself, and runs a kNN miss through the same loop with its landmark
prune bound passed in, so the plain and the accelerated searches share
their arithmetic, their ``queries.settle`` checkpoint (fault site,
deadline and budget charge) and their result ordering.

Every distance is summed fold-left with the segment expressions of
:class:`~repro.network.augmented.AugmentedView` — ``first.offset`` from
the smaller endpoint, ``weight - last.offset`` from the larger, offset
differences in between — so it equals, float for float, the distance a
Dijkstra over the point-augmented graph settles the object at
(``tests/queries_reference.py`` keeps that search as the parity oracle).
"""

from __future__ import annotations

import bisect
import heapq
import math

from repro.exceptions import PointNotFoundError
from repro.faults.core import STATE as _FAULTS
from repro.network.augmented import AugmentedView
from repro.network.points import NetworkPoint, _group_order
from repro.obs.core import STATE as _OBS, add as _obs_add
from repro.resilience.deadline import STATE as _RES, settle_checkpoint

__all__ = ["range_query", "knn_query", "nearest_point"]


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
    aug.sync()
    return _range(aug, query, eps, include_query)


def _range(
    aug: AugmentedView, query: NetworkPoint, eps: float, include_query: bool
) -> list[tuple[NetworkPoint, float]]:
    """:func:`range_query` after its ``aug.sync()``, for callers that have
    just run it themselves."""
    results, settled, _ = _group_scan(aug, query, include_query, cutoff=eps)
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
    distance*: the search settles every node up to the k-th distance, so
    it has every object tied there before it sorts and cuts, and the
    smallest ids win deterministically (the accelerated search in
    :mod:`repro.perf` runs the same loop and makes the same choice).
    Fewer pairs are returned when the reachable component holds fewer
    objects.  The query point itself is excluded by default.
    """
    if k <= 0:
        return []
    aug.sync()
    return _knn(aug, query, k, include_query)


def _knn(
    aug: AugmentedView, query: NetworkPoint, k: int, include_query: bool
) -> list[tuple[NetworkPoint, float]]:
    """:func:`knn_query` after its ``aug.sync()``, for callers that have
    just run it themselves."""
    results, settled, _ = _group_scan(aug, query, include_query, k=k)
    if _OBS.enabled:
        _obs_add("queries.knn_queries")
        _obs_add("queries.vertices_settled", settled)
    return results


def _group_scan(
    aug: AugmentedView,
    query: NetworkPoint,
    include_query: bool,
    cutoff: float = math.inf,
    k: int = -1,
) -> tuple[list[tuple[NetworkPoint, float]], int, int]:
    """The one object-search loop: ``(sorted results, nodes settled,
    pushes pruned)``.  The caller has run ``aug.sync()``.

    The query's own group is walked both ways from the query; then nodes
    settle from a heap, and each settled node's incident groups are
    scanned walking away from it — every incident group, also those
    towards nodes already settled, whose far end may hold objects that
    are nearer from this side.  Each object keeps the smallest distance
    any walk gives it; the results are sorted by ``(distance, point id)``
    at the end.

    Walks and node pushes stop at the prune bound: ``cutoff`` (the range
    radius, or the landmark upper bound on the k-th neighbour's distance
    in :mod:`repro.perf`) and, when ``k > 0``, the k-th smallest distance
    found so far.  Nothing past the bound can be a result nor lie on a
    shortest path to one; each walk cut short and each node push dropped
    by it counts as one pruned push.  A kNN search stops once the heap's
    minimum exceeds the k-th distance found, so every object tied at the
    final k-th distance is found before the cut to ``k``, and the
    smallest ids win the tie.  Every node settle goes through
    :func:`~repro.resilience.deadline.settle_checkpoint` at the
    ``queries.settle`` site, with the distances found so far (point id ->
    distance) as the partial result.
    """
    network = aug.network
    neighbors = network.neighbors
    group_of = aug.points.group
    query_id = query.point_id
    qu, qv = query.u, query.v
    qgroup = group_of(qu, qv)
    j = _position(qgroup, query)
    q = qgroup[j]
    found: dict[int, float] = {}  # object id -> smallest distance found
    objects: dict[int, NetworkPoint] = {}
    if include_query:
        found[query_id] = 0.0
        objects[query_id] = q
    best: dict[int, float] = {}  # node -> tentative distance
    heap: list[tuple[float, int]] = []
    limit = cutoff  # the prune bound, lowered to a kNN's k-th distance
    pruned = 0
    # The query's own group, walked both ways from the query: each object
    # on it is met once, then the endpoint beyond is pushed.  ``abs`` of
    # an offset difference is the view's larger-minus-smaller segment bit
    # for bit (IEEE subtraction is sign-symmetric), and the positions 0
    # and ``weight`` give its node segments.  A kNN walk stops past its
    # own k-th object: those k objects are at most that far.
    weight = network.edge_weight(qu, qv)
    for far, points, end in (
        (qv, qgroup[j + 1:], weight),
        (qu, qgroup[j - 1::-1] if j else (), 0.0),
    ):
        ref = 0.0
        offset = q.offset
        bound = limit
        met = 0
        for p in points:
            ref += abs(p.offset - offset)
            offset = p.offset
            if not ref <= bound:
                pruned += 1
                break
            pid = p.point_id
            found[pid] = ref
            objects[pid] = p
            met += 1
            if met == k:
                bound = ref
        else:
            ref += abs(end - offset)
            if ref <= bound:
                best[far] = ref
                heapq.heappush(heap, (ref, far))
            else:
                pruned += 1
    # A kNN keeps the k smallest distances found, sorted: the last is the
    # k-th distance, the prune bound from then on.
    kth = math.inf
    top = sorted(found.values())[:k] if k > 0 else None
    if top is not None and len(top) == k:
        kth = top[-1]
        if kth < limit:
            limit = kth
    guard = _FAULTS.engaged or _RES.engaged
    settled = 0
    while heap:
        d, node = heapq.heappop(heap)
        if d > best[node]:
            continue  # stale: the node came closer since the push
        if d > kth:
            break
        if guard:
            settle_checkpoint("queries.settle", found)
        settled += 1
        # Scan every incident group walking away from ``node`` — also
        # towards settled nodes, whose far objects may be nearer from
        # this side — and push the far endpoint.  On the query's own
        # group the walk stops at the query, beyond which the walks from
        # the query are never longer.
        for nbr, weight in neighbors(node):
            far = nbr
            if node < nbr:
                points = group_of(node, nbr)
                offset, end = 0.0, weight
                if node == qu and nbr == qv:
                    points, far = points[:j], None
            else:
                points = group_of(nbr, node)
                offset, end = weight, 0.0
                if nbr == qu and node == qv:
                    points, far = points[:j:-1], None
                else:
                    points = reversed(points)
            ref = d
            for p in points:
                ref += abs(p.offset - offset)
                offset = p.offset
                if not ref <= limit:
                    pruned += 1
                    break
                pid = p.point_id
                old = found.get(pid)
                if old is None:
                    found[pid] = ref
                    objects[pid] = p
                elif ref < old:
                    found[pid] = ref
                else:
                    continue
                if top is not None and ref < kth:
                    # Only the multiset of values matters: an improved
                    # object at most the k-th distance gives up one
                    # occurrence of its old value.
                    if old is not None and old <= kth:
                        del top[bisect.bisect_left(top, old)]
                    bisect.insort(top, ref)
                    if len(top) > k:
                        top.pop()
                    if len(top) == k:
                        kth = limit = top[-1]
            else:
                if far is None:
                    continue
                ref += abs(end - offset)
                if not ref <= limit:
                    pruned += 1
                elif ref < best.get(far, math.inf):
                    best[far] = ref
                    heapq.heappush(heap, (ref, far))
    order = sorted(zip(found.values(), found.keys()))
    if k > 0:
        del order[k:]
    return [(objects[pid], dist) for dist, pid in order], settled, pruned


def _position(group, query: NetworkPoint) -> int:
    """The index of ``query`` in its stored group (sorted by offset, then
    point id); :class:`PointNotFoundError` when it is not there."""
    j = bisect.bisect_left(group, (query.offset, query.point_id), key=_group_order)
    if j < len(group) and group[j].point_id == query.point_id:
        return j
    raise PointNotFoundError(query.point_id)


def nearest_point(
    aug: AugmentedView, query: NetworkPoint
) -> tuple[NetworkPoint, float] | None:
    """The single nearest other object, or ``None`` if query is alone."""
    hits = knn_query(aug, query, k=1)
    return hits[0] if hits else None

