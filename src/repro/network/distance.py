"""Distance definitions of the paper (Definitions 2-4).

Three distances are defined between locations on a spatial network:

* the **direct distance** ``d_L`` between two points on the *same* edge, or
  between a point and an adjacent node (Definition 2) — computable in
  constant time;
* the **network distance** ``d(n_i, n_j)`` between two *nodes*: the length of
  the shortest path (Definition 3);
* the **network distance** ``d(p, q)`` between two *points* (Definition 4):
  the minimum over the four endpoint combinations of
  ``d_L(p, n_x) + d(n_x, n_y) + d_L(n_y, q)``, further reduced by the direct
  distance when the points share an edge.

Two independent implementations of point-to-point distance are provided:
:func:`network_distance_formula` evaluates Definition 4 literally (four
node-to-node Dijkstra distances), and :func:`network_distance` runs a single
Dijkstra over the point-augmented graph with early termination.  They are
verified equal by property tests; the augmented version is the one the
library uses internally.
"""

from __future__ import annotations

import math

from repro.exceptions import UnreachableError
from repro.network.augmented import AugmentedView, point_vertex
from repro.network.dijkstra import single_source
from repro.network.points import NetworkPoint, PointSet

__all__ = [
    "direct_distance",
    "direct_point_node_distance",
    "network_distance",
    "network_distance_formula",
    "pairwise_point_distances",
]


def direct_distance(p: NetworkPoint, q: NetworkPoint) -> float:
    """Direct distance ``d_L(p, q)`` (Definition 2).

    ``|pos_p - pos_q|`` when the points lie on the same edge, infinity
    otherwise.  Note that, as the paper stresses, the direct distance of two
    points on the same edge is *not* necessarily their shortest distance.
    """
    if p.edge == q.edge:
        return abs(p.offset - q.offset)
    return math.inf


def direct_point_node_distance(network, p: NetworkPoint, node: int) -> float:
    """Direct distance ``d_L(p, n)`` from a point to an adjacent node.

    ``pos_p`` for the smaller endpoint, ``W(e) - pos_p`` for the larger
    (Definition 2); infinity for non-adjacent nodes.
    """
    if node == p.u:
        return p.offset
    if node == p.v:
        return network.edge_weight(p.u, p.v) - p.offset
    return math.inf


def network_distance_formula(network, p: NetworkPoint, q: NetworkPoint) -> float:
    """Point-to-point network distance via the Definition 4 formula.

    Runs one Dijkstra from each endpoint of ``p``'s edge (early-terminated at
    ``q``'s endpoints) and combines with the direct distances.  Kept separate
    from :func:`network_distance` as an independently implemented oracle.
    """
    best = direct_distance(p, q)
    q_ends = (q.u, q.v)
    for nx in (p.u, p.v):
        d_p_nx = direct_point_node_distance(network, p, nx)
        node_dists = single_source(network, nx, targets=q_ends)
        for ny in q_ends:
            if ny not in node_dists:
                continue
            cand = d_p_nx + node_dists[ny] + direct_point_node_distance(network, q, ny)
            if cand < best:
                best = cand
    if math.isinf(best):
        raise UnreachableError(
            f"point {q.point_id} is not reachable from point {p.point_id}"
        )
    return best


def network_distance(
    aug: AugmentedView, p: NetworkPoint, q: NetworkPoint
) -> float:
    """Exact point-to-point network distance ``d(p, q)`` (Definition 4).

    A single Dijkstra over the point-augmented graph starting at ``p``,
    early-terminated when ``q`` is settled.  Equivalent to
    :func:`network_distance_formula` but touches only the region of the
    network between the two points.
    """
    if p.point_id == q.point_id:
        return 0.0
    target = point_vertex(q.point_id)
    dist = single_source(aug, point_vertex(p.point_id), targets=(target,))
    try:
        return dist[target]
    except KeyError:
        raise UnreachableError(
            f"point {q.point_id} is not reachable from point {p.point_id}"
        ) from None


def pairwise_point_distances(
    network, points: PointSet
) -> dict[tuple[int, int], float]:
    """All pairwise network distances between points.

    One multi-target Dijkstra over the augmented graph per point — the
    O(N^2) distance-matrix precomputation the paper's Section 3.2 discusses.
    Returned as a dict keyed by ordered ``(smaller_id, larger_id)`` pairs;
    unreachable pairs map to ``math.inf``.  Intended for baselines and for
    validating the traversal algorithms on small instances; see
    :class:`repro.baselines.matrix.DistanceMatrix` for the array-backed
    production variant.
    """
    aug = AugmentedView(network, points)
    ids = sorted(points.point_ids())
    out: dict[tuple[int, int], float] = {}
    for i, pid in enumerate(ids):
        later = ids[i + 1 :]
        if not later:
            break
        dist = single_source(
            aug,
            point_vertex(pid),
            targets=[point_vertex(other) for other in later],
        )
        for other in later:
            out[(pid, other)] = dist.get(point_vertex(other), math.inf)
    return out
