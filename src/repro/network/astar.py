"""Euclidean-bounded (A*) shortest-path search.

The network query algorithms of Papadias et al. [16], which the paper builds
on, "are extensions of Dijkstra's shortest path that utilize Euclidean
distance bounds to accelerate search": when edge weights are lengths (or any
measure that upper-bounds progress through space), the straight-line
distance to the target never overestimates the remaining network distance,
so it is an admissible A* heuristic — the search settles far fewer vertices
on its way to the target than blind Dijkstra while returning the exact same
distance (a tested invariant).

Use :func:`node_distance_astar` / :func:`point_distance_astar` when node
coordinates are available and weights satisfy
``W(u, v) >= euclidean(u, v)`` (true by construction for the paper's
experimental networks, where weights *are* the Euclidean distances).  The
functions fall back to plain Dijkstra when coordinates are missing.
"""

from __future__ import annotations

import heapq
import math

from repro.exceptions import MissingCoordinatesError, UnreachableError
from repro.faults.core import STATE as _FAULTS
from repro.network.augmented import AugmentedView, NODE, point_vertex
from repro.network.points import NetworkPoint
from repro.obs.core import add as _obs_add
from repro.resilience.deadline import STATE as _RES, settle_checkpoint

__all__ = ["node_distance_astar", "point_distance_astar"]


def _zero_heuristic(_vertex) -> float:
    return 0.0


def _heuristic_fallback() -> None:
    """Record that a search degraded to h = 0 (blind Dijkstra).

    Counted once per search (whole-search fallback) or once per search on
    the first partially-coordinated vertex — never per heuristic call.
    """
    _obs_add("perf.heuristic.fallback")


def _node_heuristic(network, target: int):
    """h(node) = straight-line distance to the target, or 0 without coords.

    Only the *missing coordinates* condition degrades the heuristic:
    backends without a ``node_coords`` accessor (the disk store) and nodes
    that simply carry no position fall back to h = 0, which keeps the
    search exact.  Everything else — unknown nodes, injected I/O faults,
    real bugs — propagates; swallowing it here would silently turn every
    A* into a full Dijkstra with no sign anything went wrong.
    """
    node_coords = getattr(network, "node_coords", None)
    if node_coords is None:
        _heuristic_fallback()
        return _zero_heuristic
    try:
        tx, ty = node_coords(target)
    except MissingCoordinatesError:
        _heuristic_fallback()
        return _zero_heuristic

    fellback = False

    def h(node: int) -> float:
        try:
            x, y = node_coords(node)
        except MissingCoordinatesError:
            # A partially-coordinated network: h = 0 for this node only
            # (still admissible).  Count the degradation once per search.
            nonlocal fellback
            if not fellback:
                fellback = True
                _heuristic_fallback()
            return 0.0
        return math.hypot(x - tx, y - ty)

    return h


def node_distance_astar(
    network, source: int, target: int
) -> tuple[float, int]:
    """Exact network distance between two nodes via A*.

    Returns ``(distance, vertices_settled)`` — the second value is the
    efficiency measure the Euclidean bound improves.  Raises
    :class:`UnreachableError` when no path exists.
    """
    if source == target:
        return 0.0, 0
    h = _node_heuristic(network, target)
    return _astar(
        network.neighbors, source, target, h,
        f"node {target} is not reachable from node {source}",
    )


def point_distance_astar(
    aug: AugmentedView, p: NetworkPoint, q: NetworkPoint
) -> tuple[float, int]:
    """Exact point-to-point network distance (Definition 4) via A*.

    Runs over the point-augmented graph with the Euclidean
    distance-to-target heuristic; point vertices use their interpolated
    positions.  Returns ``(distance, vertices_settled)``.
    """
    if p.point_id == q.point_id:
        return 0.0, 0
    network = aug.network
    if getattr(network, "node_coords", None) is None:
        _heuristic_fallback()
        h = _zero_heuristic
    else:
        try:
            tx, ty = q.coords(network)
        except MissingCoordinatesError:
            _heuristic_fallback()
            h = _zero_heuristic
        else:
            fellback = False

            def h(vertex) -> float:
                kind, ident = vertex
                try:
                    if kind == NODE:
                        x, y = network.node_coords(ident)
                    else:
                        x, y = aug.points.get(ident).coords(network)
                except MissingCoordinatesError:
                    nonlocal fellback
                    if not fellback:
                        fellback = True
                        _heuristic_fallback()
                    return 0.0
                return math.hypot(x - tx, y - ty)

    return _astar(
        aug.neighbors, point_vertex(p.point_id), point_vertex(q.point_id), h,
        f"point {q.point_id} is not reachable from point {p.point_id}",
    )


def _astar(neighbors, source, target, h, unreachable: str) -> tuple[float, int]:
    """The one A* loop: ``(distance, vertices settled)`` from ``source``
    to ``target`` over ``neighbors``, ordered by ``g + h``.

    Raises :class:`UnreachableError` with the message ``unreachable``
    when the target is not reachable.  Every settle goes through
    :func:`~repro.resilience.deadline.settle_checkpoint` at the
    ``astar.settle`` site, with the settled set as the partial result.
    """
    guard = _FAULTS.engaged or _RES.engaged
    best = {source: 0.0}
    settled: set = set()
    heap: list = [(h(source), 0.0, source)]
    while heap:
        _, g, vertex = heapq.heappop(heap)
        if vertex in settled:
            continue
        if guard:
            settle_checkpoint("astar.settle", settled)
        settled.add(vertex)
        if vertex == target:
            return g, len(settled)
        for nbr, weight in neighbors(vertex):
            ng = g + weight
            if ng < best.get(nbr, math.inf):
                best[nbr] = ng
                heapq.heappush(heap, (ng + h(nbr), ng, nbr))
    raise UnreachableError(unreachable)
