"""Augmented-graph view: the network with objects inserted as vertices.

Several of the paper's algorithms (ε-Link, network range search per [16],
Single-Link's network traversal) conceptually walk a graph in which every
object splits the edge it lies on into consecutive segments.  Rather than
materialising that graph, :class:`AugmentedView` exposes it lazily through a
``neighbors(vertex)`` iterator over the *in-memory or disk-backed* network
plus a :class:`~repro.network.points.PointSet` — so traversal cost stays
proportional to the part of the network actually visited, exactly the
behaviour the paper's algorithms are designed for ("the algorithm does not
necessarily traverse the whole network, but only the edges which contain the
points or are within ε distance from some point").

Vertices are encoded as ``(kind, id)`` tuples, where ``kind`` is
:data:`NODE` (a network node) or :data:`POINT` (an object).  Tuples of ints
compare cheaply and are usable as heap tie-breakers.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.network.points import NetworkPoint, PointSet
from repro.obs.core import STATE as _OBS, add as _obs_add
from repro.resilience.deadline import STATE as _RES, check as _res_check

__all__ = ["AugmentedView", "NODE", "POINT", "node_vertex", "point_vertex"]

NODE = 0
POINT = 1

Vertex = tuple[int, int]


def node_vertex(node: int) -> Vertex:
    """Vertex encoding of a network node."""
    return (NODE, node)


def point_vertex(point_id: int) -> Vertex:
    """Vertex encoding of an object (point)."""
    return (POINT, point_id)


class AugmentedView:
    """Read-only adjacency view of the point-augmented network.

    Parameters
    ----------
    network:
        Backend with ``neighbors(node)`` and ``edge_weight(u, v)``.
    points:
        The objects placed on the network's edges.

    Notes
    -----
    Distances in this view equal true network distances (Definition 4):
    walking an edge through its intermediate points sums segment lengths back
    to the edge weight, and a point's only neighbours are its adjacent
    points/nodes along its own edge.
    """

    def __init__(self, network, points: PointSet) -> None:
        self._network = network
        self._points = points
        # point_id -> index of the point inside its sorted edge group;
        # built lazily one edge at a time.
        self._index_cache: dict[int, int] = {}
        self._indexed_edges: set[tuple[int, int]] = set()
        # Downstream consumers (distance caches, memoized landmark point
        # vectors, the landmark index) register here; invalidate() is the
        # single notification point for "the world changed under this
        # view".
        self._invalidation_hooks: list = []
        self._points_version = getattr(points, "version", None)

    @property
    def network(self):
        return self._network

    @property
    def points(self) -> PointSet:
        return self._points

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _edge_index(self, point: NetworkPoint) -> int:
        """Index of ``point`` within the sorted point list of its edge."""
        if self._points_version is not None:
            version = self._points.version
            if version != self._points_version:
                # The point set mutated without an explicit invalidate():
                # drop the stale indexes (and notify downstream caches
                # that it is unknown which objects changed) before
                # serving from them.
                self.invalidate()
        if point.edge not in self._indexed_edges:
            for i, p in enumerate(self._points.points_on_edge(point.u, point.v)):
                self._index_cache[p.point_id] = i
            self._indexed_edges.add(point.edge)
        return self._index_cache[point.point_id]

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, vertex: Vertex) -> Iterator[tuple[Vertex, float]]:
        """Iterate ``(neighbor_vertex, segment_length)`` pairs of ``vertex``."""
        kind, ident = vertex
        if _RES.engaged:
            # Cooperative deadline/cancel checkpoint: every traversal over
            # this view funnels through here, so even loops without their
            # own per-settle guard stay responsive.
            _res_check("augmented.neighbors")
        if _OBS.enabled:
            # Through add(): its locked read-modify-write keeps concurrent
            # serve workers from losing expansions counted on one shared
            # view.  Disabled path unchanged — guarded by the flag above.
            _obs_add(
                "augmented.node_expansions"
                if kind == NODE
                else "augmented.point_expansions"
            )
        if kind == NODE:
            yield from self._node_neighbors(ident)
        else:
            yield from self._point_neighbors(ident)

    def _node_neighbors(self, node: int) -> Iterator[tuple[Vertex, float]]:
        for nbr, weight in self._network.neighbors(node):
            pts = self._points.points_on_edge(node, nbr)
            if not pts:
                yield (node_vertex(nbr), weight)
                continue
            # The nearest point walking away from `node`: the first of the
            # sorted group if node is the smaller endpoint, else the last.
            if node < nbr:
                first = pts[0]
                yield (point_vertex(first.point_id), first.offset)
            else:
                first = pts[-1]
                yield (point_vertex(first.point_id), weight - first.offset)

    def _point_neighbors(self, point_id: int) -> Iterator[tuple[Vertex, float]]:
        point = self._points.get(point_id)
        group = self._points.points_on_edge(point.u, point.v)
        idx = self._edge_index(point)
        weight = self._network.edge_weight(point.u, point.v)
        # Towards the smaller endpoint u.
        if idx > 0:
            prev = group[idx - 1]
            yield (point_vertex(prev.point_id), point.offset - prev.offset)
        else:
            yield (node_vertex(point.u), point.offset)
        # Towards the larger endpoint v.
        if idx + 1 < len(group):
            nxt = group[idx + 1]
            yield (point_vertex(nxt.point_id), nxt.offset - point.offset)
        else:
            yield (node_vertex(point.v), weight - point.offset)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def add_invalidation_hook(self, hook) -> None:
        """Register ``hook(point_ids, reweigh)`` to run on every
        :meth:`invalidate`.

        This is the single invalidation path for every cache keyed off
        the point set or the network: :meth:`invalidate` (called by the
        mutator, or automatically when the point set's ``version`` is
        observed to have moved) clears the view's own edge indexes *and*
        tells every registered hook what changed, so downstream
        memoization — the :class:`~repro.perf.DistanceCache`, memoized
        landmark point vectors, the landmark index — can never serve
        distances for a world that no longer exists.
        """
        self._invalidation_hooks.append(hook)

    def invalidate(self, point_ids=None, *, reweigh: bool = False) -> None:
        """Drop cached edge indexes and notify every invalidation hook.

        Call after mutating the point set or the network.  ``point_ids``
        names the objects an insert or a remove added or took away;
        ``None`` means which objects changed is unknown (the version
        auto-check passes it).  ``reweigh`` says an edge weight changed,
        so every distance may have moved.  Each hook receives
        ``(point_ids, reweigh)`` as given.

        Every hook runs even when an earlier one raises — a raising hook
        must not leave later caches silently stale — and the first error
        is re-raised once all hooks have been notified.
        """
        self._index_cache.clear()
        self._indexed_edges.clear()
        self._points_version = getattr(self._points, "version", None)
        first_error: BaseException | None = None
        for hook in self._invalidation_hooks:
            try:
                hook(point_ids, reweigh)
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
