"""Augmented-graph view: the network with objects inserted as vertices.

Several of the paper's algorithms (ε-Link, network range search per [16],
Single-Link's network traversal) conceptually walk a graph in which every
object splits the edge it lies on into consecutive segments.  Rather than
materialising that graph, :class:`AugmentedView` exposes it lazily through
``neighbors(vertex)`` over the *in-memory or disk-backed* network plus a
:class:`~repro.network.points.PointSet`: a vertex's adjacency is built on
its first visit and memoised for the life of the view, so traversal cost
stays proportional to the part of the network actually visited, exactly
the behaviour the paper's algorithms are designed for ("the algorithm does
not necessarily traverse the whole network, but only the edges which
contain the points or are within ε distance from some point").

Vertices are encoded as ``(kind, id)`` tuples, where ``kind`` is
:data:`NODE` (a network node) or :data:`POINT` (an object).  Tuples of ints
compare cheaply and are usable as heap tie-breakers.
"""

from __future__ import annotations

from repro.network.points import PointSet
from repro.obs.core import STATE as _OBS, add as _obs_add

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
        # vertex -> tuple of its (neighbour, segment) pairs; filled lazily,
        # a node on its first visit and a whole edge group on the first
        # visit to any point on it.
        self._memo: dict[Vertex, tuple[tuple[Vertex, float], ...]] = {}
        # (points.version, network.edition) the memo was built against;
        # None until the first sync(), so building a view reads nothing
        # (a view over a stale frozen backend raises at its first read,
        # like the backend itself).
        self._mark: tuple | None = None
        # Downstream consumers (distance caches, memoized landmark point
        # vectors, the landmark index) register here; invalidate() is the
        # single notification point for "the world changed under this
        # view".
        self._invalidation_hooks: list = []

    @property
    def network(self):
        return self._network

    @property
    def points(self) -> PointSet:
        return self._points

    def _watermark(self) -> tuple:
        return (
            getattr(self._points, "version", None),
            getattr(self._network, "edition", None),
        )

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, vertex: Vertex) -> tuple[tuple[Vertex, float], ...]:
        """The ``(neighbor_vertex, segment_length)`` pairs of ``vertex``."""
        if _OBS.enabled:
            # Through add(): its locked read-modify-write keeps concurrent
            # serve workers from losing expansions counted on one shared
            # view.  Disabled path unchanged — guarded by the flag above.
            _obs_add(
                "augmented.node_expansions"
                if vertex[0] == NODE
                else "augmented.point_expansions"
            )
        # sync()'s watermark check, inlined on the per-settle path.
        if (
            getattr(self._points, "version", None),
            getattr(self._network, "edition", None),
        ) != self._mark:
            self.sync()
        row = self._memo.get(vertex)
        if row is None:
            if vertex[0] == NODE:
                row = self._node_row(vertex)
            else:
                row = self._edge_rows(vertex)
        return row

    def _node_row(self, vertex: Vertex) -> tuple[tuple[Vertex, float], ...]:
        node = vertex[1]
        points_on_edge = self._points.points_on_edge
        pairs = []
        for nbr, weight in self._network.neighbors(node):
            pts = points_on_edge(node, nbr)
            if not pts:
                pairs.append(((NODE, nbr), weight))
            # The nearest point walking away from `node`: the first of the
            # sorted group if node is the smaller endpoint, else the last.
            elif node < nbr:
                first = pts[0]
                pairs.append(((POINT, first.point_id), first.offset))
            else:
                first = pts[-1]
                pairs.append(((POINT, first.point_id), weight - first.offset))
        row = self._memo[vertex] = tuple(pairs)
        return row

    def _edge_rows(self, vertex: Vertex) -> tuple[tuple[Vertex, float], ...]:
        """Memoise the rows of every point on ``vertex``'s edge in one pass
        over the sorted group; return ``vertex``'s row."""
        point = self._points.get(vertex[1])
        u, v = point.u, point.v
        group = self._points.points_on_edge(u, v)
        weight = self._network.edge_weight(u, v)
        # One tuple per vertex, shared by its own key and its neighbours'
        # rows.
        keys = [(POINT, p.point_id) for p in group]
        memo = self._memo
        last = len(group) - 1
        # Towards the smaller endpoint u, then towards the larger v.
        for i, p in enumerate(group):
            if i:
                left = (keys[i - 1], p.offset - group[i - 1].offset)
            else:
                left = ((NODE, u), p.offset)
            if i < last:
                right = (keys[i + 1], group[i + 1].offset - p.offset)
            else:
                right = ((NODE, v), weight - p.offset)
            memo[keys[i]] = pair_row = (left, right)
            if p.point_id == point.point_id:
                row = pair_row
        return row

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Catch mutations that skipped :meth:`invalidate`.

        Compares the point set's ``version`` and the network's
        ``edition`` against the watermark the memo was built at; when
        either moved, calls ``invalidate(None, reweigh=<edition moved>)``.
        Every read through the view runs it first, and so does every
        consumer that can answer from its own memo without reading (the
        :class:`~repro.perf.DistanceAccelerator`).  A frozen backend whose
        source mutated raises :class:`~repro.exceptions.StaleBackendError`
        from its ``edition``.
        """
        mark = self._watermark()
        if mark != self._mark:
            if self._mark is None:
                self._mark = mark
            else:
                self.invalidate(None, reweigh=mark[1] != self._mark[1])

    def add_invalidation_hook(self, hook) -> None:
        """Register ``hook(point_ids, reweigh)`` to run on every
        :meth:`invalidate`.

        This is the single invalidation path for every cache keyed off
        the point set or the network: :meth:`invalidate` (called by the
        mutator, or by :meth:`sync` when the watermark is observed to
        have moved) clears the view's own adjacency memo *and* tells
        every registered hook what changed, so downstream memoization —
        the :class:`~repro.perf.DistanceCache`, memoized landmark point
        vectors, the landmark index — can never serve distances for a
        world that no longer exists.
        """
        self._invalidation_hooks.append(hook)

    def invalidate(self, point_ids=None, *, reweigh: bool = False) -> None:
        """Drop the adjacency memo and notify every invalidation hook.

        Call after mutating the point set or the network.  ``point_ids``
        names the objects an insert or a remove added or took away;
        ``None`` means which objects changed is unknown (:meth:`sync`
        passes it).  ``reweigh`` says an edge weight changed, so every
        distance may have moved.  Each hook receives
        ``(point_ids, reweigh)`` as given.

        Every hook runs even when an earlier one raises — a raising hook
        must not leave later caches silently stale — and the first error
        is re-raised once all hooks have been notified.
        """
        self._memo.clear()
        self._mark = self._watermark()
        first_error: BaseException | None = None
        for hook in self._invalidation_hooks:
            try:
                hook(point_ids, reweigh)
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
