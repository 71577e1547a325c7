"""Objects (points) located on the edges of a spatial network.

Per Definition 1 of the paper, an object lies on exactly one edge ``e`` and
its position is the triplet ``<n_i, n_j, pos>`` with ``n_i < n_j`` and
``pos`` in ``[0, W(e)]`` being the distance of the object from ``n_i`` along
the edge.

:class:`NetworkPoint` is the immutable object record and :class:`PointSet`
stores a collection of points *grouped by edge and sorted by offset* — the
same physical organisation as the paper's points flat file ("for the points
on the same edge, IDs are sequential and their position offsets are in
ascending order"), which is what the traversal-based algorithms (ε-Link,
Single-Link) rely on to walk an edge point-by-point.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Sequence
from operator import attrgetter

from repro.exceptions import (
    EdgeNotFoundError,
    InvalidPositionError,
    PointNotFoundError,
)
from repro.network.graph import SpatialNetwork, normalize_edge

__all__ = ["NetworkPoint", "PointSet", "trusted_point"]

# Offsets within this absolute tolerance of the edge ends are clamped, so
# that generators producing pos = W(e) + 1e-15 via float rounding still yield
# valid placements.
_POSITION_TOLERANCE = 1e-9


class NetworkPoint:
    """An immutable object located on a network edge.

    Attributes
    ----------
    point_id:
        Unique integer identifier.
    u, v:
        Canonical edge endpoints, ``u < v``.
    offset:
        Distance of the point from ``u`` along the edge, in ``[0, W(u, v)]``.
    label:
        Optional ground-truth cluster label (used by the synthetic data
        generator and the effectiveness experiments); ``None`` if unknown.
        By convention the generator uses ``-1`` for planted outliers.
    """

    __slots__ = ("point_id", "u", "v", "offset", "label")

    def __init__(
        self,
        point_id: int,
        u: int,
        v: int,
        offset: float,
        label: int | None = None,
    ) -> None:
        a, b = normalize_edge(u, v)
        if (a, b) != (u, v):
            # Caller gave the edge in reverse order: mirror the offset so the
            # physical location is preserved.  We cannot do that without the
            # edge weight, so insist on canonical input instead.
            raise InvalidPositionError(
                f"point {point_id}: edge must be given in canonical order "
                f"({a}, {b}), got ({u}, {v})"
            )
        object.__setattr__(self, "point_id", int(point_id))
        object.__setattr__(self, "u", int(u))
        object.__setattr__(self, "v", int(v))
        object.__setattr__(self, "offset", float(offset))
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NetworkPoint is immutable")

    @property
    def edge(self) -> tuple[int, int]:
        """The canonical edge ``(u, v)`` the point lies on."""
        return (self.u, self.v)

    def coords(self, network: SpatialNetwork) -> tuple[float, float]:
        """Interpolated planar coordinates of the point (needs node coords).

        The interpolation is linear along the straight segment between the
        endpoints; it is used only for visualisation and for the Euclidean
        baseline, never by the network-distance algorithms.
        """
        ux, uy = network.node_coords(self.u)
        vx, vy = network.node_coords(self.v)
        weight = network.edge_weight(self.u, self.v)
        t = 0.0 if weight == 0 else min(max(self.offset / weight, 0.0), 1.0)
        return (ux + t * (vx - ux), uy + t * (vy - uy))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkPoint):
            return NotImplemented
        return (
            self.point_id == other.point_id
            and self.u == other.u
            and self.v == other.v
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((self.point_id, self.u, self.v, self.offset))

    def __repr__(self) -> str:
        return (
            f"NetworkPoint(id={self.point_id}, edge=({self.u}, {self.v}), "
            f"offset={self.offset:.4g})"
        )


_new_object = object.__new__
_set_id, _set_u, _set_v, _set_offset, _set_label = (
    NetworkPoint.__dict__[name].__set__
    for name in ("point_id", "u", "v", "offset", "label")
)


def trusted_point(
    point_id: int, u: int, v: int, offset: float, label: int | None
) -> NetworkPoint:
    """A :class:`NetworkPoint` built without its constructor's checks.

    For callers that already hold a checked placement: an ``int`` id,
    canonical ``u < v`` and a ``float`` offset within the edge.  About a
    third of the cost of ``NetworkPoint(...)``.
    """
    point = _new_object(NetworkPoint)
    _set_id(point, point_id)
    _set_u(point, u)
    _set_v(point, v)
    _set_offset(point, offset)
    _set_label(point, label)
    return point


#: A group's sort key: ascending offset, ties broken by point id.
_group_order = attrgetter("offset", "point_id")


class PointSet:
    """A collection of :class:`NetworkPoint` grouped by edge.

    Points on the same edge are kept sorted by ascending offset, mirroring
    the point-group organisation of the paper's points file.  All placements
    are validated against the network's edges and weights.

    Parameters
    ----------
    network:
        The network the points lie on.  Held by reference; the point set does
        not modify it.
    """

    def __init__(self, network: SpatialNetwork) -> None:
        self._network = network
        self._by_id: dict[int, NetworkPoint] = {}
        # edge -> list of points sorted by offset (ties broken by point id,
        # which keeps insertion deterministic).
        self._by_edge: dict[tuple[int, int], list[NetworkPoint]] = {}
        #: Bumped on every mutation; consumers that memoise anything derived
        #: from the point set (the augmented adjacency memo, distance
        #: caches, landmark tables) compare it against the version they
        #: captured and drop their state when it moved — see
        #: ``AugmentedView.sync``.
        self.version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def network(self) -> SpatialNetwork:
        """The underlying spatial network."""
        return self._network

    def add(
        self,
        u: int,
        v: int,
        offset: float,
        point_id: int | None = None,
        label: int | None = None,
    ) -> NetworkPoint:
        """Place a new point on edge ``(u, v)`` at ``offset`` from ``min(u, v)``.

        ``offset`` may be given relative to either order of the endpoints:
        if ``u > v`` the pair is canonicalised and the offset mirrored, so
        ``add(5, 2, 1.0)`` places the point 1.0 from node 5.

        Returns the created :class:`NetworkPoint`.
        """
        a, b = normalize_edge(u, v)
        weight = self._network.edge_weight(a, b)  # raises if edge missing
        offset = float(offset)
        if (u, v) != (a, b):
            offset = weight - offset
        if offset < -_POSITION_TOLERANCE or offset > weight + _POSITION_TOLERANCE:
            raise InvalidPositionError(
                f"offset {offset!r} outside [0, {weight!r}] on edge ({a}, {b})"
            )
        offset = min(max(offset, 0.0), weight)
        if point_id is None:
            point_id = len(self._by_id)
            while point_id in self._by_id:
                point_id += 1
        elif point_id in self._by_id:
            raise InvalidPositionError(f"point id {point_id} already in use")
        point = NetworkPoint(point_id, a, b, offset, label=label)
        self._by_id[point_id] = point
        group = self._by_edge.setdefault((a, b), [])
        bisect.insort(group, point, key=_group_order)
        self.version += 1
        return point

    @classmethod
    def from_points(
        cls, network: SpatialNetwork, points: Iterable[NetworkPoint]
    ) -> "PointSet":
        """Build a point set from existing :class:`NetworkPoint` records."""
        ps = cls(network)
        for p in points:
            ps.add(p.u, p.v, p.offset, point_id=p.point_id, label=p.label)
        return ps

    @classmethod
    def from_records(cls, network, records: Iterable) -> "PointSet":
        """Build a point set from ``[id, u, v, offset, label?]`` records
        (the :mod:`repro.io` format) in one pass.

        The result equals :meth:`add` per record in order — the same ids,
        labels, groups in the same order and bit-identical offsets — and
        each record is checked as :meth:`add` checks it, raising the same
        errors: self-loop, missing edge, offset beyond tolerance (then
        clamped, and mirrored when ``u > v``), duplicate id.  Each edge's
        weight is read once, each point is built by :func:`trusted_point`
        and each group is sorted once at the end.
        """
        ps = cls(network)
        by_id = ps._by_id
        # edge -> (weight, its points in record order)
        groups: dict[tuple[int, int], tuple[float, list[NetworkPoint]]] = {}
        edge_weight = network.edge_weight
        for record in records:
            pid, u, v, offset = record[:4]
            label = int(record[4]) if len(record) > 4 else None
            pid, u, v, offset = int(pid), int(u), int(v), float(offset)
            a, b = (u, v) if u < v else normalize_edge(u, v)
            entry = groups.get((a, b))
            if entry is None:
                entry = groups[(a, b)] = (edge_weight(a, b), [])
            weight, group = entry
            if u > v:
                offset = weight - offset
            if offset < -_POSITION_TOLERANCE or offset > weight + _POSITION_TOLERANCE:
                raise InvalidPositionError(
                    f"offset {offset!r} outside [0, {weight!r}] on edge ({a}, {b})"
                )
            if offset < 0.0:
                offset = 0.0
            elif offset > weight:
                offset = weight
            if pid in by_id:
                raise InvalidPositionError(f"point id {pid} already in use")
            point = by_id[pid] = trusted_point(pid, a, b, offset, label)
            group.append(point)
        by_edge = ps._by_edge
        for edge, (_, group) in groups.items():
            group.sort(key=_group_order)
            by_edge[edge] = group
        ps.version = len(by_id)
        return ps

    def remove(self, point_id: int) -> None:
        """Remove a point by id."""
        point = self.get(point_id)
        del self._by_id[point_id]
        group = self._by_edge[point.edge]
        group.remove(point)
        if not group:
            del self._by_edge[point.edge]
        self.version += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, point_id: int) -> NetworkPoint:
        """The point with the given id (raises :class:`PointNotFoundError`)."""
        try:
            return self._by_id[point_id]
        except KeyError:
            raise PointNotFoundError(point_id) from None

    def __contains__(self, point_id: int) -> bool:
        return point_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[NetworkPoint]:
        return iter(self._by_id.values())

    def point_ids(self) -> Iterator[int]:
        return iter(self._by_id)

    def populated_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over the canonical edges that carry at least one point."""
        return iter(self._by_edge)

    def num_populated_edges(self) -> int:
        return len(self._by_edge)

    def points_on_edge(self, u: int, v: int) -> list[NetworkPoint]:
        """Points on edge ``(u, v)`` sorted by ascending offset from min(u, v).

        Returns an empty list when the edge carries no points.  Raises if the
        edge does not exist in the network at all, since asking for points on
        a non-edge is almost always a caller bug.
        """
        a, b = normalize_edge(u, v)
        if not self._network.has_edge(a, b):
            raise EdgeNotFoundError(a, b)
        return list(self._by_edge.get((a, b), ()))

    def group(self, u: int, v: int) -> Sequence[NetworkPoint]:
        """The stored group of the canonical edge ``(u, v)``, ``u < v``.

        The sorted group itself, not a copy, and no edge check: empty when
        the edge carries no points or is no edge.  For traversal loops
        that read a group per scanned edge; the caller must not modify
        it.
        """
        return self._by_edge.get((u, v), ())

    def points_from(self, node: int, other: int) -> list[NetworkPoint]:
        """Points on edge ``(node, other)`` ordered walking *away from* ``node``.

        This is the "next point on (n_x, n_y) from ... to ..." primitive of
        the paper's ε-Link and Single-Link pseudocode.
        """
        pts = self.points_on_edge(node, other)
        if node > other:
            pts.reverse()
        return pts

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def labels(self) -> dict[int, int | None]:
        """Ground-truth label per point id (``None`` where unknown)."""
        return {pid: p.label for pid, p in self._by_id.items()}

    def distance_to_node(self, point: NetworkPoint, node: int) -> float:
        """Direct distance ``d_L(p, n)`` from a point to an adjacent node.

        Defined only when ``node`` is an endpoint of the point's edge
        (Definition 2); raises :class:`InvalidPositionError` otherwise.
        """
        if node == point.u:
            return point.offset
        if node == point.v:
            return self._network.edge_weight(point.u, point.v) - point.offset
        raise InvalidPositionError(
            f"node {node} is not an endpoint of the edge of point {point.point_id}"
        )

    def __repr__(self) -> str:
        return (
            f"PointSet(points={len(self)}, populated_edges="
            f"{self.num_populated_edges()}, network={self._network.name!r})"
        )
