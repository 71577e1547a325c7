"""Landmark (ALT) distance bounds for spatial networks.

A *landmark* is a network node from which shortest-path distances to every
reachable node are precomputed (one Dijkstra per landmark).  By the triangle
inequality, for any nodes ``u``, ``v`` and landmark ``l``

    d(u, v) >= |d(l, u) - d(l, v)|        (lower bound)
    d(u, v) <= d(l, u) + d(l, v)          (upper bound)

so the tables give cheap two-sided bounds on any network distance without
running a search.  Unlike the Euclidean heuristic of
:mod:`repro.network.astar` — admissible only when edge weights dominate the
straight-line distance — the landmark bounds hold for *any* positive weight
measure (travel time, toll cost, ...), and the lower bound is a *consistent*
A* heuristic: ``lb(u, t) <= W(u, v) + lb(v, t)`` follows from a second
triangle inequality, so an A* search guided by it settles every vertex at
its exact distance and returns bit-identical results to plain Dijkstra.

Landmarks are chosen by **farthest-point sampling**: the first landmark is
the smallest node id, each further landmark is the node maximising the
distance to its nearest chosen landmark (unreached nodes — other connected
components — count as infinitely far and are preferred, so every component
eventually receives a landmark).  All tie-breaks are by smallest node id,
making the construction deterministic.

Objects on edges participate through Definition 2's direct distances: the
distance from a landmark to a point ``p`` on edge ``(u, v)`` is exactly

    d(l, p) = min(d(l, u) + pos_p,  d(l, v) + W(u, v) - pos_p)

because every path into ``p`` enters its edge through one of the endpoints.
:meth:`LandmarkIndex.point_vector` evaluates this per landmark, giving each
object an L-dimensional *landmark coordinate vector*; the upper bound
between two objects is computed coordinate-wise by
:func:`vector_upper_bound`, the kNN prune bound of :mod:`repro.perf.accel`.

Unreachable entries are ``math.inf``: a landmark that misses either of two
locations sums to ``inf`` and never tightens the minimum, and the bound is
``inf`` when no landmark reaches both.

The tables are one landmark-major ``(L, N)`` float64 array over the sorted
node ids.  Node vectors are read out as Python floats, so every bound is
plain float arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from repro.network.dijkstra import single_source
from repro.network.points import NetworkPoint
from repro.obs.core import STATE as _OBS, add as _obs_add, span as _span

__all__ = ["LandmarkIndex", "vector_upper_bound"]


def vector_upper_bound(a: tuple, b: tuple) -> float:
    """``min_l (a_l + b_l)``: an upper bound on the distance between two
    locations with landmark coordinate vectors ``a`` and ``b`` (``inf``
    when no landmark reaches both)."""
    best = math.inf
    for x, y in zip(a, b):
        s = x + y
        if s < best:
            best = s
    return best


class LandmarkIndex:
    """Node→landmark distance tables over one network, landmark-major.

    ``ids`` holds the network's node ids ascending (int64) and ``tables``
    the ``(L, N)`` float64 array whose row ``l`` holds the distances from
    landmark ``l`` to every node, ``inf`` where unreached.

    Parameters
    ----------
    network:
        Any backend with ``nodes()``, ``neighbors(node)`` and
        ``edge_weight(u, v)`` — the in-memory network and the disk store
        both qualify; coordinates are *not* required.
    num_landmarks:
        How many landmarks to select (clamped to the node count).  Each
        costs one full Dijkstra at build time and one float per node of
        memory; 4–16 is the useful range (see ``docs/performance.md``).

    Notes
    -----
    The index is built for a **fixed network**: mutating the network's
    edges after construction silently invalidates the tables (point-set
    mutations are fine — points never affect node-to-node distances).
    Build a fresh index after changing the network.
    """

    def __init__(self, network, num_landmarks: int = 8) -> None:
        ids = np.asarray(sorted(network.nodes()), dtype=np.int64)
        with _span("perf.landmarks.build"):
            landmarks, tables = _farthest_point_tables(
                network, ids, int(num_landmarks)
            )
        finite = tables[np.isfinite(tables)]
        self._network = network
        self.landmarks: list[int] = [int(x) for x in landmarks]
        self.ids = ids
        self.tables = tables
        #: Characteristic distance magnitude (the largest finite table
        #: entry, at least 1.0).  Consumers that compare float bounds
        #: against float distances size their rounding tolerance from it
        #: — see the slack discussion in :mod:`repro.perf.accel`.
        self.scale = max(1.0, float(finite.max())) if finite.size else 1.0
        # Memo of the Python-float vectors of the nodes queries touched:
        # a repeated read costs a dict hit, not a searchsorted and a
        # column copy.
        self._vectors: dict[int, tuple[float, ...]] = {}
        if _OBS.enabled:
            _obs_add("perf.landmarks.built", len(self.landmarks))

    # ------------------------------------------------------------------
    # Node vectors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.landmarks)

    def node_vector(self, node: int) -> tuple[float, ...]:
        """Landmark coordinate vector of a node (``inf`` where unreached)."""
        vec = self._vectors.get(node)
        if vec is None:
            col = int(np.searchsorted(self.ids, node))
            if col < len(self.ids) and int(self.ids[col]) == node:
                vec = tuple(self.tables[:, col].tolist())
            else:
                vec = (math.inf,) * len(self.landmarks)
            self._vectors[node] = vec
        return vec

    # ------------------------------------------------------------------
    # Point-level coordinates
    # ------------------------------------------------------------------
    def point_vector(self, point: NetworkPoint) -> tuple[float, ...]:
        """Landmark coordinate vector of an object on an edge.

        Exact, not a bound: every path from a landmark into ``point``
        enters the point's edge through one of its endpoints, so
        ``d(l, p) = min(d(l, u) + pos, d(l, v) + W - pos)`` — this equals
        the true distance in the point-augmented graph as well, because
        inserting points on edges preserves all distances.
        """
        weight = self._network.edge_weight(point.u, point.v)
        off = point.offset
        rest = weight - off
        return tuple(
            min(du + off, dv + rest)
            for du, dv in zip(
                self.node_vector(point.u), self.node_vector(point.v)
            )
        )


def _farthest_point_tables(network, ids, num_landmarks: int):
    """``(landmarks, tables)`` by farthest-point sampling, deterministic.

    Start from the smallest node id; then prefer unreached nodes (smallest
    id first) so disconnected components each get a landmark; otherwise
    take the node farthest from every chosen landmark, ties by smallest id
    (``argmax`` returns the first maximum and ``ids`` ascend).
    """
    count = max(0, min(num_landmarks, len(ids)))
    tables = np.full((count, len(ids)), math.inf)
    landmarks: list[int] = []
    nearest = np.full(len(ids), math.inf)
    candidate = int(ids[0]) if count else None
    for row in tables:
        table = single_source(network, candidate)
        row[np.searchsorted(ids, np.fromiter(table, np.int64, len(table)))] = (
            np.fromiter(table.values(), np.float64, len(table))
        )
        landmarks.append(candidate)
        np.minimum(nearest, row, out=nearest)
        best = int(np.argmax(nearest))
        if nearest[best] <= 0.0:
            break  # every node is itself a landmark already
        candidate = int(ids[best])
    return landmarks, tables[:len(landmarks)]
