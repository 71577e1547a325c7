"""In-memory spatial network model.

A *spatial network* (Definition 1 of the paper) is an undirected weighted
graph ``G = (V, E, W)`` where every edge carries a positive real weight.
Nodes optionally carry planar coordinates; when they do, edge weights default
to the Euclidean distance between the endpoints, which matches the setting
used in the paper's experiments ("the weights of the graph edges were set
equal to the Euclidean distance of the connected nodes") while still allowing
arbitrary positive weights (travel time, toll cost, ...).

The class is deliberately small and explicit: adjacency is a dict of dicts,
node coordinates a dict, and every accessor validates its inputs.  Clustering
algorithms do not use this class directly; they talk to the
:class:`~repro.network.interface.NetworkBackend` protocol which this class,
the disk-backed :class:`~repro.storage.netstore.NetworkStore`, and the
frozen array backend :class:`~repro.network.csr.CSRNetwork` all implement,
so the same algorithm code runs on any backend.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping

from repro.exceptions import (
    EdgeNotFoundError,
    InvalidWeightError,
    MissingCoordinatesError,
    NetworkError,
    NodeNotFoundError,
)

__all__ = ["SpatialNetwork", "normalize_edge"]


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonical (sorted) form of an undirected edge.

    The paper expresses object positions unambiguously by requiring
    ``n_i < n_j`` in the triplet ``<n_i, n_j, pos>`` (Definition 1); the same
    canonicalisation is applied to every edge key in this library.
    """
    if u == v:
        raise NetworkError(f"self-loop edge ({u}, {v}) is not allowed")
    return (u, v) if u < v else (v, u)


class SpatialNetwork:
    """An undirected, positively weighted spatial network.

    Parameters
    ----------
    name:
        Optional human-readable label (e.g. ``"OL"``), used in reports.

    Examples
    --------
    >>> net = SpatialNetwork()
    >>> net.add_node(1, x=0.0, y=0.0)
    >>> net.add_node(2, x=3.0, y=4.0)
    >>> net.add_edge(1, 2)          # weight defaults to Euclidean distance
    >>> net.edge_weight(1, 2)
    5.0
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._adj: dict[int, dict[int, float]] = {}
        self._coords: dict[int, tuple[float, float]] = {}
        self._num_edges = 0
        # Monotone mutation counter.  Frozen backends (repro.network.csr)
        # capture it at freeze time and compare on every access, so a
        # mutation after the freeze raises StaleBackendError instead of
        # serving distances off arrays that no longer match the network.
        self._edition = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: int, x: float | None = None, y: float | None = None) -> None:
        """Add a node, optionally with planar coordinates.

        Adding an existing node is a no-op except that new coordinates (when
        given) replace the old ones.
        """
        if node not in self._adj:
            self._adj[node] = {}
            self._edition += 1
        if x is not None or y is not None:
            if x is None or y is None:
                raise NetworkError("both x and y coordinates must be given together")
            self._coords[node] = (float(x), float(y))

    def add_edge(self, u: int, v: int, weight: float | None = None) -> None:
        """Add an undirected edge with a positive weight.

        If ``weight`` is omitted, both endpoints must carry coordinates and
        the Euclidean distance between them is used.  Re-adding an existing
        edge replaces its weight.
        """
        u, v = normalize_edge(u, v)
        self.add_node(u)
        self.add_node(v)
        if weight is None:
            weight = self.euclidean_node_distance(u, v)
        weight = float(weight)
        if not math.isfinite(weight) or weight <= 0.0:
            raise InvalidWeightError(
                f"edge ({u}, {v}) weight must be a positive finite number, got {weight!r}"
            )
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._edition += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove an edge; raises :class:`EdgeNotFoundError` if absent."""
        u, v = normalize_edge(u, v)
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._edition += 1

    @classmethod
    def from_edge_list(
        cls,
        edges: Iterable[tuple[int, int, float]],
        coords: Mapping[int, tuple[float, float]] | None = None,
        name: str = "network",
    ) -> "SpatialNetwork":
        """Build a network from ``(u, v, weight)`` triples.

        ``coords`` optionally maps node ids to ``(x, y)`` positions.
        """
        net = cls(name=name)
        if coords:
            for node, (x, y) in coords.items():
                net.add_node(node, x=x, y=y)
        for u, v, w in edges:
            net.add_edge(u, v, w)
        return net

    @classmethod
    def from_records(
        cls,
        nodes: Iterable,
        edges: Iterable,
        name: str = "network",
    ) -> "SpatialNetwork":
        """Build a network from interchange records in one pass.

        ``nodes`` holds ``[id, x, y]`` or ``[id]`` records and ``edges``
        ``[u, v, weight]`` records (the :mod:`repro.io` format).  The
        result equals :meth:`add_node` per node record followed by
        :meth:`add_edge` per edge record — the same adjacency, in the
        same insertion order, and the same edition — and every record
        is checked as those methods check it, raising the same errors.
        """
        net = cls(name=name)
        adj, coords = net._adj, net._coords
        created = 0
        for record in nodes:
            node = int(record[0])
            if node not in adj:
                adj[node] = {}
                created += 1
            if len(record) == 3:
                coords[node] = (float(record[1]), float(record[2]))
        num_edges = records = 0
        isfinite = math.isfinite
        for u, v, weight in edges:
            records += 1
            u, v, weight = int(u), int(v), float(weight)
            if not u < v:
                u, v = normalize_edge(u, v)
            if u not in adj:
                adj[u] = {}
                created += 1
            if v not in adj:
                adj[v] = {}
                created += 1
            if not isfinite(weight) or weight <= 0.0:
                raise InvalidWeightError(
                    f"edge ({u}, {v}) weight must be a positive finite number, "
                    f"got {weight!r}"
                )
            row = adj[u]
            if v not in row:
                num_edges += 1
            row[v] = weight
            adj[v][u] = weight
        net._num_edges = num_edges
        net._edition = created + records
        return net

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes |V|."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges |E|."""
        return self._num_edges

    @property
    def edition(self) -> int:
        """Mutation counter: moves on every node or edge change, so a
        consumer that memoises anything derived from the network can tell
        it went stale."""
        return self._edition

    def has_node(self, node: int) -> bool:
        return node in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        u, v = normalize_edge(u, v)
        return u in self._adj and v in self._adj[u]

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids."""
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over canonical ``(u, v, weight)`` triples (u < v)."""
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u < v:
                    yield (u, v, w)

    def neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        """Iterate over ``(neighbor, edge_weight)`` pairs of ``node``.

        This is the *adjacency list* access of the paper's storage model;
        the disk-backed store provides the same method.
        """
        try:
            nbrs = self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        return iter(nbrs.items())

    def degree(self, node: int) -> int:
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def edge_weight(self, u: int, v: int) -> float:
        """Weight ``W(u, v)`` of an existing edge."""
        a, b = normalize_edge(u, v)
        try:
            return self._adj[a][b]
        except KeyError:
            raise EdgeNotFoundError(a, b) from None

    def node_coords(self, node: int) -> tuple[float, float]:
        """Planar coordinates of a node (raises if none were assigned)."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        try:
            return self._coords[node]
        except KeyError:
            raise MissingCoordinatesError(node) from None

    def has_coords(self, node: int) -> bool:
        return node in self._coords

    def euclidean_node_distance(self, u: int, v: int) -> float:
        """Straight-line distance between two nodes (requires coordinates)."""
        ux, uy = self.node_coords(u)
        vx, vy = self.node_coords(v)
        return math.hypot(ux - vx, uy - vy)

    def total_weight(self) -> float:
        """Sum of all edge weights (useful for sizing eps/delta parameters)."""
        return sum(w for _, _, w in self.edges())

    # ------------------------------------------------------------------
    # Derived networks
    # ------------------------------------------------------------------
    def subnetwork(self, nodes: Iterable[int], name: str | None = None) -> "SpatialNetwork":
        """The induced subgraph on ``nodes`` (keeping coordinates).

        Node insertion order follows the order of ``nodes``, so
        ``copy()`` (which passes :meth:`nodes`) preserves iteration
        order — seeded algorithms that sweep ``nodes()`` behave
        identically on a network and its copy.
        """
        # A dict, not a set: membership is as fast, but iteration keeps
        # the caller's order instead of hash order.
        keep = dict.fromkeys(nodes)
        missing = [node for node in keep if node not in self._adj]
        if missing:
            raise NodeNotFoundError(missing[0])
        sub = SpatialNetwork(name=name or f"{self.name}-sub")
        for node in keep:
            if node in self._coords:
                x, y = self._coords[node]
                sub.add_node(node, x=x, y=y)
            else:
                sub.add_node(node)
        for u, v, w in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, w)
        return sub

    def copy(self) -> "SpatialNetwork":
        """A deep, independent copy of this network."""
        return self.subnetwork(self.nodes(), name=self.name)

    def reweighted(self, fn, name: str | None = None) -> "SpatialNetwork":
        """A copy with every edge weight mapped through ``fn(u, v, w)``.

        Supports the paper's Section 6 discussion of alternative weight
        measures (time, cost, aggregates of several measures).
        """
        out = SpatialNetwork(name=name or f"{self.name}-reweighted")
        for node in self.nodes():
            if node in self._coords:
                x, y = self._coords[node]
                out.add_node(node, x=x, y=y)
            else:
                out.add_node(node)
        for u, v, w in self.edges():
            out.add_edge(u, v, fn(u, v, w))
        return out

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        return (
            f"SpatialNetwork(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
