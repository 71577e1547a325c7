"""Graceful degradation for clustering on disconnected networks.

The paper's algorithms assume a connected network: distances between
objects in different components are infinite, so a k-medoids run seeded in
one component silently labels every other component's objects as noise.
This module makes that degradation *explicit and well-defined*:

* :func:`analyze_connectivity` summarises a network's components and how
  the objects fall across them, including the number of **unreachable
  pairs** — object pairs with no connecting path, i.e. pairs no distance-
  based algorithm can ever relate.
* :class:`ComponentPointSet` is a read-only :class:`~repro.network.points.
  PointSet`-protocol view restricted to the edges of one component, letting
  an algorithm be re-run per component against the *same* network backend.
* :func:`distribute_k` splits a global cluster count k across components in
  proportion to their object counts (largest-remainder method, never
  exceeding a component's object count, and granting every non-empty
  component one cluster when k allows).

:meth:`repro.core.base.NetworkClusterer.run` uses these pieces to return
per-component results with an ``unreachable_pairs`` report instead of
noise-flooded output when the network is disconnected.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.exceptions import PointNotFoundError
from repro.network.components import connected_components
from repro.network.points import NetworkPoint

__all__ = [
    "ConnectivityReport",
    "ComponentPointSet",
    "analyze_connectivity",
    "distribute_k",
    "repair_summary",
]


class ConnectivityReport:
    """How a point set is spread over a network's connected components.

    Attributes
    ----------
    components:
        One frozen node set per network component, largest object count
        first (empty components — no objects — come last).
    point_counts:
        Objects per component, parallel to ``components``.
    unreachable_pairs:
        Number of object pairs in different components — pairs whose
        network distance is infinite.
    """

    __slots__ = ("components", "point_counts", "unreachable_pairs")

    def __init__(
        self, components: list[frozenset[int]], point_counts: list[int]
    ) -> None:
        order = sorted(
            range(len(components)), key=lambda i: point_counts[i], reverse=True
        )
        self.components = [components[i] for i in order]
        self.point_counts = [point_counts[i] for i in order]
        total = sum(self.point_counts)
        self.unreachable_pairs = (
            total * total - sum(c * c for c in self.point_counts)
        ) // 2

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def num_populated_components(self) -> int:
        """Components holding at least one object."""
        return sum(1 for c in self.point_counts if c > 0)

    def summary(self) -> dict:
        """JSON-friendly digest for :class:`ClusteringResult` stats."""
        return {
            "num_components": self.num_components,
            "num_populated_components": self.num_populated_components,
            "points_per_component": [c for c in self.point_counts if c > 0],
            "unreachable_pairs": self.unreachable_pairs,
        }


def analyze_connectivity(network, points) -> ConnectivityReport:
    """Component decomposition of ``network`` with per-component object counts."""
    components = [frozenset(c) for c in connected_components(network)]
    node_comp: dict[int, int] = {}
    for i, comp in enumerate(components):
        for node in comp:
            node_comp[node] = i
    counts = [0] * len(components)
    for u, v in points.populated_edges():
        counts[node_comp[u]] += len(points.points_on_edge(u, v))
    return ConnectivityReport(components, counts)


class ComponentPointSet:
    """A read-only view of a point set restricted to one component's edges.

    Implements the :class:`~repro.network.points.PointSet` protocol methods
    the clustering algorithms use; ``network`` stays the *full* backend, so
    traversals seeded inside the component behave identically (they can
    never leave it).
    """

    def __init__(self, base, nodes: frozenset[int] | set[int]) -> None:
        self._base = base
        self._nodes = nodes
        # Both endpoints of an edge are in the same component, so checking
        # one suffices.
        self._edges = [e for e in base.populated_edges() if e[0] in nodes]
        self._size: int | None = None

    @property
    def network(self):
        return self._base.network

    @property
    def nodes(self) -> frozenset[int] | set[int]:
        return self._nodes

    def __len__(self) -> int:
        if self._size is None:
            self._size = sum(
                len(self._base.points_on_edge(*e)) for e in self._edges
            )
        return self._size

    def __iter__(self) -> Iterator[NetworkPoint]:
        for u, v in self._edges:
            yield from self._base.points_on_edge(u, v)

    def point_ids(self) -> Iterator[int]:
        for p in self:
            yield p.point_id

    def __contains__(self, point_id: int) -> bool:
        try:
            self.get(point_id)
            return True
        except PointNotFoundError:
            return False

    def get(self, point_id: int) -> NetworkPoint:
        p = self._base.get(point_id)
        if p.u not in self._nodes:
            raise PointNotFoundError(point_id)
        return p

    def populated_edges(self) -> Iterator[tuple[int, int]]:
        return iter(self._edges)

    def num_populated_edges(self) -> int:
        return len(self._edges)

    def points_on_edge(self, u: int, v: int) -> list[NetworkPoint]:
        if u not in self._nodes:
            return []
        return self._base.points_on_edge(u, v)

    def group(self, u: int, v: int):
        if u not in self._nodes:
            return ()
        return self._base.group(u, v)

    def points_from(self, node: int, other: int) -> list[NetworkPoint]:
        if node not in self._nodes:
            return []
        return self._base.points_from(node, other)

    def labels(self) -> dict[int, int | None]:
        return {p.point_id: p.label for p in self}

    def distance_to_node(self, point: NetworkPoint, node: int) -> float:
        return self._base.distance_to_node(point, node)

    def __repr__(self) -> str:
        return (
            f"ComponentPointSet(points={len(self)}, "
            f"component_nodes={len(self._nodes)})"
        )


def repair_summary(report) -> dict:
    """Loss-accounting digest of a salvage pass for clustering stats.

    Accepts a :class:`~repro.recovery.RepairReport` or its ``summary()``
    dict.  Clustering a salvaged store degrades gracefully — the
    algorithms simply see the surviving subnetwork (usually disconnected,
    which the machinery above already handles) — but the degradation must
    be *explicit*: this digest lands in ``result.stats["repair"]`` so a
    result computed over partial data can never masquerade as complete.
    """
    doc = report.summary() if hasattr(report, "summary") else dict(report)
    return {
        "full_recovery": bool(doc.get("full_recovery", False)),
        "lost_pages": doc.get("lost_pages", 0),
        "lost": doc.get("lost"),
        "salvaged": doc.get("salvaged"),
        "conflicts": doc.get("conflicts", 0),
    }


def distribute_k(k: int, sizes: list[int]) -> list[int]:
    """Split ``k`` clusters over components with ``sizes`` objects each.

    Largest-remainder apportionment: quotas are proportional to object
    counts, never exceed a component's object count, and — whenever
    ``k >= number of components`` — every non-empty component receives at
    least one cluster.  When ``k`` is smaller than the number of components,
    the k largest components win and the rest get zero (their objects are
    reported as unclustered).
    """
    n = len(sizes)
    total = sum(sizes)
    if total == 0:
        return [0] * n
    if k >= total:
        return list(sizes)
    shares = [k * s / total for s in sizes]
    quotas = [min(int(sh), s) for sh, s in zip(shares, sizes)]
    leftover = k - sum(quotas)
    by_remainder = sorted(
        range(n), key=lambda i: shares[i] - quotas[i], reverse=True
    )
    idx = 0
    while leftover > 0:
        i = by_remainder[idx % n]
        if quotas[i] < sizes[i]:
            quotas[i] += 1
            leftover -= 1
        idx += 1
    if k >= n:
        # Give starved components one cluster each, taken from the richest.
        while True:
            starved = [i for i in range(n) if quotas[i] == 0 and sizes[i] > 0]
            if not starved:
                break
            donor = max(range(n), key=lambda i: quotas[i])
            if quotas[donor] <= 1:
                break
            quotas[donor] -= 1
            quotas[starved[0]] += 1
    return quotas
