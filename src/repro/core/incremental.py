"""Incremental maintenance of an ε-Link clustering.

A location-based service rarely re-clusters from scratch: restaurants open
and close one at a time.  Because ε-Link's clusters are exactly the
connected components of the ≤ε network-distance graph, they can be
maintained under updates.  The components live in a
:class:`~repro.core.unionfind.UnionFind` that keeps each set's members, so
every update costs only what it touches:

* **insert** — one network range query around the new object plus one
  union per object found; it joins the (union of the) clusters it can
  reach within ε, possibly bridging several into one.
* **remove** — deleting an object can *split* its cluster (it may have been
  the bridge), so its component — and only it — is dissolved into
  singletons and re-expanded; every other cluster keeps its union-find
  sets and representatives.  Cost: the component's size plus its
  expansions.
* **reweigh** — an edge's traversal cost changes (traffic).  Links can
  appear or vanish only between points within ε of the edge: the objects
  on the edge itself plus everything within ε of either endpoint, in the
  old *or* the new network (four ε-bounded expansions).  Those points'
  components — and only those — are dissolved and re-expanded; objects on
  the edge keep their relative position (offsets rescale by ``new/old``).

No update touches the other components or scans all objects.  The
maintained clustering is always identical to running
:class:`~repro.core.epslink.EpsLink` from scratch on the current point set
(a tested invariant).
"""

from __future__ import annotations

import math

from repro.core.epslink import EpsLink
from repro.core.result import ClusteringResult
from repro.core.unionfind import UnionFind
from repro.eval.metrics import NOISE
from repro.exceptions import InvalidWeightError, ParameterError
from repro.network.augmented import POINT, AugmentedView, node_vertex
from repro.network.dijkstra import single_source
from repro.network.points import NetworkPoint, PointSet
from repro.network.queries import range_query

__all__ = ["IncrementalEpsLink"]


class IncrementalEpsLink:
    """An ε-Link clustering maintained under insertions and deletions.

    Parameters
    ----------
    network:
        The (static) network the objects live on.
    eps:
        Chaining radius, as in :class:`~repro.core.epslink.EpsLink`.
    min_sup:
        Minimum cluster size below which clusters are reported as noise
        (applied at :meth:`result` time, so it never interferes with
        maintenance).
    points:
        An existing :class:`~repro.network.points.PointSet` to *adopt*
        (the live serve tier passes its served set so mutations maintain
        the world queries run against).  The initial clustering is
        derived from it; omitted, maintenance starts from an empty set.

    Examples
    --------
    >>> from repro import SpatialNetwork
    >>> net = SpatialNetwork.from_edge_list([(1, 2, 10.0)])
    >>> live = IncrementalEpsLink(net, eps=1.0)
    >>> a = live.insert(1, 2, 1.0)
    >>> b = live.insert(1, 2, 3.0)
    >>> live.num_clusters
    2
    >>> bridge = live.insert(1, 2, 2.0)   # links a and b
    >>> live.num_clusters
    1
    >>> live.remove(bridge.point_id)      # the split is detected
    >>> live.num_clusters
    2
    """

    def __init__(self, network, eps: float, min_sup: int = 1,
                 points: PointSet | None = None) -> None:
        if eps <= 0:
            raise ParameterError(f"eps must be positive, got {eps!r}")
        if min_sup < 1:
            raise ParameterError(f"min_sup must be >= 1, got {min_sup!r}")
        self.network = network
        self.eps = float(eps)
        self.min_sup = int(min_sup)
        self._points = PointSet(network) if points is None else points
        self._uf = UnionFind(self._points.point_ids())
        #: Point ids whose cluster membership the last update *may* have
        #: changed — the precise invalidation region for downstream
        #: distance caches.
        self.last_affected: set[int] = set()
        if points is not None and len(self._points):
            self._relink(list(self._points.point_ids()))

    # ------------------------------------------------------------------
    @property
    def points(self) -> PointSet:
        """The live point set (treat as read-only; mutate via this class)."""
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    @property
    def num_clusters(self) -> int:
        """Current component count (min_sup not applied)."""
        return self._uf.num_sets

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(
        self,
        u: int,
        v: int,
        offset: float,
        point_id: int | None = None,
        label: int | None = None,
    ) -> NetworkPoint:
        """Add an object; it joins/bridges every cluster within ε."""
        point = self._points.add(u, v, offset, point_id=point_id, label=label)
        self._uf.add(point.point_id)
        affected = {point.point_id}
        aug = AugmentedView(self.network, self._points)
        for neighbor, _ in range_query(aug, point, self.eps, include_query=False):
            self._uf.union(point.point_id, neighbor.point_id)
            affected.add(neighbor.point_id)
        self.last_affected = affected
        return point

    def remove(self, point_id: int) -> None:
        """Delete an object, re-clustering (only) its component."""
        self._points.get(point_id)  # raises PointNotFoundError when absent
        members = self._uf.dissolve([point_id])
        self._uf.drop(point_id)
        self._points.remove(point_id)
        self.last_affected = set(members)
        self._relink(sorted(pid for pid in members if pid != point_id))

    def reweigh(self, u: int, v: int, weight: float) -> None:
        """Change an edge's traversal cost, re-linking only what can move.

        A ≤ε link can appear or vanish under a reweigh only if its
        witness path crosses the edge, which puts both endpoints of the
        link within ε of the edge — i.e. among the objects *on* the edge
        or within ε of either endpoint node, measured in the old or the
        new network.  Those points' whole components are re-linked (a
        vanished link can split a component anywhere inside it); every
        other component is provably unchanged.  Objects on the edge keep
        their relative position: offsets rescale by ``weight / old``.
        """
        if not (isinstance(weight, (int, float)) and math.isfinite(weight)
                and weight > 0):
            raise InvalidWeightError(
                f"edge weight must be a positive finite number, "
                f"got {weight!r}"
            )
        old = self.network.edge_weight(u, v)  # raises EdgeNotFoundError
        on_edge = list(self._points.points_on_edge(u, v))
        affected: set[int] = {p.point_id for p in on_edge}
        # Range in the OLD network: links that may vanish.
        affected |= self._points_within_eps_of_node(u)
        affected |= self._points_within_eps_of_node(v)
        for p in on_edge:
            self._points.remove(p.point_id)
        self.network.add_edge(u, v, float(weight))  # re-add replaces weight
        for p in on_edge:
            # points_on_edge offsets are canonical (from the smaller
            # endpoint), so re-adding with (p.u, p.v) keeps orientation.
            self._points.add(
                p.u, p.v, p.offset / old * float(weight),
                point_id=p.point_id, label=p.label,
            )
        # Range in the NEW network: links that may appear.
        affected |= self._points_within_eps_of_node(u)
        affected |= self._points_within_eps_of_node(v)
        # Expand to whole components: a vanished link can split a
        # component at any depth, so everything reachable from an
        # affected point must be re-discovered.
        members = self._uf.dissolve(affected)
        self.last_affected = set(members)
        self._relink(sorted(members))

    def _points_within_eps_of_node(self, node: int) -> set[int]:
        """Ids of objects within ε network distance of ``node``."""
        aug = AugmentedView(self.network, self._points)
        dist = single_source(aug, node_vertex(node), cutoff=self.eps)
        return {ident for kind, ident in dist if kind == POINT}

    def _relink(self, affected: list[int]) -> None:
        """Re-discover the ≤ε components among the affected points.

        The affected points are singletons in the union-find (new, or just
        dissolved); each component found is merged in one step.  Uses
        ε-Link's expansion machinery seeded only inside the affected set;
        the expansions cannot reach any other cluster (they are farther
        than ε by definition of components), so the rest of the clustering
        is provably unchanged.
        """
        if not affected:
            return
        aug = AugmentedView(self.network, self._points)
        helper = EpsLink(self.network, self._points, eps=self.eps)
        seen: set[int] = set()
        for seed in affected:
            if seed in seen:
                continue
            members, _ = helper._expand_cluster(aug, seed, {})
            seen |= members
            self._uf.union_all(members)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def result(self) -> ClusteringResult:
        """The current flat clustering (labels are arbitrary but stable
        within one call; min_sup demotes small clusters to noise)."""
        assignment: dict[int, int] = {}
        label_of_root: dict = {}
        sizes: dict[int, int] = {}
        for pid in self._points.point_ids():
            root = self._uf.find(pid)
            label = label_of_root.setdefault(root, len(label_of_root))
            assignment[pid] = label
            sizes[label] = sizes.get(label, 0) + 1
        if self.min_sup > 1:
            for pid, label in assignment.items():
                if sizes[label] < self.min_sup:
                    assignment[pid] = NOISE
        return ClusteringResult(
            assignment,
            algorithm="incremental-eps-link",
            params={"eps": self.eps, "min_sup": self.min_sup},
            stats={"points": len(self._points)},
        )
