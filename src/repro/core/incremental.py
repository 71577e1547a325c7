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
  the bridge).  Every piece of what is left holds one of the object's
  ε-neighbours, so a *split check* (below) seeded with those neighbours
  decides it.  Without a split the object just leaves its union-find set;
  with one, only the split-off pieces move to sets of their own.
* **reweigh** — an edge's traversal cost changes (traffic).  Links can
  appear or vanish only between objects within ε of the edge: the objects
  on the edge itself plus everything within ε of either endpoint, in the
  old *or* the new network (four ε-bounded expansions).  A heavier edge
  only lengthens distances, so links can only vanish: one split check per
  affected component, seeded with its objects near the edge in the old
  network.  A lighter edge only shortens them, so links can only appear:
  one ε range query per object near the edge in the new network, and a
  union with what it finds.  Objects on the edge keep their relative
  position (offsets rescale by ``new/old``).

The split check runs one resumable ε-Link expansion
(:meth:`~repro.core.epslink.EpsLink._grow`, over the augmented graph) per
seed, one settle per expansion in turn.  Two expansions merge
when one reaches an object the other owns.  The check stops when one
expansion is left (no split; usually after a few local settles, since the
seeds lie close together) or when every expansion but one is exhausted:
those are the split-off pieces, so the cost scales with the smaller
pieces, not the whole cluster.

No update touches the other components or scans all objects.  The
maintained clustering is always identical to running
:class:`~repro.core.epslink.EpsLink` from scratch on the current point set
(a tested invariant).
"""

from __future__ import annotations

import math

from repro.core.epslink import EpsLink, Expansion
from repro.core.result import ClusteringResult
from repro.core.unionfind import UnionFind
from repro.eval.metrics import NOISE
from repro.exceptions import InvalidWeightError, ParameterError
from repro.network.augmented import POINT, AugmentedView, node_vertex
from repro.network.dijkstra import single_source
from repro.network.points import NetworkPoint, PointSet
from repro.network.queries import range_query
from repro.obs.core import add as _obs_add

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
        self._expander = EpsLink(network, self._points, eps=self.eps)
        #: Point ids whose cluster label the last update may have
        #: changed: an insert's object and its ε-neighbours; a remove's
        #: object alone, plus its old cluster when that split; a
        #: reweigh's affected components whole.  Distance caches do not
        #: use it: objects carry no weight, so an insert or a remove
        #: changes no distance between two other objects, and the live
        #: tier invalidates only the mutated object (or everything, on a
        #: reweigh).
        self.last_affected: set[int] = set()
        if points is not None and len(self._points):
            self._link_all()

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
        """Delete an object; check (only) whether its cluster splits.

        The object's ε-neighbours, found before it leaves the point set,
        seed a split check.  Without a split the object just leaves its
        union-find set and :attr:`last_affected` is ``{point_id}``: no
        other object changes cluster.  With one, the split-off pieces
        move to sets of their own and :attr:`last_affected` is the object
        plus its old cluster.  The rest of the cluster stays one set; every
        other cluster keeps its set and representative.
        """
        point = self._points.get(point_id)  # raises PointNotFoundError
        aug = AugmentedView(self.network, self._points)
        seeds = [
            q.point_id
            for q, _ in range_query(aug, point, self.eps, include_query=False)
        ]
        self._points.remove(point_id)
        pieces = self._split_check(seeds)
        if pieces:
            self.last_affected = set(self._uf.members(point_id))
        else:
            self.last_affected = {point_id}
        self._uf.detach(point_id)
        self._uf.split_off(pieces)

    def reweigh(self, u: int, v: int, weight: float) -> None:
        """Change an edge's traversal cost, re-linking only what can move.

        A ≤ε link can appear or vanish under a reweigh only if its
        witness path crosses the edge, which puts both endpoints of the
        link within ε of the edge — i.e. among the objects *on* the edge
        or within ε of either endpoint node, measured in the old or the
        new network.  A heavier edge can only remove links: every piece
        an affected component splits into holds one of its objects near
        the edge in the old network, so those seed its split check.  A
        lighter edge can only add links, each with an endpoint near the
        edge in the new network: a range query from every such object
        finds them all.  :attr:`last_affected` is every member of the
        components that held an object near the edge; every other
        component is provably unchanged.  Objects on the edge keep their
        relative position: offsets rescale by ``weight / old``.
        """
        if not (isinstance(weight, (int, float)) and math.isfinite(weight)
                and weight > 0):
            raise InvalidWeightError(
                f"edge weight must be a positive finite number, "
                f"got {weight!r}"
            )
        old = self.network.edge_weight(u, v)  # raises EdgeNotFoundError
        on_edge = list(self._points.points_on_edge(u, v))
        on_ids = {p.point_id for p in on_edge}
        # Range in the OLD network: links that may vanish.
        near_old = (on_ids | self._points_within_eps_of_node(u)
                    | self._points_within_eps_of_node(v))
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
        near_new = (on_ids | self._points_within_eps_of_node(u)
                    | self._points_within_eps_of_node(v))
        uf = self._uf
        by_root: dict = {}
        for pid in near_old:
            by_root.setdefault(uf.find(pid), []).append(pid)
        roots = set(by_root).union(map(uf.find, near_new))
        self.last_affected = {m for root in roots for m in uf.members(root)}
        if weight > old:
            for seeds in by_root.values():
                uf.split_off(self._split_check(seeds))
        else:
            aug = AugmentedView(self.network, self._points)
            get = self._points.get
            for pid in near_new:
                found = range_query(aug, get(pid), self.eps,
                                    include_query=False)
                uf.union_all([pid] + [q.point_id for q, _ in found])

    def _points_within_eps_of_node(self, node: int) -> set[int]:
        """Ids of objects within ε network distance of ``node``."""
        aug = AugmentedView(self.network, self._points)
        dist = single_source(aug, node_vertex(node), cutoff=self.eps)
        return {ident for kind, ident in dist if kind == POINT}

    def _split_check(self, seeds: list[int]) -> list[set[int]]:
        """The pieces that split off the cluster holding ``seeds``.

        ``seeds`` lie in one union-find set, and every piece the set may
        now have split into holds one of them.  Each seed starts an
        ε-Link expansion; the live expansions settle one vertex each in
        turn, and one that reaches an object another owns takes it over
        (the larger absorbs the smaller).  Stops once one expansion is
        live: the exhausted ones are complete clusters — the split-off
        pieces, returned — and the live one holds the rest of the set.
        The expansions cannot leave the set: links only vanished.
        """
        if len(seeds) < 2:
            return []
        aug = AugmentedView(self.network, self._points)
        grow = self._expander._grow
        owner: dict[int, Expansion] = {}
        live: dict[Expansion, None] = {}
        for seed in seeds:
            owner[seed] = expansion = Expansion(seed)
            live[expansion] = None
        exhausted: list[Expansion] = []
        while len(live) > 1:
            for expansion in list(live):
                if expansion not in live:
                    continue  # taken over earlier in this round
                met = grow(aug, expansion, None, 1, owner)
                if met is not None:
                    keep, gone = expansion, met
                    if len(keep.best) < len(gone.best):
                        keep, gone = gone, keep
                    keep.absorb(gone, owner)
                    # `met` may be exhausted already: distances summed in
                    # opposite directions can differ in the last ulp.
                    live.pop(gone, None)
                    if gone in exhausted:
                        exhausted.remove(gone)
                    live[keep] = None
                elif not expansion.heap:
                    del live[expansion]
                    exhausted.append(expansion)
                if len(live) == 1:
                    break
        _obs_add("live.split.checks")
        _obs_add("live.split.settled",
                 sum(e.visited for e in (*live, *exhausted)))
        _obs_add("live.split.pieces", len(exhausted))
        return [expansion.members for expansion in exhausted]

    def _link_all(self) -> None:
        """Cluster the adopted point set from scratch: one group-scan
        expansion (:meth:`EpsLink._expand_cluster`, the loop from-scratch
        ε-Link runs) per not-yet-clustered object, merged in one step."""
        seen: set[int] = set()
        for seed in self._points:
            if seed.point_id in seen:
                continue
            members, _ = self._expander._expand_cluster(seed, {})
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
