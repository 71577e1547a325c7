"""The ε-Link density-based clustering algorithm (paper Section 4.3.1).

ε-Link is the paper's fast density-based method for the ``MinPts = 2`` case:
two objects belong to the same cluster whenever their network distance is at
most ε ("the sufficient condition that two points are placed in the same
cluster is that their distance is at most ε").  A cluster is therefore a
maximal set of objects chainable through hops of length ≤ ε — the connected
components of the ε-thresholded network-distance graph — and the algorithm
discovers each component with one localized network expansion, visiting
"only the edges which contain the points or are within ε distance from some
point".

Implementation
--------------
For each yet-unclustered seed object the algorithm runs the paper's
Figure 6 traversal: a heap of *network nodes* keyed by their distance to
the growing cluster (the paper's ``NNdist``), where settling a node scans
the point group of every incident edge, walking away from the node.  An
object reached within ε of the cluster *joins* it and becomes a fresh
distance-0 source (the paper phrases this as "the shortest path for every
node now changes dynamically as new points are assigned in the cluster"),
so a node's distance may fall after it was settled; it is then pushed and
settled again.  Groups are stored in offset order (Section 4.1), so a scan
reads each group once, in its physical order.

Every distance is summed fold-left from the nearest member with the
segment expressions of :class:`~repro.network.augmented.AugmentedView`:
``first.offset`` from the smaller endpoint, ``weight - last.offset`` from
the larger, and offset differences in between.  The scan therefore adds
the same floats in the same order as a search over the augmented graph
and as the group scan of :func:`~repro.network.queries.range_query`, and
its clusters equal the components of the ≤ε graph that ``range_query``
sees, bit for bit.

:meth:`EpsLink._grow` keeps the per-object form (every object a vertex of
the augmented graph) as a resumable expansion: the live split check of
:class:`~repro.core.incremental.IncrementalEpsLink` runs several of them
in turn and merges those that meet.

An optional ``min_sup`` turns clusters smaller than the threshold into
outliers, as described in the paper.
"""

from __future__ import annotations

import heapq
import math

from repro.core.base import NetworkClusterer
from repro.core.result import ClusteringResult
from repro.eval.metrics import NOISE
from repro.exceptions import ParameterError
from repro.faults.core import STATE as _FAULTS
from repro.resilience.deadline import STATE as _RES, settle_checkpoint
from repro.network.augmented import AugmentedView, POINT, point_vertex
from repro.network.points import PointSet
from repro.obs.core import STATE as _OBS, add as _obs_add, span as _span

__all__ = ["EpsLink", "Expansion"]


class Expansion:
    """The state of one resumable ε-Link expansion, kept between slices.

    :meth:`EpsLink._grow` runs the expansion; this object holds what it
    leaves for the next slice: the cluster's members, the tentative
    distance of every reached vertex to the cluster, the heap, and the
    number of vertices settled so far.  The seed is a member from the
    start.
    """

    __slots__ = ("members", "best", "heap", "visited")

    def __init__(self, seed_id: int) -> None:
        vertex = point_vertex(seed_id)
        self.members: set[int] = {seed_id}
        self.best: dict[tuple[int, int], float] = {vertex: 0.0}
        self.heap: list[tuple[float, tuple[int, int]]] = [(0.0, vertex)]
        self.visited = 0

    def absorb(self, other: Expansion, owner: dict) -> None:
        """Take over ``other``, an expansion of the same cluster.

        The merged search is the multi-source expansion from both member
        sets: each vertex keeps the smaller of its two distances, and
        ``other``'s pending heap entries join this heap.  A vertex either
        one settled has had its neighbours relaxed at that distance, and
        a pending entry superseded by a smaller distance is skipped as
        stale, so the merged expansion reaches exactly what one expansion
        from the union would.  ``other``'s members move to this
        expansion in ``owner``.
        """
        best = self.best
        for vertex, d in other.best.items():
            if d < best.get(vertex, math.inf):
                best[vertex] = d
        heap = self.heap
        for entry in other.heap:
            heapq.heappush(heap, entry)
        for pid in other.members:
            owner[pid] = self
        self.members |= other.members
        self.visited += other.visited


class EpsLink(NetworkClusterer):
    """ε-Link clustering of objects on a spatial network.

    Parameters
    ----------
    network:
        Network backend (in-memory or disk-backed).
    points:
        The objects to cluster.
    eps:
        Chaining radius ε > 0: objects within network distance ε end up in
        the same cluster (transitively).
    min_sup:
        Optional minimum cluster size; smaller clusters are reported as
        outliers (label ``NOISE``).

    Examples
    --------
    >>> from repro import SpatialNetwork, PointSet
    >>> net = SpatialNetwork.from_edge_list([(1, 2, 10.0)])
    >>> pts = PointSet(net)
    >>> for off in (1.0, 1.5, 8.0, 8.4):
    ...     _ = pts.add(1, 2, off)
    >>> result = EpsLink(net, pts, eps=1.0).run()
    >>> sorted(sorted(c) for c in result.as_partition())
    [[0, 1], [2, 3]]
    """

    algorithm_name = "eps-link"

    def __init__(
        self,
        network,
        points: PointSet,
        eps: float,
        min_sup: int = 1,
        budget=None,
        check_connectivity: bool | None = None,
        checkpoint=None,
        resume: dict | None = None,
        backend: str | None = None,
    ) -> None:
        super().__init__(
            network, points, budget=budget, check_connectivity=check_connectivity,
            checkpoint=checkpoint, resume=resume, backend=backend,
        )
        if eps <= 0:
            raise ParameterError(f"eps must be positive, got {eps!r}")
        if min_sup < 1:
            raise ParameterError(f"min_sup must be >= 1, got {min_sup!r}")
        self.eps = float(eps)
        self.min_sup = int(min_sup)

    # ------------------------------------------------------------------
    def _cluster(self) -> ClusteringResult:
        resume = self._take_resume_state()
        assignment: dict[int, int] = {}
        vertices_visited = 0
        next_label = 0
        if resume is not None:
            # The seed sweep naturally skips already-clustered points, so
            # resuming is just restoring the assignment and the counters;
            # a cluster whose growth was interrupted mid-expansion was not
            # yet committed to `assignment` and is simply regrown.
            assignment = {int(k): v for k, v in resume["assignment"].items()}
            vertices_visited = resume["vertices_visited"]
            next_label = resume["next_label"]
        self._live = {
            "assignment": assignment,
            "vertices_visited": vertices_visited,
            "next_label": next_label,
        }
        with _span("epslink.sweep"):
            for seed in self.points:
                if seed.point_id in assignment:
                    continue
                members, visited = self._expand_cluster(seed, assignment)
                vertices_visited += visited
                for pid in members:
                    assignment[pid] = next_label
                next_label += 1
                if self.checkpoint is not None:
                    self._live.update(
                        vertices_visited=vertices_visited,
                        next_label=next_label,
                    )
                    self._ckpt_tick()

        n_outliers = self._apply_min_sup(assignment)
        if _OBS.enabled:
            _obs_add("epslink.expansions", next_label)
            _obs_add("epslink.vertices_visited", vertices_visited)
            _obs_add("epslink.outliers", n_outliers)
        return ClusteringResult(
            assignment,
            algorithm=self.algorithm_name,
            params={"eps": self.eps, "min_sup": self.min_sup},
            stats={
                "clusters_before_min_sup": next_label,
                "outliers": n_outliers,
                "vertices_visited": vertices_visited,
            },
        )

    def _checkpoint_state(self) -> dict:
        return {
            "assignment": self._live["assignment"],
            "vertices_visited": self._live["vertices_visited"],
            "next_label": self._live["next_label"],
        }

    def _expand_cluster(self, seed, partial) -> tuple[set[int], int]:
        """Grow the cluster of object ``seed`` by the Figure 6 group scan.

        Returns the member point ids and the number of node settles (a
        hardware-independent cost measure).  Every settle goes through
        :func:`~repro.resilience.deadline.settle_checkpoint` at the
        ``epslink.expand`` site, with ``partial`` as the partial result.
        """
        eps = self.eps
        network = self.network
        points_on_edge = self.points.points_on_edge
        members = {seed.point_id}
        nn_dist: dict[int, float] = {}  # the paper's NNdist
        heap: list[tuple[float, int]] = []

        def scan(node: int, nbr: int, weight: float, entry: float) -> None:
            """Walk edge (node, nbr) away from ``node``, whose distance to
            the cluster is ``entry``: cluster every object within ε, then
            push the far endpoint, and ``node`` itself when the object
            next to it is a member."""
            group = points_on_edge(node, nbr)
            if not group:
                far = entry + weight
            else:
                walk = group if node < nbr else group[::-1]
                offset = walk[0].offset
                # node to its nearest object: first.offset from the
                # smaller endpoint, weight - last.offset from the larger.
                back = offset if node < nbr else weight - offset
                ref = entry + back
                for p in walk:
                    # IEEE subtraction is sign-symmetric: this is the
                    # view's larger-minus-smaller offset, bit for bit.
                    ref += abs(p.offset - offset)
                    offset = p.offset
                    if p.point_id in members:
                        ref = 0.0
                    elif ref <= eps:
                        members.add(p.point_id)
                        ref = 0.0
                far = ref + (weight - offset if node < nbr else offset)
                if (walk[0].point_id in members and back <= eps
                        and back < nn_dist.get(node, math.inf)):
                    nn_dist[node] = back
                    heapq.heappush(heap, (back, node))
            if far <= eps and far < nn_dist.get(nbr, math.inf):
                nn_dist[nbr] = far
                heapq.heappush(heap, (far, nbr))

        # The seed's own edge, walked from both ends: nothing is reached
        # before the seed, everything after it is measured from it.
        u, v = seed.u, seed.v
        weight = network.edge_weight(u, v)
        scan(u, v, weight, math.inf)
        scan(v, u, weight, math.inf)
        visited = 0
        guard = _FAULTS.engaged or _RES.engaged
        while heap:
            d, node = heapq.heappop(heap)
            if d > nn_dist[node]:
                continue  # stale: the cluster came closer since the push
            if guard:
                settle_checkpoint("epslink.expand", partial)
            visited += 1
            for nbr, weight in network.neighbors(node):
                scan(node, nbr, weight, d)
        return members, visited

    def _grow(
        self,
        aug: AugmentedView,
        expansion: Expansion,
        partial,
        limit: int = -1,
        owner: dict | None = None,
    ) -> Expansion | None:
        """Continue ``expansion`` over the augmented graph, one heap vertex
        per object: the resumable ε-Link expansion the live split check runs.

        Settles at most ``limit`` vertices (no limit when negative); the
        expansion is exhausted once its heap is empty.  Every settle goes
        through :func:`~repro.resilience.deadline.settle_checkpoint` at the
        ``epslink.expand`` site, with ``partial`` as the partial result.

        With an ``owner`` map (point id -> expansion), every object the
        expansion absorbs is claimed for it.  Reaching within ε an object
        that another expansion owns ends the run and returns that
        expansion: both grow the same cluster (see
        :meth:`Expansion.absorb`).  Returns ``None`` otherwise.
        """
        eps = self.eps
        members, best, heap = expansion.members, expansion.best, expansion.heap
        neighbors = aug.neighbors
        visited = 0
        guard = _FAULTS.engaged or _RES.engaged
        met = expansion
        while heap and visited != limit:
            d, vertex = heapq.heappop(heap)
            if d > best.get(vertex, math.inf):
                continue  # stale entry superseded by a closer source
            if guard:
                settle_checkpoint("epslink.expand", partial)
            visited += 1
            kind, ident = vertex
            if kind == POINT and ident not in members:
                if owner is not None:
                    met = owner.setdefault(ident, expansion)
                    if met is not expansion:
                        break
                # A new object within eps of the cluster: absorb it and make
                # it a fresh distance-0 source.
                members.add(ident)
                best[vertex] = 0.0
                d = 0.0
            for nbr, seg in neighbors(vertex):
                nd = d + seg
                if nd <= eps and nd < best.get(nbr, math.inf):
                    best[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
                    if owner is not None and nbr[0] == POINT:
                        met = owner.get(nbr[1], expansion)
                        if met is not expansion:
                            # Back on the heap: the rest of its
                            # neighbours are relaxed when it settles again.
                            heapq.heappush(heap, (d, vertex))
                            break
            if met is not expansion:
                break
        expansion.visited += visited
        return None if met is expansion else met

    def _apply_min_sup(self, assignment: dict[int, int]) -> int:
        """Demote clusters smaller than ``min_sup`` to noise; returns the
        number of points demoted."""
        if self.min_sup <= 1:
            return 0
        sizes: dict[int, int] = {}
        for label in assignment.values():
            sizes[label] = sizes.get(label, 0) + 1
        demoted = 0
        for pid, label in assignment.items():
            if sizes[label] < self.min_sup:
                assignment[pid] = NOISE
                demoted += 1
        return demoted
