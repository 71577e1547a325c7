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
For each yet-unclustered seed object the algorithm runs a Dijkstra-style
expansion over the point-augmented graph in which every object settled
within distance ε of the growing cluster *joins* the cluster and becomes a
fresh distance-0 source (the paper phrases this as "the shortest path for
every node now changes dynamically as new points are assigned in the
cluster").  Distance labels may therefore decrease after a vertex was first
reached; the expansion uses lazy re-relaxation, which remains correct for
non-negative segment lengths and terminates because every relaxation
strictly decreases a label.

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

__all__ = ["EpsLink", "EpsLinkEdgewise", "Expansion"]


class Expansion:
    """The state of one ε-Link cluster expansion, kept between slices of it.

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
        aug = AugmentedView(self.network, self.points)
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
                members, visited = self._expand_cluster(
                    aug, seed.point_id, assignment
                )
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

    def _expand_cluster(
        self,
        aug: AugmentedView,
        seed_id: int,
        assignment: dict[int, int],
    ) -> tuple[set[int], int]:
        """Grow one cluster from ``seed_id``.

        Returns the member point ids and the number of vertex relaxations
        (a hardware-independent cost measure).
        """
        expansion = Expansion(seed_id)
        self._grow(aug, expansion, assignment)
        return expansion.members, expansion.visited

    def _grow(
        self,
        aug: AugmentedView,
        expansion: Expansion,
        partial,
        limit: int = -1,
        owner: dict | None = None,
    ) -> Expansion | None:
        """Run ``expansion`` on: the one expansion loop of ε-Link.

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


class EpsLinkEdgewise(EpsLink):
    """The paper-literal ε-Link traversal (Figure 6).

    Identical clusters to :class:`EpsLink` (a tested invariant), but
    organised exactly as the paper's pseudocode: a priority queue of
    *network nodes* keyed by their (dynamically shrinking) distance to the
    cluster — the ``NNdist`` array — with whole point groups scanned
    edge-by-edge as nodes are dequeued.  Nodes are re-enqueued whenever
    newly clustered points bring the cluster closer to them ("we enqueue
    n 2 again, since its distance from the cluster has decreased").

    This variant reads points in group order (the physical layout of the
    paper's points file), which is why the paper prefers it over the
    per-point range queries of DBSCAN on disk-resident data.
    """

    algorithm_name = "eps-link-edgewise"

    def _expand_cluster(
        self,
        aug: AugmentedView,
        seed_id: int,
        assignment: dict[int, int],
    ) -> tuple[set[int], int]:
        eps = self.eps
        network = self.network
        points = self.points
        members: set[int] = set()
        nn_dist: dict[int, float] = {}  # the paper's NNdist array
        heap: list[tuple[float, int]] = []
        visited = 0

        def scan_edge(node: int, nbr: int, entry: float) -> None:
            """Walk edge (node, nbr) from ``node``, whose distance to the
            cluster is ``entry``; cluster reachable points and enqueue
            improved endpoint distances (paper lines 16-37)."""
            weight = network.edge_weight(node, nbr)
            group = points.points_from(node, nbr)
            pos = 0.0
            ref = entry  # distance to the cluster standing at `pos`
            best_from_node = math.inf  # node's distance via this edge
            for p in group:
                t = p.offset if p.u == node else weight - p.offset
                ref += t - pos
                pos = t
                if p.point_id in members:
                    ref = 0.0
                elif ref <= eps:
                    members.add(p.point_id)
                    ref = 0.0
                if ref == 0.0 and math.isinf(best_from_node):
                    best_from_node = t  # nearest clustered point to `node`
            far = ref + (weight - pos)  # nbr's distance via this walk
            if far <= eps and far < nn_dist.get(nbr, math.inf):
                nn_dist[nbr] = far
                heapq.heappush(heap, (far, nbr))
            if best_from_node <= eps and best_from_node < nn_dist.get(node, math.inf):
                nn_dist[node] = best_from_node
                heapq.heappush(heap, (best_from_node, node))

        # Initialisation (paper lines 3-11): cluster outward from the seed
        # along its own edge, then enqueue the edge's endpoints.
        seed = points.get(seed_id)
        members.add(seed_id)
        for start_node in (seed.u, seed.v):
            other = seed.v if start_node == seed.u else seed.u
            scan_edge(start_node, other, math.inf)
        # Standing at the seed: both endpoints reachable directly.
        for node in (seed.u, seed.v):
            d = points.distance_to_node(seed, node)
            if d <= eps and d < nn_dist.get(node, math.inf):
                nn_dist[node] = d
                heapq.heappush(heap, (d, node))

        # Expansion (paper lines 12-37).
        guard = _FAULTS.engaged or _RES.engaged
        while heap:
            d, node = heapq.heappop(heap)
            if d > nn_dist.get(node, math.inf):
                continue  # stale entry (paper line 14's freshness check)
            if guard:
                settle_checkpoint("epslink.expand", assignment)
            visited += 1
            for nbr, _ in network.neighbors(node):
                scan_edge(node, nbr, d)
        return members, visited
