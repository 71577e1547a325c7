"""Single-Link hierarchical clustering over network distances (Section 4.4).

The paper's Single-Link starts from one cluster per object and repeatedly
merges the closest pair of clusters, computing the whole dendrogram with *a
single traversal of the network* and two priority queues (Figure 8): nodes
are expanded in order of distance from their nearest cluster, and a cluster
pair is merged only when no closer pair can still be discovered through the
top node of the node queue.  That lazy traversal is exactly a computation of
the minimum spanning tree of the network-distance graph over the objects —
single-link merge order and distances are determined by that MST.

This implementation performs the same single traversal in its standard,
provably-correct formulation (Mehlhorn's network-Voronoi construction),
reading each edge's point group in its stored offset order (Section 4.1):

1. one scan of the edges seeds every node with the nearest object of each
   populated incident edge (``first.offset`` from the smaller endpoint,
   ``weight - last.offset`` from the larger), and one *concurrent
   expansion* over network nodes, relaxing only the empty edges, gives
   every node its nearest object (``owner``) and distance — the network
   Voronoi diagram of the objects.  A node equidistant from several
   objects is owned by the smallest point id, so every backend builds
   the same diagram;
2. one pass over the edges offers every *bridge* between two owners: two
   consecutive objects of a group, an end object and the owner of its
   adjacent node, and an empty edge between two owners, each witnessing
   a path of length ``dist(x) + len(x, y) + dist(y)``; the cheapest
   bridge per object pair is kept;
3. Kruskal's algorithm with weighted-union Union-Find merges clusters in
   ascending bridge order, emitting the dendrogram.

For every bipartition of the objects, the cheapest crossing bridge has
exactly the minimum crossing network distance, so the produced dendrogram is
*identical* to single-link over the exact pairwise distances (a tested
invariant), at the paper's cost of O(|V| log |V| + N).

The δ *scalability heuristic* of Section 4.4.2 is supported: merges at
distance ≤ δ are applied immediately and silently, so the dendrogram starts
from grouped leaves and the recorded merge history (the paper's heap ``P``)
is an order of magnitude smaller, while every merge above δ is unchanged.
"""

from __future__ import annotations

import heapq
import math

from repro.core.base import NetworkClusterer
from repro.core.dendrogram import Dendrogram, Merge
from repro.core.result import ClusteringResult
from repro.core.unionfind import UnionFind
from repro.exceptions import ParameterError
from repro.faults.core import STATE as _FAULTS
# Unused here; kept as a module attribute because the end-to-end
# benchmark's tracer (benchmarks/e2e/spans.py) wraps it by this name.
from repro.network.dijkstra import multi_source  # noqa: F401
from repro.network.points import PointSet
from repro.obs.core import STATE as _OBS, add as _obs_add, span as _span
from repro.resilience.deadline import (
    STATE as _RES,
    check as _res_check,
    settle_checkpoint,
)

__all__ = ["SingleLink"]


class SingleLink(NetworkClusterer):
    """Single-Link hierarchical clustering of objects on a spatial network.

    Parameters
    ----------
    network:
        Network backend (in-memory or disk-backed).
    points:
        The objects to cluster.
    delta:
        The δ pre-merge threshold (0 disables the heuristic): object pairs
        within network distance δ are merged silently before the dendrogram
        starts, shrinking the recorded hierarchy.
    stop_k:
        When given, :meth:`run` returns the flat clustering with ``stop_k``
        clusters ("the user may opt to stop the algorithm after a desired
        number of k clusters have been discovered").
    stop_distance:
        When given, :meth:`run` cuts the dendrogram at this merge distance
        instead (a Single-Link stopped at ε reproduces ε-Link, Section 5.1).

    Use :meth:`build_dendrogram` for the full hierarchy.
    """

    algorithm_name = "single-link"

    def __init__(
        self,
        network,
        points: PointSet,
        delta: float = 0.0,
        stop_k: int | None = None,
        stop_distance: float | None = None,
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
        if delta < 0:
            raise ParameterError(f"delta must be non-negative, got {delta!r}")
        if stop_k is not None and stop_k < 1:
            raise ParameterError(f"stop_k must be >= 1, got {stop_k!r}")
        if stop_k is not None and stop_distance is not None:
            raise ParameterError("give at most one of stop_k / stop_distance")
        self.delta = float(delta)
        self.stop_k = stop_k
        self.stop_distance = stop_distance
        #: Traversal statistics of the most recent build (see
        #: :meth:`build_dendrogram`).
        self.last_stats: dict = {}

    # ------------------------------------------------------------------
    def build_dendrogram(self) -> Dendrogram:
        """Compute the full single-link dendrogram.

        Traversal statistics of the run (settled vertices, candidate pairs,
        initial cluster count under δ) are kept in :attr:`last_stats`.

        Checkpointing is phase-structured: a forced snapshot right after the
        (expensive) Voronoi/bridge traversal, then a tick per examined
        Kruskal bridge.  A crash *during* the traversal replays it whole —
        its outputs are pure functions of the inputs — while a crash during
        Kruskal resumes from the last snapshotted union-find state.
        """
        resume = self._take_resume_state()
        if resume is None:
            bridges, stats = self._bridges()
            self._live = {
                "phase": "bridges_done",
                "bridges": bridges,
                "stats": stats,
            }
            self._ckpt_save()
        else:
            bridges = [
                (w, a, b) for w, a, b in (tuple(t) for t in resume["bridges"])
            ]
            stats = dict(resume["stats"])
            self._live = {
                "phase": resume["phase"],
                "bridges": bridges,
                "stats": stats,
            }
        return self._kruskal(bridges, stats, resume)

    def _cluster(self) -> ClusteringResult:
        dendrogram = self.build_dendrogram()
        if self.stop_distance is not None:
            result = dendrogram.cut_distance(self.stop_distance)
        elif self.stop_k is not None:
            result = dendrogram.cut_k(self.stop_k)
        else:
            result = dendrogram.cut_k(1)
        result.params.update(delta=self.delta)
        result.stats.update(self.last_stats)
        result.stats.update(
            dendrogram_leaves=dendrogram.num_leaves,
            dendrogram_merges=len(dendrogram.merges),
        )
        return result

    # ------------------------------------------------------------------
    # Phase 1+2: network Voronoi and bridge collection
    # ------------------------------------------------------------------
    def _bridges(self) -> tuple[list[tuple[float, int, int]], dict]:
        """Cheapest connecting path per adjacent object pair.

        Returns bridge triples ``(weight, pid_a, pid_b)`` and traversal
        statistics.
        """
        # Phase 1: the network Voronoi diagram of the objects, over nodes.
        with _span("singlelink.voronoi"):
            dist, owner, groups, empty = self._voronoi()

        # Phase 2: cheapest bridge per adjacent owner pair.
        with _span("singlelink.bridges"):
            best: dict[tuple[int, int], float] = {}

            def offer(a: int, b: int, weight: float) -> None:
                pair = (a, b) if a < b else (b, a)
                if weight < best.get(pair, math.inf):
                    best[pair] = weight

            for u, v, weight, group in groups:
                if _RES.engaged:
                    _res_check("singlelink.bridges", partial=best)
                prev = group[0]
                if owner[u] != prev.point_id:
                    offer(prev.point_id, owner[u], prev.offset + dist[u])
                for p in group[1:]:
                    offer(prev.point_id, p.point_id, p.offset - prev.offset)
                    prev = p
                if owner[v] != prev.point_id:
                    offer(prev.point_id, owner[v], (weight - prev.offset) + dist[v])
            for u, v, weight in empty:
                if _RES.engaged:
                    _res_check("singlelink.bridges", partial=best)
                du = dist.get(u)
                if du is None:
                    continue  # an empty edge in a component without objects
                dv = dist[v]
                if owner[u] != owner[v]:
                    # Both directions, as a search from either end adds
                    # them: the two sums can differ by one ulp.
                    offer(owner[u], owner[v],
                          min((du + weight) + dv, (dv + weight) + du))
            bridges = sorted((w, a, b) for (a, b), w in best.items())
        stats = {
            "vertices_settled": len(dist),
            "candidate_pairs": len(bridges),
        }
        if _OBS.enabled:
            _obs_add("singlelink.vertices_settled", len(dist))
            _obs_add("singlelink.candidate_pairs", len(bridges))
        return bridges, stats

    def _voronoi(self) -> tuple[dict[int, float], dict[int, int], list, list]:
        """Settle every node reachable from an object, nearest object first.

        One scan of the edges ``u < v`` seeds each endpoint of a populated
        edge with its nearest object of that edge, at the view's segment
        expressions (``first.offset`` from ``u``, ``weight - last.offset``
        from ``v``), and keeps the empty edges, the only ones relaxed: a
        path into a node through a populated edge is never shorter than
        that edge's own end-object seed.  The heap is keyed ``(distance,
        node, point_id)``, so a node equidistant from several objects is
        owned by the smallest point id, whatever order the backend lists
        edges in.

        Returns each settled node's distance and owner, the populated
        edges as ``(u, v, weight, group)`` and the empty ones as ``(u, v,
        weight)``.
        """
        network = self.network
        points_on_edge = self.points.points_on_edge
        groups = []
        empty = []
        links: dict[int, list[tuple[int, float]]] = {}  # over empty edges
        heap: list[tuple[float, int, int]] = []
        for u in network.nodes():
            for v, weight in network.neighbors(u):
                if v < u:
                    continue
                group = points_on_edge(u, v)
                if group:
                    first, last = group[0], group[-1]
                    heap.append((first.offset, u, first.point_id))
                    heap.append((weight - last.offset, v, last.point_id))
                    groups.append((u, v, weight, group))
                else:
                    empty.append((u, v, weight))
                    links.setdefault(u, []).append((v, weight))
                    links.setdefault(v, []).append((u, weight))
        heapq.heapify(heap)
        dist: dict[int, float] = {}
        owner: dict[int, int] = {}
        guard = _FAULTS.engaged or _RES.engaged
        while heap:
            d, node, pid = heapq.heappop(heap)
            if node in dist:
                continue
            if guard:
                settle_checkpoint("singlelink.voronoi", (dist, owner))
            dist[node] = d
            owner[node] = pid
            for nbr, weight in links.get(node, ()):
                if nbr not in dist:
                    heapq.heappush(heap, (d + weight, nbr, pid))
        return dist, owner, groups, empty

    # ------------------------------------------------------------------
    # Phase 3: Kruskal with the delta heuristic
    # ------------------------------------------------------------------
    def _kruskal(
        self,
        bridges: list[tuple[float, int, int]],
        stats: dict,
        resume: dict | None = None,
    ) -> Dendrogram:
        with _span("singlelink.kruskal"):
            return self._kruskal_inner(bridges, stats, resume)

    def _kruskal_inner(
        self,
        bridges: list[tuple[float, int, int]],
        stats: dict,
        resume: dict | None = None,
    ) -> Dendrogram:
        if resume is not None and resume["phase"] == "kruskal":
            uf = UnionFind.from_parents(
                {int(k): v for k, v in resume["uf_parent"].items()}
            )
            split = resume["split"]
            leaf_members = [list(m) for m in resume["leaf_members"]]
            cluster_of_root = {
                int(k): v for k, v in resume["cluster_of_root"].items()
            }
            merges = [Merge(*row) for row in resume["merges"]]
            next_id = resume["next_id"]
            cursor = resume["cursor"]
            stats["initial_clusters"] = len(leaf_members)
            stats["premerged_pairs"] = split
        else:
            uf = UnionFind(sorted(self.points.point_ids()))
            # Delta pre-merge phase: apply cheap merges without recording
            # them (Section 4.4.2 -- "we immediately merge points whose
            # distance is at most delta ... we lose the first merges of the
            # dendrogram").
            split = 0
            if self.delta > 0:
                while split < len(bridges) and bridges[split][0] <= self.delta:
                    _, a, b = bridges[split]
                    uf.union(a, b)
                    split += 1

            # Leaves: current components of the pre-merge graph.
            leaf_of: dict[int, int] = {}
            leaf_members = []
            for root, members in sorted(
                uf.sets().items(), key=lambda kv: kv[1][0]
            ):
                leaf_of[root] = len(leaf_members)
                leaf_members.append(members)
            stats["initial_clusters"] = len(leaf_members)
            stats["premerged_pairs"] = split

            # Recorded merge phase.
            cluster_of_root = {root: leaf_of[root] for root in leaf_of}
            merges = []
            next_id = len(leaf_members)
            cursor = split

        if self.checkpoint is not None:
            self._live.update(
                phase="kruskal",
                uf=uf,
                split=split,
                leaf_members=leaf_members,
                cluster_of_root=cluster_of_root,
                merges=merges,
            )
        for cursor in range(cursor, len(bridges)):
            if _RES.engaged:
                _res_check("singlelink.kruskal", partial=merges)
            weight, a, b = bridges[cursor]
            ra, rb = uf.find(a), uf.find(b)
            if ra != rb:
                left = cluster_of_root.pop(ra)
                right = cluster_of_root.pop(rb)
                root, size = uf.link(ra, rb)
                cluster_of_root[root] = next_id
                merges.append(
                    Merge(
                        distance=weight,
                        left=left,
                        right=right,
                        merged=next_id,
                        size=size,
                    )
                )
                next_id += 1
            if self.checkpoint is not None:
                self._live.update(cursor=cursor + 1, next_id=next_id)
                self._ckpt_tick()

        self.last_stats = stats
        if _OBS.enabled:
            _obs_add("singlelink.premerged_pairs", split)
            _obs_add("singlelink.recorded_merges", len(merges))
            _obs_add("singlelink.initial_clusters", len(leaf_members))
        return Dendrogram(leaf_members, merges, premerge_distance=self.delta)

    def _checkpoint_state(self) -> dict:
        live = self._live
        state = {
            "phase": live["phase"],
            "bridges": [list(b) for b in live["bridges"]],
            "stats": live["stats"],
        }
        if live["phase"] == "kruskal":
            uf = live["uf"]
            state.update(
                uf_parent=uf._parent,
                split=live["split"],
                leaf_members=live["leaf_members"],
                cluster_of_root=live["cluster_of_root"],
                merges=[
                    [m.distance, m.left, m.right, m.merged, m.size]
                    for m in live["merges"]
                ],
                next_id=live["next_id"],
                cursor=live["cursor"],
            )
        return state
