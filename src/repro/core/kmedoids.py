"""Network k-medoids: the paper's partitioning algorithm (Section 4.2).

A set of k objects (*medoids*) is drawn at random; every object is assigned
to the cluster of the nearest reachable medoid; then single-medoid swaps are
attempted, each committed only when it lowers the evaluation function

    R({(C_i, m_i)}) = sum_i sum_{p in C_i} d(p, m_i),

until ``max_bad_swaps`` consecutive replacements fail (a local optimum).
Multiple random restarts keep the best local optimum, as in PAM/CLARA.

The two network-specific subroutines are implemented exactly as in the
paper:

* :meth:`NetworkKMedoids.medoid_dist_find` — Figure 4's ``Medoid_Dist_Find``:
  a *concurrent* Dijkstra expansion seeded from every medoid's edge
  endpoints, tagging every network node with its nearest medoid and the
  distance to it in one traversal.
* :meth:`NetworkKMedoids.assign_points` — Equation 1: a point p on edge
  (n_x, n_y) is assigned to the nearest of (a) the medoid nearest to n_x via
  n_x, (b) the medoid nearest to n_y via n_y, (c) a medoid lying on p's own
  edge, reached directly.
* :meth:`NetworkKMedoids.inc_medoid_update` — Figure 5's
  ``Inc_Medoid_Update``: after swapping ``old_medoid -> new_medoid`` only
  the nodes previously owned by the removed medoid are re-seeded (from
  their still-assigned frontier neighbours) together with the new medoid's
  edge endpoints, and the expansion may *improve* existing assignments.
  This produces exactly the same node tagging as running
  ``Medoid_Dist_Find`` from scratch (a tested invariant) at a fraction of
  the cost — the paper's Figure 12 speedup experiment.
"""

from __future__ import annotations

import heapq
import math
import random
import time

from repro.core.base import NetworkClusterer
from repro.core.degrade import ComponentPointSet, distribute_k
from repro.core.result import ClusteringResult
from repro.eval.metrics import NOISE
from repro.exceptions import ParameterError
from repro.faults.core import STATE as _FAULTS
from repro.resilience.deadline import STATE as _RES, settle_checkpoint
from repro.network.dijkstra import multi_source
from repro.network.points import NetworkPoint, PointSet
from repro.obs.core import STATE as _OBS, add as _obs_add, span as _span

__all__ = ["NetworkKMedoids", "MedoidState"]


class MedoidState:
    """Node tagging for a medoid set: nearest medoid and distance per node.

    ``node_dist[n]`` is the network distance from node ``n`` to its nearest
    medoid and ``node_medoid[n]`` that medoid's point id.  Nodes unreachable
    from every medoid are absent from both maps.
    """

    __slots__ = ("node_dist", "node_medoid")

    def __init__(
        self,
        node_dist: dict[int, float],
        node_medoid: dict[int, int],
    ) -> None:
        self.node_dist = node_dist
        self.node_medoid = node_medoid

    def copy(self) -> "MedoidState":
        return MedoidState(dict(self.node_dist), dict(self.node_medoid))


class NetworkKMedoids(NetworkClusterer):
    """k-medoids clustering of objects on a spatial network.

    Parameters
    ----------
    network:
        Network backend (in-memory or disk-backed).
    points:
        The objects to cluster.
    k:
        Number of clusters, ``1 <= k <= len(points)``.
    max_bad_swaps:
        Consecutive unsuccessful medoid replacements before declaring a
        local optimum (the paper uses 15).
    n_restarts:
        Number of independent random initialisations; the best local
        optimum wins.
    incremental:
        Use ``Inc_Medoid_Update`` for swap evaluation (default) instead of
        recomputing the node tagging from scratch each time.
    seed:
        Seed for the internal random generator (reproducible runs).
    initial_medoids:
        Optional explicit initial medoid point ids (used by the paper's
        "ideal initialisation" experiment, Figure 11b); overrides random
        initialisation for the first restart.
    max_swaps:
        Hard cap on swap attempts per restart (safety valve; the paper's
        termination is via ``max_bad_swaps``).
    budget / check_connectivity:
        See :class:`~repro.core.base.NetworkClusterer`.  k-medoids is the
        one algorithm that cannot natively handle a disconnected network
        (medoids seeded in one component never reach another), so by
        default connectivity is analysed and a disconnected input is
        clustered per component with ``k`` apportioned by object count.
    """

    algorithm_name = "k-medoids"
    handles_disconnected = False

    def __init__(
        self,
        network,
        points: PointSet,
        k: int,
        max_bad_swaps: int = 15,
        n_restarts: int = 1,
        incremental: bool = True,
        seed: int | None = None,
        initial_medoids: list[int] | None = None,
        max_swaps: int = 10_000,
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
        if not 1 <= k <= len(points):
            raise ParameterError(
                f"k must be in [1, {len(points)}], got {k!r}"
            )
        if max_bad_swaps < 0:
            raise ParameterError("max_bad_swaps must be non-negative")
        if n_restarts < 1:
            raise ParameterError("n_restarts must be >= 1")
        if initial_medoids is not None:
            if len(set(initial_medoids)) != k:
                raise ParameterError(
                    f"initial_medoids must hold {k} distinct point ids"
                )
            for pid in initial_medoids:
                points.get(pid)  # raises PointNotFoundError when absent
        self.k = int(k)
        self.max_bad_swaps = int(max_bad_swaps)
        self.n_restarts = int(n_restarts)
        self.incremental = bool(incremental)
        self.initial_medoids = list(initial_medoids) if initial_medoids else None
        self.max_swaps = int(max_swaps)
        self._rng = random.Random(seed)
        self._incident_cache: dict[int, list[tuple[int, int]]] | None = None
        #: live references for _checkpoint_state (set by _cluster/_swap_loop)
        self._live: dict = {}

    # ------------------------------------------------------------------
    # Figure 4: Medoid_Dist_Find
    # ------------------------------------------------------------------
    def medoid_dist_find(self, medoids: list[NetworkPoint]) -> MedoidState:
        """Tag every node with its nearest medoid via concurrent expansion.

        All medoids' edge endpoints are enqueued with their direct
        distances, then a single multi-source Dijkstra settles each node
        exactly once at its final (minimal) distance.
        """
        entries: list[tuple[float, int, object]] = []
        for m in medoids:
            weight = self.network.edge_weight(m.u, m.v)
            entries.append((m.offset, m.u, m.point_id))
            entries.append((weight - m.offset, m.v, m.point_id))
        node_dist, node_medoid = multi_source(self.network, entries)
        return MedoidState(node_dist, node_medoid)

    # ------------------------------------------------------------------
    # Figure 5: Inc_Medoid_Update
    # ------------------------------------------------------------------
    def inc_medoid_update(
        self,
        state: MedoidState,
        old_medoid: NetworkPoint,
        new_medoid: NetworkPoint,
        surviving: list[NetworkPoint],
    ) -> MedoidState:
        """Node tagging after swapping ``old_medoid -> new_medoid``.

        The input ``state`` is not modified; a new state is returned.

        ``surviving`` are the medoids kept across the swap.  Their edge
        endpoints are re-enqueued along with the frontier seeds: the paper's
        Figure 5 seeds the reset region only from still-assigned neighbour
        nodes, which misses the corner case where *every* node around a
        surviving medoid was owned by the removed one (then no frontier
        carries that survivor's influence back in); it also cannot recover a
        surviving medoid that owned no node at all.  Re-seeding survivors
        costs O(k) heap entries and the improve-only acceptance rule makes
        redundant seeds no-ops, so correctness is restored at negligible
        cost.

        See :meth:`inc_medoid_update_inplace` for the allocation-free
        variant the swap loop uses.
        """
        new_state = state.copy()
        self.inc_medoid_update_inplace(new_state, old_medoid, new_medoid, surviving)
        return new_state

    def inc_medoid_update_inplace(
        self,
        state: MedoidState,
        old_medoid: NetworkPoint,
        new_medoid: NetworkPoint,
        surviving: list[NetworkPoint],
    ) -> list[tuple[int, float | None, int | None]]:
        """In-place ``Inc_Medoid_Update`` returning an undo log.

        Mutates ``state`` and returns the change log for
        :meth:`rollback_update` — the paper's "the change is rolled-back"
        without copying the O(|V|) node maps, which would otherwise dominate
        the incremental iteration's cost at large k (the whole point of
        Figure 12 is that the *touched region* shrinks as k grows).
        """
        node_dist = state.node_dist
        node_medoid = state.node_medoid
        old_id = old_medoid.point_id
        log: list[tuple[int, float | None, int | None]] = []

        def record(node: int) -> None:
            log.append((node, node_dist.get(node), node_medoid.get(node)))

        # Unassign every node owned by the removed medoid (paper lines 2-4).
        reset_nodes = [n for n, med in node_medoid.items() if med == old_id]
        for n in reset_nodes:
            record(n)
            del node_dist[n]
            del node_medoid[n]

        heap: list[tuple[float, int, int, int]] = []
        counter = 0
        # Seed the reset region from its still-assigned frontier (lines 5-10).
        for n in reset_nodes:
            for nbr, weight in self.network.neighbors(n):
                med = node_medoid.get(nbr)
                if med is not None:
                    heap.append((node_dist[nbr] + weight, counter, n, med))
                    counter += 1
        # Seed the new medoid's edge endpoints (lines 11-16) and re-seed the
        # survivors' endpoints (see inc_medoid_update's docstring).
        for m in [new_medoid, *surviving]:
            weight = self.network.edge_weight(m.u, m.v)
            heap.append((m.offset, counter, m.u, m.point_id))
            counter += 1
            heap.append((weight - m.offset, counter, m.v, m.point_id))
            counter += 1
        heapq.heapify(heap)

        guard = _FAULTS.engaged or _RES.engaged
        # Modified Concurrent_Expansion: accept a pop when the node is
        # unassigned *or* the new distance improves on the stored one.
        while heap:
            d, _, node, med = heapq.heappop(heap)
            current = node_dist.get(node)
            if current is not None and d >= current:
                continue
            if guard:
                settle_checkpoint("kmedoids.update_settle", state)
            record(node)
            node_dist[node] = d
            node_medoid[node] = med
            for nbr, weight in self.network.neighbors(node):
                nd = d + weight
                nbr_current = node_dist.get(nbr)
                if nbr_current is None or nd < nbr_current:
                    counter += 1
                    heapq.heappush(heap, (nd, counter, nbr, med))
        return log

    @staticmethod
    def rollback_update(
        state: MedoidState,
        log: list[tuple[int, float | None, int | None]],
    ) -> None:
        """Undo an :meth:`inc_medoid_update_inplace` (reverse replay)."""
        node_dist = state.node_dist
        node_medoid = state.node_medoid
        for node, dist, med in reversed(log):
            if dist is None:
                node_dist.pop(node, None)
                node_medoid.pop(node, None)
            else:
                node_dist[node] = dist
                node_medoid[node] = med

    # ------------------------------------------------------------------
    # Equation 1: point assignment
    # ------------------------------------------------------------------
    @staticmethod
    def _medoids_by_edge(
        medoids: list[NetworkPoint],
    ) -> dict[tuple[int, int], list[NetworkPoint]]:
        by_edge: dict[tuple[int, int], list[NetworkPoint]] = {}
        for m in medoids:
            by_edge.setdefault(m.edge, []).append(m)
        return by_edge

    def _assign_edge_points(
        self,
        edge: tuple[int, int],
        group,
        same_edge_medoids,
        state: MedoidState,
        assignment: dict[int, int],
        distance: dict[int, float],
    ) -> None:
        """Evaluate Equation 1 for every point of one edge's ``group``, in
        place."""
        u, v = edge
        weight = self.network.edge_weight(u, v)
        du = state.node_dist.get(u)
        dv = state.node_dist.get(v)
        node_medoid = state.node_medoid
        budget = _FAULTS.budget if _FAULTS.engaged else None
        for p in group:
            if budget is not None:
                # One Equation-1 evaluation per point.
                budget.spend_distance_computations(1, partial=assignment)
            best = math.inf
            best_med = NOISE
            if du is not None:
                cand = du + p.offset
                if cand < best:
                    best = cand
                    best_med = node_medoid[u]
            if dv is not None:
                cand = dv + (weight - p.offset)
                if cand < best:
                    best = cand
                    best_med = node_medoid[v]
            for m in same_edge_medoids:
                cand = abs(m.offset - p.offset)
                if cand < best:
                    best = cand
                    best_med = m.point_id
            assignment[p.point_id] = best_med
            distance[p.point_id] = best

    def assign_points(
        self,
        medoids: list[NetworkPoint],
        state: MedoidState,
    ) -> tuple[dict[int, int], dict[int, float]]:
        """Assign every point to its nearest medoid (Equation 1).

        Returns ``(assignment, distance)`` maps keyed by point id; points
        unreachable from every medoid get label ``NOISE`` and distance inf
        (impossible on a connected network).
        """
        medoids_by_edge = self._medoids_by_edge(medoids)
        group_of = self.points.group
        assignment: dict[int, int] = {}
        distance: dict[int, float] = {}
        for edge in self.points.populated_edges():
            self._assign_edge_points(
                edge, group_of(*edge), medoids_by_edge.get(edge, ()), state,
                assignment, distance,
            )
        return assignment, distance

    def assign_points_incremental(
        self,
        medoids: list[NetworkPoint],
        state: MedoidState,
        changed_nodes,
        extra_edges,
        assignment: dict[int, int],
        distance: dict[int, float],
        incident_edges: dict[int, list[tuple[int, int]]],
    ) -> list[tuple[int, int, float]]:
        """Re-evaluate Equation 1 only where the swap could change it.

        A point's assignment depends on its endpoints' node tags and on the
        medoids lying on its own edge, so only edges incident to
        ``changed_nodes`` (the undo log of the in-place update) plus
        ``extra_edges`` (the old and new medoids' edges, whose same-edge
        medoid sets changed) need rework.  ``assignment``/``distance`` are
        updated in place; the returned undo log restores them via
        :meth:`rollback_assignment`.  Values are computed by the same code
        path as :meth:`assign_points`, so the maintained maps stay
        bit-identical to a full rescan (a tested invariant).
        """
        affected: set[tuple[int, int]] = set(extra_edges)
        for node in changed_nodes:
            affected.update(incident_edges.get(node, ()))
        medoids_by_edge = self._medoids_by_edge(medoids)
        group_of = self.points.group
        log: list[tuple[int, int, float]] = []
        for edge in affected:
            group = group_of(*edge)
            for p in group:
                log.append((p.point_id, assignment[p.point_id],
                            distance[p.point_id]))
            self._assign_edge_points(
                edge, group, medoids_by_edge.get(edge, ()), state, assignment,
                distance,
            )
        return log

    @staticmethod
    def rollback_assignment(
        assignment: dict[int, int],
        distance: dict[int, float],
        log: list[tuple[int, int, float]],
    ) -> None:
        """Undo an :meth:`assign_points_incremental` (reverse replay)."""
        for pid, med, dist in reversed(log):
            assignment[pid] = med
            distance[pid] = dist

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _cluster(self) -> ClusteringResult:
        resume = self._take_resume_state()
        all_ids = sorted(self.points.point_ids())
        best_R = math.inf
        best_assignment: dict[int, int] | None = None
        best_medoids: list[int] = []
        stats = {
            "restarts": self.n_restarts,
            "iterations": 0,
            "committed_swaps": 0,
            "first_iteration_time_s": 0.0,
            "incremental_iteration_time_s": 0.0,
            "incremental_iterations": 0,
        }
        start_restart = 0
        if resume is not None:
            stats.update(resume["stats"])
            best_R = resume["best_R"]
            if resume["best_assignment"] is not None:
                best_assignment = {
                    int(k): v for k, v in resume["best_assignment"].items()
                }
            best_medoids = list(resume["best_medoids"])
            start_restart = resume["restart"]
            version, internal, gauss = resume["rng"]
            self._rng.setstate((version, tuple(internal), gauss))

        for restart in range(start_restart, self.n_restarts):
            self._live.update(
                restart=restart, best_R=best_R, best_assignment=best_assignment,
                best_medoids=best_medoids, stats=stats,
            )
            if resume is not None:
                # Re-enter the interrupted restart mid-swap-loop; the seed
                # and expand phases were already paid for before the crash.
                result = self._local_optimum(None, stats, resume=resume)
                resume = None
            else:
                if restart == 0 and self.initial_medoids is not None:
                    medoid_ids = list(self.initial_medoids)
                else:
                    medoid_ids = self._rng.sample(all_ids, self.k)
                result = self._local_optimum(medoid_ids, stats)
            R, assignment, medoid_ids = result
            if R < best_R:
                best_R = R
                best_assignment = assignment
                best_medoids = medoid_ids

        assert best_assignment is not None
        stats["R"] = best_R
        return ClusteringResult(
            best_assignment,
            algorithm=self.algorithm_name,
            params={
                "k": self.k,
                "max_bad_swaps": self.max_bad_swaps,
                "n_restarts": self.n_restarts,
                "incremental": self.incremental,
            },
            stats=dict(stats, medoids=best_medoids),
        )

    def _cluster_components(self, report) -> ClusteringResult:
        """Cluster a disconnected network one component at a time.

        ``k`` is apportioned over the populated components in proportion to
        their object counts (see :func:`~repro.core.degrade.distribute_k`).
        Cluster labels are medoid point ids — globally unique — so the
        per-component assignments merge without relabelling.  When
        ``k`` is smaller than the number of populated components, the
        smallest components receive no medoid and their objects are
        reported as ``NOISE`` (counted in ``stats["unclustered_points"]``).
        """
        populated = [
            (comp, count)
            for comp, count in zip(report.components, report.point_counts)
            if count > 0
        ]
        quotas = distribute_k(self.k, [count for _, count in populated])
        assignment: dict[int, int] = {}
        medoids: list[int] = []
        total_R = 0.0
        unclustered = 0
        per_component: list[dict] = []
        for (comp, count), quota in zip(populated, quotas):
            view = ComponentPointSet(self.points, comp)
            if quota == 0:
                for p in view:
                    assignment[p.point_id] = NOISE
                unclustered += count
                per_component.append({"points": count, "k": 0})
                continue
            sub = NetworkKMedoids(
                self.network,
                view,
                quota,
                max_bad_swaps=self.max_bad_swaps,
                n_restarts=self.n_restarts,
                incremental=self.incremental,
                seed=self._rng.randrange(2**32),
                max_swaps=self.max_swaps,
                check_connectivity=False,
            )
            # _cluster (not run): the surrounding run() already owns the
            # span, timing, and budget activation.
            sub_result = sub._cluster()
            assignment.update(sub_result.assignment)
            medoids.extend(sub_result.stats["medoids"])
            total_R += sub_result.stats["R"]
            per_component.append(
                {"points": count, "k": quota, "R": sub_result.stats["R"]}
            )
        return ClusteringResult(
            assignment,
            algorithm=self.algorithm_name,
            params={
                "k": self.k,
                "max_bad_swaps": self.max_bad_swaps,
                "n_restarts": self.n_restarts,
                "incremental": self.incremental,
            },
            stats={
                "R": total_R,
                "medoids": sorted(medoids),
                "per_component": per_component,
                "unclustered_points": unclustered,
            },
        )

    def _checkpoint_state(self) -> dict:
        """Swap-loop cursor snapshot (taken at iteration boundaries only).

        Captures everything `_cluster` needs to re-enter the interrupted
        restart: the best-so-far across restarts, the live medoid set and
        node/assignment maps, the bad/swap counters, and the RNG state —
        so the resumed run replays the remaining iterations exactly.
        """
        lv = self._live
        version, internal, gauss = self._rng.getstate()
        return {
            "restart": lv["restart"],
            "best_R": lv["best_R"],
            "best_assignment": lv["best_assignment"],
            "best_medoids": list(lv["best_medoids"]),
            "stats": dict(lv["stats"]),
            "medoid_set": sorted(lv["medoid_set"]),
            "node_dist": dict(lv["state"].node_dist),
            "node_medoid": dict(lv["state"].node_medoid),
            "assignment": dict(lv["assignment"]),
            "distance": dict(lv["distance"]),
            "R": lv["R"],
            "bad": lv["bad"],
            "swaps": lv["swaps"],
            "rng": [version, list(internal), gauss],
        }

    def _incident_populated_edges(self) -> dict[int, list[tuple[int, int]]]:
        """node -> populated edges touching it (built once per instance)."""
        if self._incident_cache is None:
            incident: dict[int, list[tuple[int, int]]] = {}
            for edge in self.points.populated_edges():
                incident.setdefault(edge[0], []).append(edge)
                incident.setdefault(edge[1], []).append(edge)
            self._incident_cache = incident
        return self._incident_cache

    def _local_optimum(
        self,
        medoid_ids: list[int] | None,
        stats: dict,
        resume: dict | None = None,
    ) -> tuple[float, dict[int, int], list[int]]:
        """Iterate medoid swaps from an initial medoid set to a local optimum.

        With ``resume``, the seed/expand phases are skipped and the swap
        loop restarts from the snapshotted cursor (medoid set, node maps,
        assignment, R, bad/swap counters) — the replay is deterministic
        because the RNG state was restored alongside.
        """
        if resume is None:
            assert medoid_ids is not None
            medoids = [self.points.get(pid) for pid in medoid_ids]
            medoid_set = set(medoid_ids)

            t0 = time.perf_counter()
            # The paper's three phases, traced separately: *seed* (Figure
            # 4's concurrent expansion from the initial medoids), *expand*
            # (Equation 1's point assignment), *swap* (the replacement loop).
            with _span("kmedoids.seed"):
                state = self.medoid_dist_find(medoids)
            with _span("kmedoids.expand"):
                assignment, distance = self.assign_points(medoids, state)
            stats["first_iteration_time_s"] += time.perf_counter() - t0
            stats["iterations"] += 1
            R = sum(distance.values())
            bad = swaps = 0
        else:
            medoid_set = set(resume["medoid_set"])
            state = MedoidState(
                {int(k): v for k, v in resume["node_dist"].items()},
                {int(k): v for k, v in resume["node_medoid"].items()},
            )
            assignment = {int(k): v for k, v in resume["assignment"].items()}
            distance = {int(k): v for k, v in resume["distance"].items()}
            R = resume["R"]
            bad = resume["bad"]
            swaps = resume["swaps"]
        incident = self._incident_populated_edges() if self.incremental else None

        all_ids = sorted(self.points.point_ids())
        with _span("kmedoids.swap"):
            medoid_set, R, assignment = self._swap_loop(
                medoid_set, state, assignment, distance, R, all_ids, incident,
                stats, bad=bad, swaps=swaps,
            )
        if _OBS.enabled:
            _obs_add("kmedoids.restarts")
        return R, dict(assignment), sorted(medoid_set)

    def _swap_loop(
        self,
        medoid_set: set[int],
        state: MedoidState,
        assignment: dict[int, int],
        distance: dict[int, float],
        R: float,
        all_ids: list[int],
        incident,
        stats: dict,
        bad: int = 0,
        swaps: int = 0,
    ) -> tuple[set[int], float, dict[int, int]]:
        """The medoid replacement loop (the paper's swap phase).

        Returns the final medoid set, evaluation value and assignment (the
        non-incremental path rebinds the maps rather than mutating them, so
        the caller must take the returned ones).  ``bad``/``swaps`` start
        non-zero when resuming from a checkpoint; each completed iteration
        is a checkpoint tick.
        """
        while bad < self.max_bad_swaps and swaps < self.max_swaps:
            swaps += 1
            old_id = self._rng.choice(sorted(medoid_set))
            new_id = self._rng.choice(all_ids)
            if new_id in medoid_set:
                bad += 1
                continue
            old_medoid = self.points.get(old_id)
            new_medoid = self.points.get(new_id)
            cand_set = (medoid_set - {old_id}) | {new_id}
            cand_medoids = [self.points.get(pid) for pid in sorted(cand_set)]

            t1 = time.perf_counter()
            if self.incremental:
                # Both the node tagging (Figure 5) and the Equation-1 point
                # scan are updated in place, touching only the changed
                # region; a rejected swap replays the undo logs ("the change
                # is rolled-back").
                survivors = [
                    self.points.get(pid) for pid in sorted(medoid_set - {old_id})
                ]
                state_log = self.inc_medoid_update_inplace(
                    state, old_medoid, new_medoid, survivors
                )
                changed_nodes = {node for node, _, _ in state_log}
                assign_log = self.assign_points_incremental(
                    cand_medoids,
                    state,
                    changed_nodes,
                    (old_medoid.edge, new_medoid.edge),
                    assignment,
                    distance,
                    incident,
                )
                cand_R = sum(distance.values())
                committed = cand_R < R
                if committed:
                    medoid_set = cand_set
                    R = cand_R
                else:
                    self.rollback_assignment(assignment, distance, assign_log)
                    self.rollback_update(state, state_log)
                if _OBS.enabled:
                    _obs_add("kmedoids.update_touched_nodes", len(state_log))
                    _obs_add("kmedoids.update_reassigned_points", len(assign_log))
            else:
                cand_state = self.medoid_dist_find(cand_medoids)
                cand_assignment, cand_distance = self.assign_points(
                    cand_medoids, cand_state
                )
                cand_R = sum(cand_distance.values())
                committed = cand_R < R
                if committed:
                    medoid_set = cand_set
                    state = cand_state
                    assignment = cand_assignment
                    distance = cand_distance
                    R = cand_R
            stats["incremental_iteration_time_s"] += time.perf_counter() - t1
            stats["incremental_iterations"] += 1
            stats["iterations"] += 1
            if committed:
                bad = 0
                stats["committed_swaps"] += 1
                if _OBS.enabled:
                    _obs_add("kmedoids.committed_swaps")
            else:
                bad += 1
            if self.checkpoint is not None:
                # The non-incremental path rebinds the maps on commit, so
                # the live references are refreshed every iteration.
                self._live.update(
                    medoid_set=medoid_set, state=state, assignment=assignment,
                    distance=distance, R=R, bad=bad, swaps=swaps,
                )
                self._ckpt_tick()
        if _OBS.enabled:
            _obs_add("kmedoids.swap_iterations", swaps)
        return medoid_set, R, assignment
