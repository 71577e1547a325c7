"""Network adaptation of DBSCAN (paper Section 4.3).

The paper observes that DBSCAN [Ester et al.] "can be directly applied on
our network model": the ε-neighbourhood of an object is computed "by
expanding the network around p and assigning points until the distance
exceeds ε (a similar range search algorithm was proposed in [16])", and a
range query must be performed for every object — which is why the paper's
experiments find it considerably slower than ε-Link even though, with the
right parameters, both produce identical clusters (Figure 11c).

This is the standard DBSCAN control flow with the Euclidean range query
replaced by :func:`repro.network.queries.range_query`, [16]'s network
expansion over the point groups:

* an object is a *core* object when its ε-neighbourhood (itself included)
  holds at least ``min_pts`` objects;
* clusters grow from core objects through density-reachability;
* non-core objects within ε of a core object become *border* members;
* remaining objects are noise.
"""

from __future__ import annotations

from collections import deque

from repro.core.base import NetworkClusterer
from repro.core.result import ClusteringResult
from repro.eval.metrics import NOISE
from repro.exceptions import ParameterError
from repro.network.augmented import AugmentedView
from repro.network.points import PointSet
from repro.network.queries import range_query
from repro.obs.core import STATE as _OBS, add as _obs_add, span as _span
from repro.resilience.deadline import STATE as _RES, check as _res_check

__all__ = ["NetworkDBSCAN"]

_UNVISITED = -2


class NetworkDBSCAN(NetworkClusterer):
    """DBSCAN over network distances.

    Parameters
    ----------
    network:
        Network backend (in-memory or disk-backed).
    points:
        The objects to cluster.
    eps:
        Neighbourhood radius ε > 0 (network distance).
    min_pts:
        Density threshold: minimum neighbourhood size (query object
        included) for a core object.  With ``min_pts=2`` the discovered
        clusters coincide with ε-Link's, as the paper notes.

    Notes
    -----
    Border objects reachable from several clusters are assigned to the
    cluster whose core object reaches them first, matching the original
    DBSCAN's behaviour (assignment of shared border points is
    order-dependent by definition).
    """

    algorithm_name = "dbscan"

    def __init__(
        self,
        network,
        points: PointSet,
        eps: float,
        min_pts: int = 2,
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
        if min_pts < 1:
            raise ParameterError(f"min_pts must be >= 1, got {min_pts!r}")
        self.eps = float(eps)
        self.min_pts = int(min_pts)

    def _cluster(self) -> ClusteringResult:
        resume = self._take_resume_state()
        aug = AugmentedView(self.network, self.points)
        assignment: dict[int, int] = {
            p.point_id: _UNVISITED for p in self.points
        }
        n_range_queries = 0
        next_label = 0
        if resume is not None:
            # Snapshots are taken only at seed boundaries, so the restored
            # assignment never contains a half-grown cluster; seeds whose
            # entries are no longer _UNVISITED are skipped and a seed whose
            # growth was interrupted is simply regrown from scratch.
            assignment.update(
                (int(k), v) for k, v in resume["assignment"].items()
            )
            n_range_queries = resume["n_range_queries"]
            next_label = resume["next_label"]
        self._live = {
            "assignment": assignment,
            "n_range_queries": n_range_queries,
            "next_label": next_label,
        }
        with _span("dbscan.scan"):
            for seed in self.points:
                if _RES.engaged:
                    _res_check("dbscan.seed", partial=assignment)
                if assignment[seed.point_id] != _UNVISITED:
                    continue
                neighborhood = range_query(aug, seed, self.eps)
                n_range_queries += 1
                if len(neighborhood) < self.min_pts:
                    assignment[seed.point_id] = NOISE  # may become border later
                    self._tick(n_range_queries, next_label)
                    continue
                # Found a new core object: grow its cluster.
                label = next_label
                next_label += 1
                assignment[seed.point_id] = label
                queue = deque(p.point_id for p, _ in neighborhood)
                while queue:
                    pid = queue.popleft()
                    state = assignment[pid]
                    if state == NOISE:
                        # Previously deemed noise: it is density-reachable, so
                        # it becomes a border member of this cluster.
                        assignment[pid] = label
                        continue
                    if state != _UNVISITED:
                        continue
                    assignment[pid] = label
                    member_neighborhood = range_query(
                        aug, self.points.get(pid), self.eps
                    )
                    n_range_queries += 1
                    if len(member_neighborhood) >= self.min_pts:
                        # pid is core: its neighbours are density-reachable.
                        queue.extend(p.point_id for p, _ in member_neighborhood)
                self._tick(n_range_queries, next_label)
        n_noise = sum(1 for lab in assignment.values() if lab == NOISE)
        if _OBS.enabled:
            _obs_add("dbscan.range_queries", n_range_queries)
            _obs_add("dbscan.noise_points", n_noise)
            _obs_add("dbscan.clusters", next_label)
        return ClusteringResult(
            assignment,
            algorithm=self.algorithm_name,
            params={"eps": self.eps, "min_pts": self.min_pts},
            stats={"range_queries": n_range_queries, "noise": n_noise},
        )

    def _tick(self, n_range_queries: int, next_label: int) -> None:
        if self.checkpoint is not None:
            self._live.update(
                n_range_queries=n_range_queries, next_label=next_label
            )
            self._ckpt_tick()

    def _checkpoint_state(self) -> dict:
        return {
            "assignment": self._live["assignment"],
            "n_range_queries": self._live["n_range_queries"],
            "next_label": self._live["next_label"],
        }
