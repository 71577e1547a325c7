"""Exactness-preserving distance acceleration over one augmented view.

:class:`DistanceAccelerator` bundles the two mechanisms of
:mod:`repro.perf` — landmark (ALT) bounds and the shared
:class:`~repro.perf.DistanceCache` — behind the same query signatures as
the unaccelerated primitives, with one hard guarantee: **every accelerated
search returns bit-identical results to its plain counterpart** (a
property-tested invariant).  Acceleration only ever skips work a plain
search would provably have wasted:

* :meth:`point_distance` — goal-directed Dijkstra over the point-augmented
  graph: pushes whose distance-so-far plus landmark lower bound to the
  target exceed the landmark *upper* bound are outside the shortest-path
  corridor and dropped (settling a fraction of plain Dijkstra's vertices),
  memoized in the shared cache.
* :meth:`range_query` — prefilters the objects whose landmark lower bound
  to the query is ≤ ε and terminates the expansion as soon as all of them
  are settled; non-candidates cannot be within ε, so the result set is
  untouched.
* :meth:`knn_query` — computes landmark *upper* bounds to every object;
  the k-th smallest upper bound caps the true k-th-neighbour distance, so
  heap pushes beyond it are dropped without changing the settle order of
  any vertex that matters.

Range and kNN run the plain loop of :mod:`repro.network.queries`
(``_search``) and differ from the plain searches only by the prefilter
they pass in (the candidate set, the push cutoff): heap discipline, the
``queries.settle`` checkpoint (fault site, deadline, budget charge) and
result ordering are shared.

**Floating-point discipline.**  Bit-identity is structural, not hopeful.
The accelerated searches keep the plain searches' heap ordering and
relaxation arithmetic *exactly* — bounds only ever remove work, they never
reorder it, so every float the caller sees is produced by the same
sequence of operations as in the plain code.  (Textbook ALT runs A*
ordered by ``g + h``; that is exact in real arithmetic but the heuristic's
last-ulp rounding can flip which of two near-tied shortest paths is
reported, which is why we don't.)  And because the bounds themselves are
float-valued, every comparison of a bound against a distance threshold
carries a relative slack of :data:`_REL_SLACK` scaled by the index's
characteristic magnitude — about four orders of magnitude wider than the
worst accumulated rounding error, and about six narrower than any distance
the pruning actually needs to discriminate.  Slack only weakens pruning;
it never changes a result.
* :meth:`screen_swap` — a sound k-medoids swap rejection test: when the
  lower-bounded candidate evaluation ``Σ_p min(d_p, lb)`` already reaches
  the current ``R``, the swap would certainly be rejected and the full
  (incremental) evaluation is skipped.  The screen consumes no randomness
  and mirrors rejected-swap bookkeeping, so the clustering trajectory is
  unchanged.
* :meth:`isolated_points` — an ε-Link prefilter: per-landmark
  nearest-coordinate gaps lower-bound each object's distance to its
  nearest neighbour; objects provably farther than ε from everything form
  singleton clusters without running their expansion.

Staleness is handled through the **single invalidation path** of
:class:`~repro.network.AugmentedView`: the accelerator registers
:meth:`DistanceAccelerator._on_invalidate` at construction, and the view
calls it with ``(point_ids, reweigh)`` — what changed.  An insert or a
remove names its object: only that object's point vector and the cache
entries that can involve it go, because objects carry no weight and the
distances between the others are unchanged.  A mutation nobody announced
(every public method first runs the view's :meth:`AugmentedView.sync`,
which compares the point set's ``version`` and the network's ``edition``
against the watermark it captured) drops every point vector and the
whole cache.  A reweigh, announced or caught by a moved edition, drops
those and the landmark index as well, whose node tables bind to edge
weights: the accelerator degrades to the plain primitives and never
rebuilds the index itself.
"""

from __future__ import annotations

import heapq
import math

from repro.exceptions import UnreachableError
from repro.network.augmented import AugmentedView, NODE, point_vertex
from repro.network.dijkstra import single_source
from repro.network.points import NetworkPoint
from repro.network.queries import _search, knn_query, range_query
from repro.obs.core import STATE as _OBS, add as _obs_add
from repro.perf.cache import DistanceCache
from repro.perf.landmarks import (
    LandmarkIndex,
    vector_lower_bound,
    vector_upper_bound,
)

__all__ = ["DistanceAccelerator", "unaccelerated_point_distance"]

_NO_ENTRY = object()

#: Relative safety slack applied whenever a float-valued landmark bound is
#: compared against a float-valued distance threshold.  Path sums and
#: bounds agree to ~1e-13 relative; meaningful distance gaps are >> 1e-6
#: relative.  1e-9 sits squarely between: pruning that matters survives,
#: pruning that would gamble on the last ulp is declined.
_REL_SLACK = 1e-9


def unaccelerated_point_distance(
    aug: AugmentedView, p: NetworkPoint, q: NetworkPoint
) -> tuple[float, int]:
    """``(distance, vertices_settled)`` by plain Dijkstra.

    The baseline the accelerated search is measured against — functionally
    :func:`repro.network.distance.network_distance`, but reporting the
    settled-vertex count and returning ``inf`` instead of raising for
    unreachable pairs.
    """
    if p.point_id == q.point_id:
        return 0.0, 0
    target = point_vertex(q.point_id)
    dist = single_source(aug, point_vertex(p.point_id), targets=(target,))
    return dist.get(target, math.inf), len(dist)


class DistanceAccelerator:
    """Landmark bounds + shared memoization over one augmented view.

    Parameters
    ----------
    aug:
        The point-augmented view to accelerate.  The accelerator registers
        an invalidation hook on it; whatever the view's ``invalidate``
        reports as changed (or its ``sync`` watermark shows moved) is
        dropped from the memos.
    landmarks:
        Landmarks to select when ``index`` is not given; ``0`` disables
        the bound machinery (searches fall back to the plain primitives,
        still through the cache when one is present).
    cache_mb:
        Budget for a private :class:`DistanceCache` when ``cache`` is not
        given; ``0`` disables memoization entirely.
    index / cache:
        Pre-built shared components.  The :class:`~repro.serve.QueryService`
        builds one index and one cache and hands them to a per-worker
        accelerator, so all workers share the warm state; share them only
        between accelerators over the *same* network and point set.
    """

    def __init__(
        self,
        aug: AugmentedView,
        *,
        landmarks: int = 8,
        cache_mb: float = 16.0,
        index: LandmarkIndex | None = None,
        cache: DistanceCache | None = None,
    ) -> None:
        self._aug = aug
        # Pin the view's watermark to the world the index is built on.
        aug.sync()
        if index is None and landmarks > 0:
            index = LandmarkIndex(aug.network, landmarks)
        if index is not None and len(index) == 0:
            index = None
        self._index = index
        if cache is None and cache_mb > 0:
            cache = DistanceCache(cache_mb)
        if cache is not None and not cache.enabled:
            cache = None
        self._cache = cache
        self._point_vectors: dict[int, tuple[float, ...]] = {}
        aug.add_invalidation_hook(self._on_invalidate)

    # ------------------------------------------------------------------
    # Invalidation (the single path: AugmentedView.invalidate).  A cache
    # hit reads nothing through the view, so every public method runs
    # the view's sync() first to catch a mutation nobody announced.
    # ------------------------------------------------------------------
    def _on_invalidate(self, point_ids, reweigh: bool) -> None:
        """The view's invalidation hook: drop what the change can stale.

        * ``reweigh`` — network distances changed globally: the landmark
          index (its node tables bind to edge weights), every point
          vector and the whole cache go.  The policy is *degrade, never
          silently rebuild*: searches keep working through the plain
          bit-identical primitives until an operator rebuilds the index
          (``repro index build``).  The index object is only
          unreferenced, not closed — other accelerators may share it;
          whoever opened it closes it.
        * ``point_ids is None`` — the point set moved, but which objects
          changed is unknown: every point vector and the whole cache go.
        * ids — the objects inserted or removed.  Objects add no
          weight, so no distance between two other objects changed:
          only those objects' vectors go, and the cache drops only what
          can involve them (:meth:`DistanceCache.invalidate_region`).
        """
        if reweigh:
            self._index = None
        if reweigh or point_ids is None:
            self._point_vectors.clear()
            if self._cache is not None:
                self._cache.clear()
            return
        for pid in point_ids:
            self._point_vectors.pop(pid, None)
        if self._cache is not None:
            self._cache.invalidate_region(point_ids)

    # ------------------------------------------------------------------
    # Landmark coordinates and bounds
    # ------------------------------------------------------------------
    @property
    def index(self) -> LandmarkIndex | None:
        return self._index

    @property
    def cache(self) -> DistanceCache | None:
        return self._cache

    def point_vector(self, point: NetworkPoint) -> tuple[float, ...]:
        """Memoized landmark coordinate vector of an object."""
        vec = self._point_vectors.get(point.point_id)
        if vec is None:
            vec = self._index.point_vector(point)
            self._point_vectors[point.point_id] = vec
        return vec

    def lower_bound(self, p: NetworkPoint, q: NetworkPoint) -> float:
        """Admissible lower bound on ``d(p, q)`` (0 without an index)."""
        self._aug.sync()
        if self._index is None or p.point_id == q.point_id:
            return 0.0
        return vector_lower_bound(self.point_vector(p), self.point_vector(q))

    def upper_bound(self, p: NetworkPoint, q: NetworkPoint) -> float:
        """Upper bound on ``d(p, q)`` (``inf`` without an index)."""
        self._aug.sync()
        if p.point_id == q.point_id:
            return 0.0
        if self._index is None:
            return math.inf
        return vector_upper_bound(self.point_vector(p), self.point_vector(q))

    # ------------------------------------------------------------------
    # Point-to-point distance
    # ------------------------------------------------------------------
    def point_distance(self, p: NetworkPoint, q: NetworkPoint) -> float:
        """Exact ``d(p, q)`` via cached, landmark-pruned Dijkstra.

        Bit-identical to :func:`repro.network.distance.network_distance`,
        including raising :class:`UnreachableError` for disconnected
        pairs (the cache remembers unreachability too).
        """
        self._aug.sync()
        if p.point_id == q.point_id:
            return 0.0
        key = None
        if self._cache is not None:
            # The key is directional on purpose: the search folds edge
            # weights left-to-right from the source, so d(p, q) and
            # d(q, p) can differ in the last ulp — serving the reversed
            # value would break bit-identity with the plain search.
            key = ("p2p", p.point_id, q.point_id)
            hit = self._cache.get(key, _NO_ENTRY)
            if hit is not _NO_ENTRY:
                if math.isinf(hit):
                    raise UnreachableError(
                        f"point {q.point_id} is not reachable from "
                        f"point {p.point_id}"
                    )
                return hit
        distance, settled = self._point_distance_search(p, q)
        if key is not None:
            self._cache.put(key, distance)
        if _OBS.enabled:
            _obs_add("perf.p2p.searches")
            _obs_add("perf.p2p.vertices_settled", settled)
        if math.isinf(distance):
            raise UnreachableError(
                f"point {q.point_id} is not reachable from point {p.point_id}"
            )
        return distance

    def _point_distance_search(
        self, p: NetworkPoint, q: NetworkPoint
    ) -> tuple[float, int]:
        """The corridor-pruned Dijkstra behind :meth:`point_distance`.

        The same targeted :func:`single_source` call as
        :func:`unaccelerated_point_distance` — same heap keys, same
        relaxation sums, hence the same returned float — with a ``prune``
        predicate that drops a push provably outside the shortest-path
        corridor (``d_so_far + lower_bound(nbr, q) > upper_bound(p, q)``,
        with slack).  Every dropped vertex would have settled after the
        target, so the target's settled value is untouched.
        """
        aug = self._aug
        index = self._index
        if index is None:
            return unaccelerated_point_distance(aug, p, q)
        qvec = self.point_vector(q)
        pvec = self.point_vector(p)
        if math.isinf(vector_lower_bound(pvec, qvec)):
            # Some landmark reaches exactly one of the two points: they
            # are in different components, no search needed.
            return math.inf, 0
        ub = vector_upper_bound(pvec, qvec)
        corridor = ub + _REL_SLACK * (ub + index.scale)
        points = aug.points

        def prune(nd: float, nbr) -> bool:
            kind, ident = nbr
            if kind == NODE:
                h = vector_lower_bound(index.node_vector(ident), qvec)
            else:
                h = vector_lower_bound(self.point_vector(points.get(ident)), qvec)
            # An infinite bound: provably in a different component than q.
            return math.isinf(h) or nd + h > corridor

        target = point_vertex(q.point_id)
        dist = single_source(
            aug, point_vertex(p.point_id), targets=(target,), prune=prune
        )
        return dist.get(target, math.inf), len(dist)

    # ------------------------------------------------------------------
    # Range query (candidate prefilter + early termination)
    # ------------------------------------------------------------------
    def range_query(
        self,
        query: NetworkPoint,
        eps: float,
        include_query: bool = True,
    ) -> list[tuple[NetworkPoint, float]]:
        """All objects within ``eps``; identical to
        :func:`repro.network.queries.range_query`."""
        self._aug.sync()
        if eps < 0:
            return []
        key = None
        if self._cache is not None:
            key = ("range", query.point_id, eps, include_query)
            hit = self._cache.get(key, _NO_ENTRY)
            if hit is not _NO_ENTRY:
                return list(hit)
        if self._index is None:
            results = range_query(self._aug, query, eps, include_query)
        else:
            results = self._range_accelerated(query, eps, include_query)
        if key is not None:
            self._cache.put(key, tuple(results))
        return results

    def _range_accelerated(
        self, query: NetworkPoint, eps: float, include_query: bool
    ) -> list[tuple[NetworkPoint, float]]:
        aug = self._aug
        qvec = self.point_vector(query)
        # Only candidates can lie within eps (the bound never
        # overestimates, and the slack absorbs its float rounding); once
        # all of them are settled the expansion is done, even though the
        # eps-ball's frontier is still unexplored.
        cutoff = eps + _REL_SLACK * (eps + self._index.scale)
        candidates = {
            p.point_id
            for p in aug.points
            if vector_lower_bound(qvec, self.point_vector(p)) <= cutoff
        }
        n_candidates = len(candidates)
        results, settled, _ = _search(
            aug, query, include_query, cutoff=eps, candidates=candidates
        )
        if _OBS.enabled:
            _obs_add("perf.range.queries")
            _obs_add("perf.range.vertices_settled", settled)
            _obs_add("perf.range.candidates", n_candidates)
        return results

    # ------------------------------------------------------------------
    # kNN query (upper-bound push pruning)
    # ------------------------------------------------------------------
    def knn_query(
        self,
        query: NetworkPoint,
        k: int,
        include_query: bool = False,
    ) -> list[tuple[NetworkPoint, float]]:
        """The ``k`` nearest objects; identical to
        :func:`repro.network.queries.knn_query`."""
        self._aug.sync()
        if k <= 0:
            return []
        key = None
        if self._cache is not None:
            key = ("knn", query.point_id, k, include_query)
            hit = self._cache.get(key, _NO_ENTRY)
            if hit is not _NO_ENTRY:
                return list(hit)
        if self._index is None:
            results = knn_query(self._aug, query, k, include_query)
        else:
            results = self._knn_accelerated(query, k, include_query)
        if key is not None:
            self._cache.put(key, tuple(results))
        return results

    def _knn_accelerated(
        self, query: NetworkPoint, k: int, include_query: bool
    ) -> list[tuple[NetworkPoint, float]]:
        aug = self._aug
        qvec = self.point_vector(query)
        # The k-th smallest upper bound caps the k-th neighbour's true
        # distance: pushes beyond it (plus float slack) can never
        # contribute a result, nor sit on a shortest path to one.
        ubs = [
            vector_upper_bound(qvec, self.point_vector(p))
            for p in aug.points
            if include_query or p.point_id != query.point_id
        ]
        cutoffs = heapq.nsmallest(k, ubs)
        cutoff = cutoffs[-1] if len(cutoffs) == k else math.inf
        if not math.isinf(cutoff):
            cutoff += _REL_SLACK * (cutoff + self._index.scale)
        results, settled, pruned = _search(
            aug, query, include_query, cutoff=cutoff, k=k
        )
        if _OBS.enabled:
            _obs_add("perf.knn.queries")
            _obs_add("perf.knn.vertices_settled", settled)
            _obs_add("perf.knn.pruned_pushes", pruned)
        return results

    # ------------------------------------------------------------------
    # k-medoids swap screening
    # ------------------------------------------------------------------
    def screen_swap(
        self,
        points,
        assignment: dict[int, int],
        distance: dict[int, float],
        old_id: int,
        new_medoid: NetworkPoint,
        cand_medoids: list[NetworkPoint],
        current_R: float,
    ) -> bool:
        """True when bounds prove swapping ``old_id -> new_medoid`` cannot
        lower ``R`` — the swap loop may skip its evaluation outright.

        The lower-bounded candidate evaluation: a point keeping its medoid
        contributes ``min(d_p, lb(p, new))`` (its distance can only change
        by moving to the new medoid); a point orphaned by the removal
        contributes ``min over candidate medoids of lb(p, m)``.  Both
        never exceed the point's true candidate distance, so when the sum
        reaches ``current_R`` the true candidate ``R`` does too, and the
        swap would be rejected ("cand_R < R" fails).  Returns early the
        moment the partial sum crosses the threshold (``current_R`` plus
        a float slack that absorbs the bounds' accumulated rounding, so
        the screen never rejects a swap the exact evaluation would have
        accepted by an ulp).
        """
        self._aug.sync()
        if self._index is None:
            return False
        new_vec = self.point_vector(new_medoid)
        cand_vecs = [self.point_vector(m) for m in cand_medoids]
        points = list(points)
        threshold = current_R + _REL_SLACK * (
            current_R + len(points) * self._index.scale
        )
        acc = 0.0
        for p in points:
            pid = p.point_id
            if assignment.get(pid) == old_id:
                pv = self.point_vector(p)
                nearest = math.inf
                for mv in cand_vecs:
                    lb = vector_lower_bound(pv, mv)
                    if lb < nearest:
                        nearest = lb
                        if nearest == 0.0:
                            break
                acc += nearest
            else:
                d_p = distance[pid]
                lb = vector_lower_bound(self.point_vector(p), new_vec)
                acc += d_p if d_p <= lb else lb
            if acc >= threshold:
                return True
        return acc >= threshold

    # ------------------------------------------------------------------
    # eps-Link isolation prefilter
    # ------------------------------------------------------------------
    def isolated_points(self, eps: float) -> frozenset[int]:
        """Objects provably farther than ``eps`` from every other object.

        For each landmark, sort the objects by their coordinate; the gap
        to the nearest coordinate lower-bounds the distance to the
        nearest *reachable* object (unreachable ones are infinitely far
        anyway), so ``max over landmarks of the gap > eps`` proves
        isolation.  An ε-Link expansion from such a seed would return
        just the seed; the sweep can skip it.
        """
        self._aug.sync()
        if self._index is None:
            return frozenset()
        # The float slack makes "farther than eps" strict: a gap within
        # rounding distance of eps does not count as isolation.
        threshold = eps + _REL_SLACK * (eps + self._index.scale)
        vecs = {p.point_id: self.point_vector(p) for p in self._aug.points}
        best_gap = dict.fromkeys(vecs, 0.0)
        for axis in range(len(self._index)):
            finite = sorted(
                (vec[axis], pid)
                for pid, vec in vecs.items()
                if not math.isinf(vec[axis])
            )
            for i, (value, pid) in enumerate(finite):
                gap = math.inf
                if i > 0:
                    gap = value - finite[i - 1][0]
                if i + 1 < len(finite):
                    gap = min(gap, finite[i + 1][0] - value)
                if gap > best_gap[pid]:
                    best_gap[pid] = gap
        isolated = frozenset(
            pid for pid, gap in best_gap.items() if gap > threshold
        )
        if _OBS.enabled and isolated:
            _obs_add("perf.epslink.isolated", len(isolated))
        return isolated
