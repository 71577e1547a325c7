"""Exactness-preserving distance acceleration over one augmented view.

:class:`DistanceAccelerator` bundles the two mechanisms of
:mod:`repro.perf` — landmark (ALT) bounds and the shared
:class:`~repro.perf.DistanceCache` — behind the same query signatures as
the unaccelerated primitives, with one hard guarantee: **every accelerated
search returns bit-identical results to its plain counterpart** (a
property-tested invariant).  Acceleration only ever skips work a plain
search would provably have wasted:

* :meth:`range_query` — the cache in front of the plain range search of
  :mod:`repro.network.queries`, index or not.  That search settles only
  the nodes within ε, a few microseconds of work; a landmark prefilter
  would scan every object to prune it, which costs more than it saves.
* :meth:`knn_query` — computes landmark *upper* bounds to every object;
  the k-th smallest upper bound caps the true k-th-neighbour distance, so
  walks and node pushes beyond it are dropped without changing the
  distance of any object that matters.

The kNN miss runs the plain group-scan loop of
:mod:`repro.network.queries` (``_group_scan``) and differs from the plain
search only by the prune bound it passes in: heap discipline, the
``queries.settle`` checkpoint (fault site, deadline, budget charge) and
result ordering are shared.

**Floating-point discipline.**  Bit-identity is structural, not hopeful.
The accelerated kNN search keeps the plain search's heap ordering and
summation *exactly* — bounds only ever remove work, they never reorder
it, so every float the caller sees is produced by the same sequence of
operations as in the plain code.  (Textbook ALT runs A*
ordered by ``g + h``; that is exact in real arithmetic but the heuristic's
last-ulp rounding can flip which of two near-tied shortest paths is
reported, which is why we don't.)  And because the bounds themselves are
float-valued, every comparison of a bound against a distance threshold
carries a relative slack of :data:`_REL_SLACK` scaled by the index's
characteristic magnitude — about four orders of magnitude wider than the
worst accumulated rounding error, and about six narrower than any distance
the pruning actually needs to discriminate.  Slack only weakens pruning;
it never changes a result.

Staleness is handled through the **single invalidation path** of
:class:`~repro.network.AugmentedView`: the accelerator registers
:meth:`DistanceAccelerator._on_invalidate` at construction, and the view
calls it with ``(point_ids, reweigh)`` — what changed.  An insert or a
remove names its object: only that object's point vector goes, because
objects carry no weight and the vectors of the others are unchanged; the
cache is cleared, since every entry is a range or kNN result that can
gain or lose the object.  A mutation nobody announced
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
import weakref
from typing import TYPE_CHECKING

from repro.exceptions import IndexStaleError
from repro.network.augmented import AugmentedView
from repro.network.points import NetworkPoint
from repro.network.queries import _group_scan, _knn, _range
from repro.obs.core import STATE as _OBS, add as _obs_add
from repro.perf.cache import DistanceCache

if TYPE_CHECKING:  # numpy: imported only where an index is used
    from repro.perf.landmarks import LandmarkIndex

__all__ = ["DistanceAccelerator"]

_NO_ENTRY = object()

#: Relative safety slack applied whenever a float-valued landmark bound is
#: compared against a float-valued distance threshold.  Path sums and
#: bounds agree to ~1e-13 relative; meaningful distance gaps are >> 1e-6
#: relative.  1e-9 sits squarely between: pruning that matters survives,
#: pruning that would gamble on the last ulp is declined.
_REL_SLACK = 1e-9


class DistanceAccelerator:
    """Landmark bounds + shared memoization over one augmented view.

    Parameters
    ----------
    aug:
        The point-augmented view to accelerate.  The accelerator registers
        an invalidation hook on it; whatever the view's ``invalidate``
        reports as changed (or its ``sync`` watermark shows moved) is
        dropped from the memos.
    index:
        The landmark index over ``aug``'s network; ``None`` (or an empty
        index) disables the bounds, and kNN falls back to the plain
        primitive, still through the cache when one is present (range
        queries always run the plain search).
    cache:
        The memo for query results; ``None`` (or a disabled cache)
        disables memoization.

    The :class:`~repro.serve.QueryService` builds one index and one cache
    and hands them to a per-worker accelerator, so all workers share the
    warm state; share them only between accelerators over the *same*
    network and point set.
    """

    def __init__(
        self,
        aug: AugmentedView,
        *,
        index: LandmarkIndex | None = None,
        cache: DistanceCache | None = None,
    ) -> None:
        self._aug = aug
        # Pin the view's watermark to the world the index is built on.
        aug.sync()
        if index is not None and len(index) == 0:
            index = None
        self._index = index
        if cache is not None and not cache.enabled:
            cache = None
        self._cache = cache
        self._point_vectors: dict[int, tuple[float, ...]] = {}
        # The view holds the hook weakly, so that view and accelerator
        # form no reference cycle: both go with their last reference.
        on_invalidate = weakref.WeakMethod(self._on_invalidate)

        def hook(point_ids, reweigh: bool) -> None:
            method = on_invalidate()
            if method is not None:
                method(point_ids, reweigh)

        aug.add_invalidation_hook(hook)

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
          bit-identical primitives until a fresh index is built over
          the reweighed network.  The index object is only unreferenced
          — other accelerators may share it; whoever built it retires
          it.
        * ``point_ids is None`` — the point set moved, but which objects
          changed is unknown: every point vector and the whole cache go.
        * ids — the objects inserted or removed.  Objects add no
          weight, so no other object's vector changed: only those
          objects' vectors go.  The whole cache still goes, because any
          cached range or kNN result can gain or lose one of them.
        """
        if reweigh:
            self._index = None
        if reweigh or point_ids is None:
            self._point_vectors.clear()
        else:
            for pid in point_ids:
                self._point_vectors.pop(pid, None)
        if self._cache is not None:
            self._cache.clear()

    # ------------------------------------------------------------------
    # Landmark coordinates
    # ------------------------------------------------------------------
    @property
    def index(self) -> LandmarkIndex | None:
        return self._index

    @property
    def cache(self) -> DistanceCache | None:
        return self._cache

    def point_vector(self, point: NetworkPoint) -> tuple[float, ...]:
        """Memoized landmark coordinate vector of an object.

        Runs the view's sync first, like every public method, so it never
        answers from a world that has moved.  Raises
        :class:`~repro.exceptions.IndexStaleError` when there is no index
        to answer from: none was given, or a reweigh dropped it.
        """
        self._aug.sync()
        if self._index is None:
            raise IndexStaleError(
                "no landmark index: none was given, or a reweigh dropped it"
            )
        return self._vector(point)

    def _vector(self, point: NetworkPoint) -> tuple[float, ...]:
        """The memo lookup behind :meth:`point_vector`, with no sync: the
        kNN prefilter scan calls it once per object, after its query's one
        sync, with the index present."""
        vec = self._point_vectors.get(point.point_id)
        if vec is None:
            vec = self._index.point_vector(point)
            self._point_vectors[point.point_id] = vec
        return vec

    # ------------------------------------------------------------------
    # Range query (the cache in front of the plain search)
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
        results = _range(self._aug, query, eps, include_query)
        if key is not None:
            self._cache.put(key, tuple(results))
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
            results = _knn(self._aug, query, k, include_query)
        else:
            results = self._knn_accelerated(query, k, include_query)
        if key is not None:
            self._cache.put(key, tuple(results))
        return results

    def _knn_accelerated(
        self, query: NetworkPoint, k: int, include_query: bool
    ) -> list[tuple[NetworkPoint, float]]:
        from repro.perf.landmarks import vector_upper_bound

        aug = self._aug
        qvec = self._vector(query)
        # The k-th smallest upper bound caps the k-th neighbour's true
        # distance: walks and pushes beyond it (plus float slack) can
        # never contribute a result, nor sit on a shortest path to one.
        ubs = [
            vector_upper_bound(qvec, self._vector(p))
            for p in aug.points
            if include_query or p.point_id != query.point_id
        ]
        cutoffs = heapq.nsmallest(k, ubs)
        cutoff = cutoffs[-1] if len(cutoffs) == k else math.inf
        if not math.isinf(cutoff):
            cutoff += _REL_SLACK * (cutoff + self._index.scale)
        results, settled, pruned = _group_scan(
            aug, query, include_query, cutoff=cutoff, k=k
        )
        if _OBS.enabled:
            _obs_add("perf.knn.queries")
            _obs_add("perf.knn.vertices_settled", settled)
            _obs_add("perf.knn.pruned_pushes", pruned)
        return results
