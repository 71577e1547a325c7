"""A thread-safe, bounded, memoizing distance cache.

One :class:`DistanceCache` can be shared by every consumer that memoizes
something derived from a point set — chiefly the
:class:`~repro.serve.QueryService` workers, whose accelerators memoize
whole range and kNN results for warm repeated-query throughput.  Keys are
arbitrary hashable tuples whose first element names the entry kind
(``("range", 4, 0.5, True)``, ``("knn", 4, 10, False)``), so
heterogeneous entries share one memory budget.

Capacity is given in **megabytes** and converted to an entry count using a
documented per-entry estimate (:data:`ENTRY_BYTES` — key tuple + float +
OrderedDict slot; query-result entries are larger, so treat the figure as
an order-of-magnitude budget, not an accounting guarantee).  Eviction is
LRU.  A cache built with ``max_mb = 0`` is *disabled*: :attr:`enabled` is
False and callers are expected to skip it entirely, keeping the
no-acceleration code path free of even the lock acquisition.

Invalidation is **not** automatic here — the cache has no idea which point
set its entries were derived from.  The
:class:`~repro.perf.DistanceAccelerator` registers a hook with
:meth:`repro.network.AugmentedView.add_invalidation_hook` on construction
that calls :meth:`clear` on any change, making ``AugmentedView.invalidate``
the single notification point after a mutation.

Counters (local, always on, plus ``perf.cache.*`` obs counters when
:mod:`repro.obs` is enabled): ``hits``, ``misses``, ``evictions``,
``invalidations``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.core import STATE as _OBS, add as _obs_add

__all__ = ["DistanceCache", "ENTRY_BYTES"]

#: Rough per-entry memory estimate used to convert megabytes to an entry
#: count: a small key tuple (~3 ints/floats), a float value, and the
#: OrderedDict link overhead, measured at ~200 bytes on CPython 3.12.
ENTRY_BYTES = 200

_MISS = object()


class DistanceCache:
    """Bounded LRU memo for distances and query results.

    Parameters
    ----------
    max_mb:
        Memory budget in megabytes; converted to ``capacity`` entries via
        :data:`ENTRY_BYTES`.  ``0`` disables the cache (``enabled`` False,
        every ``get`` a miss, ``put`` a no-op).
    entry_bytes:
        Override the per-entry estimate (tests use small values to force
        evictions deterministically).
    """

    def __init__(self, max_mb: float, entry_bytes: int = ENTRY_BYTES) -> None:
        if max_mb < 0:
            raise ValueError(f"max_mb must be >= 0, got {max_mb!r}")
        if entry_bytes <= 0:
            raise ValueError(f"entry_bytes must be > 0, got {entry_bytes!r}")
        self.max_mb = float(max_mb)
        self.capacity = int(max_mb * 1024 * 1024 // entry_bytes)
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything at all."""
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key, default=None):
        """The cached value for ``key`` (refreshing its recency), else
        ``default``."""
        with self._lock:
            value = self._data.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
                if _OBS.enabled:
                    _obs_add("perf.cache.misses")
                return default
            self._data.move_to_end(key)
            self.hits += 1
            if _OBS.enabled:
                _obs_add("perf.cache.hits")
            return value

    def put(self, key, value) -> None:
        """Insert/refresh ``key``, evicting the least recently used entry
        when over capacity.  A no-op on a disabled cache."""
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1
                if _OBS.enabled:
                    _obs_add("perf.cache.evictions")

    def clear(self) -> None:
        """Drop every entry (the invalidation hook target)."""
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            self.invalidations += 1
            if _OBS.enabled:
                _obs_add("perf.cache.invalidations")
                if dropped:
                    _obs_add("perf.cache.invalidated_entries", dropped)

    def hit_ratio(self) -> float | None:
        """Hits / (hits + misses) over the cache's lifetime, or ``None``
        before the first lookup — the ``perf.cache.hit_ratio`` gauge."""
        with self._lock:
            lookups = self.hits + self.misses
            if lookups == 0:
                return None
            return self.hits / lookups

    def stats(self) -> dict[str, int]:
        """A snapshot of the local counters (always maintained, even with
        :mod:`repro.obs` disabled)."""
        with self._lock:
            return {
                "entries": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    def __repr__(self) -> str:
        return (
            f"DistanceCache(max_mb={self.max_mb}, capacity={self.capacity}, "
            f"entries={len(self)})"
        )
