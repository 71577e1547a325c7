"""Distance acceleration: landmark (ALT) bounds + shared memoization.

Everything in this package is an *exactness-preserving* accelerator: the
bounded kNN search and the cache return bit-identical results to the
plain primitives in :mod:`repro.network` (a property-tested guarantee —
see ``tests/test_perf.py``), they just get there settling fewer vertices
and recomputing less.  See
``docs/performance.md`` for tuning guidance.

The exports are lazy: the landmark tables need numpy, and a cache-only
service must not pay for that import.
"""

__all__ = [
    "DistanceAccelerator",
    "DistanceCache",
    "ENTRY_BYTES",
    "LandmarkIndex",
    "vector_upper_bound",
]

_LAZY = {
    "DistanceAccelerator": "repro.perf.accel",
    "DistanceCache": "repro.perf.cache",
    "ENTRY_BYTES": "repro.perf.cache",
    "LandmarkIndex": "repro.perf.landmarks",
    "vector_upper_bound": "repro.perf.landmarks",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value
