"""Distance acceleration: landmark (ALT) bounds + shared memoization.

Everything in this package is an *exactness-preserving* accelerator: the
bounded range and kNN searches and the cache return bit-identical results
to the plain primitives in :mod:`repro.network` (a property-tested
guarantee — see ``tests/test_perf.py``), they just get there settling
fewer vertices and recomputing less.  See
``docs/performance.md`` for tuning guidance.
"""

from repro.perf.accel import DistanceAccelerator
from repro.perf.cache import ENTRY_BYTES, DistanceCache
from repro.perf.landmarks import (
    LandmarkIndex,
    vector_lower_bound,
    vector_upper_bound,
)
from repro.perf.persist import (
    build_index_file,
    load_index,
    load_index_or_degrade,
    network_fingerprint,
    save_index,
    verify_index,
)

__all__ = [
    "DistanceAccelerator",
    "DistanceCache",
    "ENTRY_BYTES",
    "LandmarkIndex",
    "build_index_file",
    "load_index",
    "load_index_or_degrade",
    "network_fingerprint",
    "save_index",
    "vector_lower_bound",
    "vector_upper_bound",
]
