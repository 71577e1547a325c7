"""Distance-acceleration layer: landmark bounds + shared distance cache.

Warm repeated range and kNN queries through
:class:`repro.serve.QueryService` with the shared distance cache on vs
off; the cached run also builds the landmark index, so its kNN misses
take the landmark prefilter.  Every warm answer must equal the cold one
bit for bit.  The ``perf.*`` obs counters land in the metrics sidecar
(see ``conftest.py``).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.serve import QueryService

from benchmarks._workloads import get_workload

K = 10
LANDMARKS = 8


@pytest.mark.benchmark(group="perf-accel")
@pytest.mark.parametrize("cache_mb", [0.0, 16.0])
def bench_serve_warm_repeats(benchmark, cache_mb):
    """Repeated identical queries through the service, cache on vs off."""
    network, points, spec, eps = get_workload("OL", k=K)
    rng = random.Random(13)
    ids = [p.point_id for p in rng.sample(list(points), 10)]
    requests = [
        {"op": "range", "point_id": pid, "eps": eps} for pid in ids
    ] + [{"op": "knn", "point_id": pid, "k": 5} for pid in ids]
    service = QueryService(
        network, points, workers=2,
        landmarks=LANDMARKS if cache_mb else 0,
        distance_cache_mb=cache_mb,
    )
    try:
        cold = [service.call(dict(r)) for r in requests]  # warm the cache

        def run():
            t0 = time.perf_counter()
            warm = [service.call(dict(r)) for r in requests]
            assert warm == cold
            return time.perf_counter() - t0

        warm_s = benchmark.pedantic(run, rounds=1, iterations=1)
        info = {"cache_mb": cache_mb, "warm_repeat_s": round(warm_s, 4)}
        if service._distance_cache is not None:
            info["cache"] = service._distance_cache.stats()
        benchmark.extra_info.update(info)
    finally:
        service.close()
