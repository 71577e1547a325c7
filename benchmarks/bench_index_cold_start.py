"""Cold-start cost of landmark acceleration: persisted index vs in-process
build.

A serve worker that builds its :class:`~repro.perf.LandmarkIndex` from
scratch pays L Dijkstra sweeps over the whole network before it can answer
its first request.  One that mmaps a persisted ``RLIX`` artifact pays a
header + CRC pass over the file.  This benchmark measures time-to-first-
response both ways on the same workload and asserts the answers are
bit-identical — the artifact is a cache of the exact arithmetic, not an
approximation of it.

The ``perf.index.build`` span and ``perf.landmarks.built`` counter land in
the metrics sidecar (see ``conftest.py``).
"""

from __future__ import annotations

import random
import time

import pytest

pytest.importorskip("numpy")

from repro.network.augmented import AugmentedView
from repro.perf import (
    DistanceAccelerator,
    LandmarkIndex,
    build_index_file,
    load_index,
)

from benchmarks._workloads import get_workload

K = 10
LANDMARKS = 8


@pytest.mark.benchmark(group="perf-index")
def bench_cold_start_persisted_vs_built(benchmark, tmp_path):
    """Time-to-first-response: mmap a persisted index vs build one.

    The first response is the probe object's landmark vector — the first
    thing every accelerated range or kNN query computes, so the
    measurement isolates startup cost (L Dijkstra sweeps vs one
    CRC-verified load) instead of burying it under the all-objects
    prefilter scan that both variants pay identically.
    """
    network, points, spec, eps = get_workload("SF", k=K)
    rng = random.Random(3)
    probe = rng.choice(list(points))
    artifact = str(tmp_path / "sf.rlix")
    build_summary = build_index_file(
        artifact, network, num_landmarks=LANDMARKS
    )

    def cold_built():
        t0 = time.perf_counter()
        accel = DistanceAccelerator(
            AugmentedView(network, points),
            index=LandmarkIndex(network, LANDMARKS),
        )
        first = accel.point_vector(probe)
        return time.perf_counter() - t0, first

    def cold_mmap():
        t0 = time.perf_counter()
        index = load_index(artifact, network)
        accel = DistanceAccelerator(AugmentedView(network, points), index=index)
        first = accel.point_vector(probe)
        return time.perf_counter() - t0, first, index

    built_s, built_first = cold_built()

    def run():
        mmap_s, mmap_first, index = cold_mmap()
        index.close()
        assert mmap_first == built_first  # bit-identical first response
        return mmap_s

    mmap_s = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "landmarks": LANDMARKS,
            "artifact_bytes": build_summary["bytes"],
            "cold_start_built_s": round(built_s, 4),
            "cold_start_mmap_s": round(mmap_s, 4),
            "speedup": round(built_s / mmap_s, 1) if mmap_s else None,
        }
    )
    # The acceptance bar: loading the artifact reaches first response in
    # at most half the in-process build time.
    assert mmap_s <= 0.5 * built_s
