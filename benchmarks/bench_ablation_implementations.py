"""Ablation — implementation variants and the extension algorithms.

Three comparisons beyond the paper's own tables:

* the two ε-Link traversals — the per-object augmented-graph expansion
  (``EpsLink._grow``, which the live split check runs) vs the Figure 6
  group scan that ``EpsLink.run`` uses — produce identical clusters, and
  the group scan is the faster;
* OPTICS (the paper's cited remedy for ε selection) vs DBSCAN: one OPTICS
  ordering costs about one DBSCAN run but serves every ε ≤ max_eps;
* A* (Euclidean-bounded) vs Dijkstra point-to-point distance: the [16]-style
  bound settles a fraction of the vertices.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dbscan import NetworkDBSCAN
from repro.core.epslink import EpsLink, Expansion
from repro.core.optics import NetworkOPTICS
from repro.network.astar import point_distance_astar
from repro.network.augmented import AugmentedView, point_vertex
from repro.network.distance import network_distance

from benchmarks._workloads import get_workload

K = 10


def _augmented_clusters(network, points, eps) -> set[frozenset[int]]:
    """ε-Link by the per-object expansion: one ``EpsLink._grow`` run per
    not-yet-clustered seed."""
    algo = EpsLink(network, points, eps=eps)
    aug = AugmentedView(network, points)
    clusters, seen = set(), set()
    for seed in points:
        if seed.point_id not in seen:
            expansion = Expansion(seed.point_id)
            algo._grow(aug, expansion, None)
            seen |= expansion.members
            clusters.add(frozenset(expansion.members))
    return clusters


@pytest.mark.benchmark(group="ablation-implementations")
@pytest.mark.parametrize("variant", ["augmented", "edgewise"])
def bench_epslink_variants(benchmark, variant):
    network, points, spec, eps = get_workload("OL", k=K)

    def run():
        if variant == "augmented":
            return _augmented_clusters(network, points, eps)
        return EpsLink(network, points, eps=eps).run().as_partition()

    clusters = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update({"variant": variant, "clusters": len(clusters)})


def test_epslink_variants_identical():
    network, points, spec, eps = get_workload("OL", k=K)
    a = EpsLink(network, points, eps=eps).run().as_partition()
    assert a == _augmented_clusters(network, points, eps)


@pytest.mark.benchmark(group="ablation-implementations")
def bench_optics_ordering(benchmark):
    network, points, spec, eps = get_workload("OL", k=K)

    def run():
        return NetworkOPTICS(network, points, max_eps=eps, min_pts=2).compute()

    ordering = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["ordered_points"] = len(ordering)


@pytest.mark.benchmark(group="ablation-implementations")
def bench_dbscan_single_eps(benchmark):
    network, points, spec, eps = get_workload("OL", k=K)

    def run():
        return NetworkDBSCAN(network, points, eps=eps, min_pts=2).run()

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.benchmark(group="ablation-implementations")
def bench_astar_vs_dijkstra_distances(benchmark):
    """Average settled-vertex counts for 40 random point pairs."""
    network, points, spec, eps = get_workload("SF", k=K)
    aug = AugmentedView(network, points)
    rng = random.Random(7)
    pts = list(points)
    pairs = [tuple(rng.sample(pts, 2)) for _ in range(40)]

    def run():
        astar_settled = 0
        for p, q in pairs:
            _, settled = point_distance_astar(aug, p, q)
            astar_settled += settled
        return astar_settled / len(pairs)

    astar_avg = benchmark.pedantic(run, rounds=1, iterations=1)
    # Dijkstra reference: count settled vertices via an instrumented run.
    import heapq

    dijkstra_settled = 0
    for p, q in pairs:
        target = point_vertex(q.point_id)
        dist: dict = {}
        heap = [(0.0, point_vertex(p.point_id))]
        while heap:
            d, v = heapq.heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            if v == target:
                break
            for nbr, seg in aug.neighbors(v):
                if nbr not in dist:
                    heapq.heappush(heap, (d + seg, nbr))
        dijkstra_settled += len(dist)
    dijkstra_avg = dijkstra_settled / len(pairs)
    benchmark.extra_info.update(
        {
            "astar_avg_settled": round(astar_avg, 1),
            "dijkstra_avg_settled": round(dijkstra_avg, 1),
            "settled_ratio": round(dijkstra_avg / astar_avg, 2),
        }
    )
    # Distances must agree; the bound must help on Euclidean-weighted nets.
    for p, q in pairs[:5]:
        d_astar, _ = point_distance_astar(aug, p, q)
        assert abs(d_astar - network_distance(aug, p, q)) < 1e-9
    assert astar_avg < dijkstra_avg
