"""Ablation — incremental ε-Link maintenance vs re-clustering from scratch.

Quantifies what :class:`repro.core.incremental.IncrementalEpsLink` buys on a
full OL workload, per update kind, against re-running ε-Link over
everything per update:

* **insert** — a single localized range query plus unions;
* **remove** — a range query for the removed object's ε-neighbours, then a
  split check: ε-Link expansions from those neighbours in lockstep, which
  stop when they have all met (no split) or all but one are exhausted
  (the exhausted ones split off);
* **reweigh** — a heavier edge runs one split check per component within
  ε of the edge; a lighter edge runs one range query per object within ε
  of it and unions what it finds (offsets on the edge rescale).

Each case records its per-update cost (``per_update_ms``) in
``extra_info``.  The live cases run many seeded updates; the from-scratch
cases a handful, since one full recluster costs far more than one update.
``test_removes_and_reweighs_match_recluster_on_full_workload`` checks the
maintained clustering against a from-scratch run on the same workload; CI
runs it with ``-k match_recluster``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.epslink import EpsLink
from repro.core.incremental import IncrementalEpsLink
from repro.network.points import PointSet

from benchmarks._workloads import get_workload

K = 10
UPDATES = 50
RERUNS = 5  # from-scratch updates: a full recluster is far costlier


def _live_clustering(network, points, eps) -> IncrementalEpsLink:
    live = IncrementalEpsLink(network, eps=eps, min_sup=2)
    for p in points:
        live.insert(p.u, p.v, p.offset, point_id=p.point_id, label=p.label)
    return live


def _own_workload():
    """The OL workload on copies the updates may mutate: the cached
    network and points are shared with the other benchmarks."""
    network, cached_points, spec, eps = get_workload("OL", k=K)
    network = network.copy()
    return network, PointSet.from_points(network, list(cached_points)), eps


def _reweighs(network, rng, n) -> list[tuple[int, int, float]]:
    """``n`` seeded edge reweighs, each ×U(0.8, 1.25)."""
    edges = sorted(network.edges())
    return [
        (u, v, w * rng.uniform(0.8, 1.25))
        for u, v, w in rng.sample(edges, n)
    ]


def _reweigh_in_place(network, points, u, v, weight) -> None:
    """What a reweigh does to the world: the edge changes cost and the
    objects on it keep their relative position."""
    old = network.edge_weight(u, v)
    on_edge = list(points.points_on_edge(u, v))
    for p in on_edge:
        points.remove(p.point_id)
    network.add_edge(u, v, weight)
    for p in on_edge:
        points.add(p.u, p.v, p.offset / old * weight,
                   point_id=p.point_id, label=p.label)


def _measure(benchmark, run, updates) -> None:
    """Run ``updates`` updates once; record the per-update cost."""
    t0 = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0
    benchmark.extra_info.update(
        {"updates": updates, "per_update_ms": round(elapsed / updates * 1e3, 4)}
    )


@pytest.mark.benchmark(group="ablation-incremental")
def bench_incremental_inserts(benchmark):
    network, points, spec, eps = get_workload("OL", k=K)
    live = _live_clustering(network, points, eps)
    rng = random.Random(7)
    edges = list(network.edges())
    next_id = max(points.point_ids()) + 1

    def run():
        nonlocal next_id
        for _ in range(UPDATES):
            u, v, w = edges[rng.randrange(len(edges))]
            live.insert(u, v, rng.uniform(0.0, w), point_id=next_id)
            next_id += 1
        return live.num_clusters

    _measure(benchmark, run, UPDATES)
    benchmark.extra_info["points_after"] = len(live.points)


@pytest.mark.benchmark(group="ablation-incremental")
def bench_recluster_per_insert(benchmark):
    """The naive alternative: one full ε-Link run per insertion."""
    network, points, eps = _own_workload()
    rng = random.Random(7)
    edges = list(network.edges())
    next_id = max(points.point_ids()) + 1

    def run():
        nonlocal next_id
        for _ in range(RERUNS):
            u, v, w = edges[rng.randrange(len(edges))]
            points.add(u, v, rng.uniform(0.0, w), point_id=next_id)
            next_id += 1
            EpsLink(network, points, eps=eps, min_sup=2).run()

    _measure(benchmark, run, RERUNS)


@pytest.mark.benchmark(group="ablation-incremental")
def bench_incremental_removes(benchmark):
    network, points, eps = _own_workload()
    live = _live_clustering(network, points, eps)
    victims = random.Random(7).sample(sorted(points.point_ids()), UPDATES)

    def run():
        for pid in victims:
            live.remove(pid)
        return live.num_clusters

    _measure(benchmark, run, UPDATES)
    benchmark.extra_info["points_after"] = len(live.points)


@pytest.mark.benchmark(group="ablation-incremental")
def bench_recluster_per_remove(benchmark):
    network, points, eps = _own_workload()
    victims = random.Random(7).sample(sorted(points.point_ids()), RERUNS)

    def run():
        for pid in victims:
            points.remove(pid)
            EpsLink(network, points, eps=eps, min_sup=2).run()

    _measure(benchmark, run, RERUNS)


@pytest.mark.benchmark(group="ablation-incremental")
def bench_incremental_reweighs(benchmark):
    network, points, eps = _own_workload()
    live = _live_clustering(network, points, eps)
    updates = _reweighs(network, random.Random(7), UPDATES)

    def run():
        for u, v, w in updates:
            live.reweigh(u, v, w)
        return live.num_clusters

    _measure(benchmark, run, UPDATES)


@pytest.mark.benchmark(group="ablation-incremental")
def bench_recluster_per_reweigh(benchmark):
    network, points, eps = _own_workload()
    updates = _reweighs(network, random.Random(7), RERUNS)

    def run():
        for u, v, w in updates:
            _reweigh_in_place(network, points, u, v, w)
            EpsLink(network, points, eps=eps, min_sup=2).run()

    _measure(benchmark, run, RERUNS)


def test_incremental_matches_recluster_on_full_workload():
    network, points, spec, eps = get_workload("OL", k=K)
    live = _live_clustering(network, points, eps)
    rng = random.Random(11)
    edges = list(network.edges())
    next_id = max(points.point_ids()) + 1
    for _ in range(10):
        u, v, w = edges[rng.randrange(len(edges))]
        live.insert(u, v, rng.uniform(0.0, w), point_id=next_id)
        next_id += 1
    scratch = EpsLink(network, live.points, eps=eps, min_sup=2).run()
    assert live.result().same_clustering(scratch)


def test_removes_and_reweighs_match_recluster_on_full_workload():
    network, points, eps = _own_workload()
    live = _live_clustering(network, points, eps)
    rng = random.Random(11)
    for pid in rng.sample(sorted(points.point_ids()), 10):
        live.remove(pid)
    for u, v, w in _reweighs(network, rng, 10):
        live.reweigh(u, v, w)
    scratch = EpsLink(network, live.points, eps=eps, min_sup=2).run()
    assert live.result().same_clustering(scratch)
