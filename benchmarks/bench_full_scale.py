"""Full-paper-scale runs: the OL and TG experiments at the paper's sizes.

Most benchmarks run scale-reduced workloads so the whole suite stays fast;
this module runs the paper's two smaller configurations at **full size** —
OL (6,105 nodes / 7,035 edges analogue, 20,000 points) and TG (18,263
nodes / 23,874 edges analogue, 50,000 points), k = 10, 1% outliers — to
demonstrate that the pure-Python implementation genuinely handles the
paper's data scale on a laptop, and that the density methods still recover
the planted clusters there.

(NA and SF at 175K nodes / 500K points also run, but in minutes, not
seconds; they are left to the user — `python -m repro generate --workload
SF --scale 1.0 ...`.)
"""

from __future__ import annotations

import pytest

from repro.core.epslink import EpsLink
from repro.core.singlelink import SingleLink
from repro.datagen import generate_clustered_points, load_network, suggest_eps
from repro.datagen.clusters import well_separated_seed_edges
from repro.eval.metrics import adjusted_rand_index

from benchmarks._workloads import cluster_spec_for, ground_truth

K = 10
FULL = {"OL": 20_000, "TG": 50_000}

_cache: dict = {}


def _full_workload(name: str):
    if name in _cache:
        return _cache[name]
    network = load_network(name, scale=1.0, seed=0)
    n_points = FULL[name]
    spec = cluster_spec_for(network, n_points, K)
    seeds = well_separated_seed_edges(network, K, seed=2)
    points = generate_clustered_points(
        network, n_points, spec, seed=1, seed_edges=seeds
    )
    _cache[name] = (network, points, suggest_eps(spec))
    return _cache[name]


@pytest.mark.benchmark(group="full-scale")
@pytest.mark.parametrize("name", ["OL", "TG"])
def bench_full_scale_epslink(benchmark, name):
    network, points, eps = _full_workload(name)

    def run():
        return EpsLink(network, points, eps=eps, min_sup=2).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    truth = ground_truth(points)
    ari = adjusted_rand_index(truth, dict(result.assignment), noise="drop")
    benchmark.extra_info.update(
        {
            "network": name,
            "nodes": network.num_nodes,
            "points": len(points),
            "clusters": result.num_clusters,
            "ari": round(ari, 4),
        }
    )
    assert ari > 0.95


@pytest.mark.benchmark(group="full-scale")
@pytest.mark.parametrize("name", ["OL", "TG"])
def bench_full_scale_single_link(benchmark, name):
    network, points, eps = _full_workload(name)

    def run():
        sl = SingleLink(network, points, delta=0.7 * eps)
        return sl, sl.build_dendrogram()

    sl, dendrogram = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "network": name,
            "points": len(points),
            "initial_clusters": sl.last_stats["initial_clusters"],
            "merges": len(dendrogram.merges),
        }
    )
    # The delta heuristic's order-of-magnitude reduction at real scale.
    assert sl.last_stats["initial_clusters"] < len(points) / 5
