"""Seeded inputs of the end-to-end benchmark.

One seed picks the dataset and every request stream.  The dataset is an
SF analogue at 1/48 scale (3,600 nodes, 5,310 edges) carrying 3 points
per node in 10 planted clusters with F = 5 and 1% outliers (10,800
points).  The generator constants are copied from
``benchmarks/_workloads.py`` on purpose: an edit to that file must not
move this benchmark's inputs.

A stream is an endless seeded sequence of wire requests (dicts), each
with an ``id``; its first ``WARMUP[workload]`` requests are the untimed
warm-up.  A measured phase takes requests until its time is up, so a
faster program measures more requests of the same sequence.  Requests
are made as they are taken, which keeps them out of the peak RSS the
benchmark reports.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass

from repro.datagen import (
    ClusterSpec,
    generate_clustered_points,
    load_network,
    suggest_eps,
)
from repro.datagen.clusters import well_separated_seed_edges
from repro.io import save_workload

NETWORK = "SF"
SCALE = 1 / 48
POINTS_PER_NODE = 3.0
CLUSTERS = 10
MAGNIFICATION = 5.0
OUTLIER_FRACTION = 0.01
#: share of the total edge length the planted clusters jointly span
CLUSTER_SPREAD = 0.2

KNN_K = 10
#: hotspot traffic: this share of anchors is Zipf(s=1) over the points of
#: HOT_CLUSTERS planted clusters; the rest is uniform over all points
HOT_SHARE = 0.9
HOT_CLUSTERS = 2
#: serve-live traffic: this share of requests is a ``mutate``
MUTATE_SHARE = 0.05
INSERT_SHARE = 0.4
REMOVE_SHARE = 0.2
INSERT_EDGES = 1000
REWEIGH_EDGES = 1000
RESERVED_POINTS = 1000

SERVE_WORKLOADS = ("serve-scatter", "serve-hotspot", "serve-live")
WORKLOADS = SERVE_WORKLOADS + ("cluster-batch",)

#: untimed warm-up requests at the head of each stream
WARMUP = {"serve-scatter": 2000, "serve-hotspot": 2000, "serve-live": 1000}


@dataclass
class Dataset:
    """The generated workload: where it was written and what it holds."""

    seed: int
    path: str
    sha256: str
    eps: float
    num_nodes: int
    num_edges: int
    #: (u, v, w) with u < v, sorted
    edges: list
    #: point id -> planted label (``NOISE`` for outliers), ascending ids
    labels: dict


def write_dataset(path: str, seed: int) -> Dataset:
    """Generate the seeded workload and write it with ``save_workload``."""
    network = load_network(NETWORK, scale=SCALE, seed=seed)
    n_points = int(POINTS_PER_NODE * network.num_nodes)
    avg_gap = CLUSTER_SPREAD * network.total_weight() / max(1, n_points)
    # The generator's mean gap is s_cur averaged over its ramp: 3 * s_init.
    spec = ClusterSpec(
        k=CLUSTERS,
        s_init=max(avg_gap / 3.0, 1e-9),
        magnification=MAGNIFICATION,
        outlier_fraction=OUTLIER_FRACTION,
    )
    seeds = well_separated_seed_edges(network, CLUSTERS, seed=seed + 2)
    points = generate_clustered_points(
        network, n_points, spec, seed=seed + 1, seed_edges=seeds
    )
    save_workload(path, network, points)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return Dataset(
        seed=seed,
        path=path,
        sha256=digest,
        eps=suggest_eps(spec),
        num_nodes=network.num_nodes,
        num_edges=network.num_edges,
        edges=sorted((min(u, v), max(u, v), w) for u, v, w in network.edges()),
        labels={p.point_id: p.label for p in sorted(points, key=_pid)},
    )


def _pid(point) -> int:
    return point.point_id


def _read(rng: random.Random, rid: str, anchor: int, eps: float) -> dict:
    if rng.random() < 0.5:
        return {"id": rid, "op": "range", "point_id": anchor, "eps": eps}
    return {"id": rid, "op": "knn", "point_id": anchor, "k": KNN_K}


def scatter_stream(ds: Dataset) -> Iterator[dict]:
    """Uniform anchors over all points, 50/50 range(ε) / kNN(k=10)."""
    rng = random.Random(f"serve-scatter:{ds.seed}")
    ids = list(ds.labels)
    for i in itertools.count():
        yield _read(rng, f"s{i}", rng.choice(ids), ds.eps)


def hot_points(ds: Dataset) -> list[int]:
    """The hotspot's Zipf ranking: the points of HOT_CLUSTERS seeded
    planted clusters, in a seeded order (rank 1 first)."""
    rng = random.Random(f"serve-hotspot/clusters:{ds.seed}")
    hot = set(rng.sample(range(CLUSTERS), HOT_CLUSTERS))
    ranked = [pid for pid, label in ds.labels.items() if label in hot]
    rng.shuffle(ranked)
    return ranked


def hotspot_stream(ds: Dataset) -> Iterator[dict]:
    """90% Zipf(s=1) anchors over two planted clusters, 10% uniform."""
    rng = random.Random(f"serve-hotspot:{ds.seed}")
    ids = list(ds.labels)
    ranked = hot_points(ds)
    cum, total = [], 0.0
    for rank in range(1, len(ranked) + 1):
        total += 1.0 / rank
        cum.append(total)
    for i in itertools.count():
        if rng.random() < HOT_SHARE:
            anchor = rng.choices(ranked, cum_weights=cum)[0]
        else:
            anchor = rng.choice(ids)
        yield _read(rng, f"h{i}", anchor, ds.eps)


def live_stream(ds: Dataset) -> Iterator[dict]:
    """95% reads as in scatter, 5% ``mutate``.

    Mutations are conflict-free in any order: inserts land on one seeded
    set of edges that is never reweighed (so their offsets stay within
    the edge), reweighs use a disjoint set, and each removal takes a
    reserved point that no read anchors on and no other removal names.
    When the reserve is used up a removal becomes an insert.
    """
    rng = random.Random(f"serve-live:{ds.seed}")
    picked = rng.sample(range(len(ds.edges)), INSERT_EDGES + REWEIGH_EDGES)
    insert_edges = [ds.edges[i] for i in picked[:INSERT_EDGES]]
    reweigh_edges = [ds.edges[i] for i in picked[INSERT_EDGES:]]
    reserved = rng.sample(list(ds.labels), RESERVED_POINTS)
    taken = set(reserved)
    anchors = [pid for pid in ds.labels if pid not in taken]
    for i in itertools.count():
        rid = f"l{i}"
        if rng.random() >= MUTATE_SHARE:
            yield _read(rng, rid, rng.choice(anchors), ds.eps)
            continue
        roll = rng.random()
        if INSERT_SHARE <= roll < INSERT_SHARE + REMOVE_SHARE and reserved:
            mutation = {"kind": "remove_point", "point_id": reserved.pop()}
        elif roll < INSERT_SHARE + REMOVE_SHARE:
            u, v, w = rng.choice(insert_edges)
            mutation = {
                "kind": "insert_point", "u": u, "v": v,
                "offset": w * rng.uniform(0.05, 0.95),
            }
        else:
            u, v, w = rng.choice(reweigh_edges)
            mutation = {
                "kind": "reweigh_edge", "u": u, "v": v,
                "weight": w * rng.uniform(0.8, 1.25),
            }
        yield {"id": rid, "op": "mutate", "mutation": mutation}


STREAMS = {
    "serve-scatter": scatter_stream,
    "serve-hotspot": hotspot_stream,
    "serve-live": live_stream,
}
