"""Single-Link's node traversal against the augmented-graph construction.

:meth:`SingleLink._bridges` builds the network Voronoi over *nodes*, seeded
from each edge's point group, and offers the bridges in one pass over the
edges.  ``tests/singlelink_reference.py`` keeps the construction it
replaced: a multi-source Dijkstra over the point-augmented graph with every
object a vertex.  Wherever no node is equidistant from two objects the two
give the same bridge list, float for float; at an exact tie the reference
follows its kernel's push order, so there the dendrograms must still agree
in merge distances and in every partition they cut.  The new dendrogram
must be bit-identical on the dict, CSR and store backends everywhere.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.baselines.classic import matrix_single_link
from repro.baselines.matrix import DistanceMatrix
from repro.core.singlelink import SingleLink
from repro.network.augmented import AugmentedView, node_vertex, point_vertex
from repro.network.csr import CSRNetwork
from repro.network.dijkstra import multi_source
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet
from repro.storage.netstore import NetworkStore
from tests.conftest import make_grid_network
from tests.singlelink_reference import augmented_bridges
from tests.strategies import clustering_instance, decimal_instance

BACKENDS = ("dict", "csr", "store")


def _runs(net, pts, directory, delta=0.0):
    """backend -> (bridges, dendrogram) of SingleLink on that backend."""
    out = {}
    for backend in BACKENDS:
        if backend == "dict":
            network, points = net, pts
        elif backend == "csr":
            network, points = CSRNetwork.freeze(net), pts
        else:
            store = NetworkStore.build(str(Path(directory) / "net.db"), net, pts)
            network, points = store, store.points()
        bridges, _ = SingleLink(network, points, delta=delta)._bridges()
        dendrogram = SingleLink(network, points, delta=delta).build_dendrogram()
        out[backend] = (bridges, dendrogram)
        if backend == "store":
            store.close()
    return out


def _runs_in_tmp(net, pts, delta=0.0):
    with tempfile.TemporaryDirectory() as directory:
        return _runs(net, pts, directory, delta)


def _same_dendrogram(a, b) -> bool:
    return a.to_dict() == b.to_dict()


def _tied_nodes(net, pts) -> set[int]:
    """Nodes that two objects reach at exactly the node's distance, found
    on the augmented graph: two predecessors with different owners whose
    ``dist + segment`` is the node's distance.  May over-report (a node
    tied only through a tied predecessor is reported too)."""
    aug = AugmentedView(net, pts)
    seeds = [(0.0, point_vertex(p.point_id), p.point_id) for p in pts]
    dist, owner = multi_source(aug, seeds)
    tied = set()
    for node in net.nodes():
        vertex = node_vertex(node)
        if vertex not in dist:
            continue
        owners = {
            owner[nbr]
            for nbr, seg in aug.neighbors(vertex)
            if nbr in dist and dist[nbr] + seg == dist[vertex]
        }
        if len(owners) > 1:
            tied.add(node)
    return tied


def _partitions_at_merges(dendrogram) -> list:
    return [
        sorted(sorted(c) for c in dendrogram.cut_distance(d).as_partition())
        for d in sorted(set(dendrogram.merge_distances()))
    ]


def _check(net, pts, delta=0.0, exact=None):
    """New bridges vs the reference, and the dendrogram across backends.

    ``exact`` says whether the bridge lists must be equal float for float;
    by default they must wherever no node is tied."""
    runs = _runs_in_tmp(net, pts, delta)
    bridges, dendrogram = runs["dict"]
    for backend in BACKENDS[1:]:
        assert runs[backend][0] == bridges, backend
        assert _same_dendrogram(runs[backend][1], dendrogram), backend
    reference = augmented_bridges(net, pts)
    if exact is None:
        exact = not _tied_nodes(net, pts)
    if exact:
        assert bridges == reference
    # The reference's dendrogram: Kruskal over its bridges.
    want = SingleLink(net, pts, delta=delta)._kruskal(reference, {})
    assert dendrogram.merge_distances() == want.merge_distances()
    assert _partitions_at_merges(dendrogram) == _partitions_at_merges(want)
    return bridges


# ----------------------------------------------------------------------
# Bit-identical bridges where ownership is unambiguous
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(clustering_instance(max_nodes=16, max_points=14))
def test_random_floats_match_reference(data):
    net, pts, _ = data
    _check(net, pts, exact=True)


@settings(max_examples=40, deadline=None)
@given(clustering_instance(max_nodes=12, max_points=10))
def test_random_floats_with_delta(data):
    net, pts, seed = data
    delta = random.Random(seed).uniform(0.5, 4.0)
    _check(net, pts, delta=delta, exact=True)


@settings(max_examples=150, deadline=None)
@given(decimal_instance(max_nodes=6, max_points=8))
def test_decimal_near_ties_match_reference(data):
    """Decimal weights and offsets: distances summed in different orders
    tie or differ within an ulp.  Bridges are float-equal to the
    reference unless a node is exactly tied."""
    net, pts, _ = data
    _check(net, pts)


def test_e2e_seed_dataset(tmp_path):
    """The end-to-end benchmark's seed-0 data (3,600 nodes, 10,800
    objects): every bridge float-equal to the reference on every backend,
    and the dendrogram at the benchmark's δ the same on all three."""
    from benchmarks.e2e.inputs import write_dataset
    from repro.io import load_workload_file

    ds = write_dataset(str(tmp_path / "w.json"), 0)
    net, pts = load_workload_file(ds.path)
    reference = augmented_bridges(net, pts)
    runs = _runs(net, pts, tmp_path, delta=0.7 * ds.eps)
    assert len(reference) == 11_392
    for backend in BACKENDS:
        assert runs[backend][0] == reference, backend
        assert _same_dendrogram(runs[backend][1], runs["dict"][1]), backend


# ----------------------------------------------------------------------
# Exact ties: the integer grid and coincident objects
# ----------------------------------------------------------------------
def _grid_points(net, rng, n, halves=True):
    edges = list(net.edges())
    pts = PointSet(net)
    for _ in range(n):
        u, v, w = edges[rng.randrange(len(edges))]
        pts.add(u, v, w * rng.choice((0.0, 0.5, 1.0) if halves else (0.0, 1.0)))
    return pts


@pytest.mark.parametrize("seed", range(12))
def test_integer_grid_ties(seed):
    rng = random.Random(seed)
    net = make_grid_network(5, 4)
    pts = _grid_points(net, rng, 14)
    _check(net, pts)
    for delta in (0.0, 1.0):
        runs = _runs_in_tmp(net, pts, delta)
        for backend in BACKENDS[1:]:
            assert _same_dendrogram(runs[backend][1], runs["dict"][1])


def _coincident_points(net, rng):
    """Objects stacked at one offset of an edge, and objects at a node on
    several of its edges (offset 0 or the full weight)."""
    pts = PointSet(net)
    edges = list(net.edges())
    for _ in range(4):
        u, v, w = edges[rng.randrange(len(edges))]
        offset = rng.uniform(0.0, w)
        for _ in range(rng.randint(1, 3)):
            pts.add(u, v, offset)
    for _ in range(3):
        node = rng.choice(list(net.nodes()))
        for nbr, w in list(net.neighbors(node))[: rng.randint(2, 3)]:
            pts.add(node, nbr, 0.0)
    return pts


@pytest.mark.parametrize("seed", range(12))
def test_coincident_objects(seed):
    net = make_grid_network(4, 4, spacing=1.3)
    _check(net, _coincident_points(net, random.Random(seed)))


def test_matches_matrix_on_grid_ties():
    """On exact ties the node traversal is still exact single-link: the
    merge distances equal the distance matrix's Kruskal."""
    for seed in range(6):
        net = make_grid_network(5, 5)
        pts = _grid_points(net, random.Random(seed), 12)
        got = SingleLink(net, pts).build_dendrogram()
        want = matrix_single_link(DistanceMatrix.from_points(net, pts))
        assert got.merge_distances() == want.merge_distances()


# ----------------------------------------------------------------------
# The tie rule
# ----------------------------------------------------------------------
def _tie_instance():
    """Node 1 lies exactly 1.0 from object 5 (edge 0-1) and object 3 (edge
    1-2); the edge scan meets object 5 first.  An empty edge 1-3 of
    weight 5 leads to node 3, 0.5 from object 7 (edge 3-4), so the bridge
    across it names node 1's owner."""
    net = SpatialNetwork.from_edge_list(
        [(0, 1, 2.0), (1, 2, 2.0), (1, 3, 5.0), (3, 4, 2.0)]
    )
    pts = PointSet(net)
    pts.add(0, 1, 1.0, point_id=5)
    pts.add(1, 2, 1.0, point_id=3)
    pts.add(3, 4, 0.5, point_id=7)
    return net, pts


def test_tie_goes_to_smallest_point_id():
    net, pts = _tie_instance()
    algo = SingleLink(net, pts)
    dist, owner, _, _ = algo._voronoi()
    assert dist[1] == 1.0
    assert owner[1] == 3
    bridges, _ = algo._bridges()
    assert (6.5, 3, 7) in bridges
    assert (6.5, 5, 7) not in bridges
    # Push order, which the heap key's point id overrides, picks 5 here.
    assert (6.5, 5, 7) in augmented_bridges(net, pts)


def test_tie_rule_holds_on_every_backend(tmp_path):
    net, pts = _tie_instance()
    runs = _runs(net, pts, tmp_path)
    for backend in BACKENDS:
        assert (6.5, 3, 7) in runs[backend][0], backend


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def test_objects_at_both_edge_ends():
    """Objects at offset 0 and at the full weight sit on a node: distance
    0 seeds, and zero-length bridges to objects on the node's other
    edges."""
    net = SpatialNetwork.from_edge_list(
        [(0, 1, 1.5), (1, 2, 2.5), (2, 3, 0.7), (0, 3, 3.1), (1, 3, 1.9)]
    )
    pts = PointSet(net)
    pts.add(0, 1, 0.0, point_id=0)
    pts.add(0, 1, 1.5, point_id=1)
    pts.add(1, 2, 0.0, point_id=2)
    pts.add(1, 2, 2.5, point_id=3)
    pts.add(2, 3, 0.3, point_id=4)
    pts.add(0, 3, 3.1, point_id=5)
    bridges = _check(net, pts)
    assert (0.0, 1, 2) in bridges
    assert (0.3, 3, 4) in bridges  # object 4 is 0.3 from node 2
    dendrogram = SingleLink(net, pts).build_dendrogram()
    want = matrix_single_link(DistanceMatrix.from_points(net, pts))
    assert dendrogram.merge_distances() == pytest.approx(want.merge_distances())


def test_component_without_objects():
    """A component carrying no object is never settled and offers no
    bridge; a second component with objects stays a separate root."""
    net = SpatialNetwork.from_edge_list(
        [(0, 1, 1.0), (1, 2, 2.0), (10, 11, 1.0), (11, 12, 3.0),
         (20, 21, 2.0)]
    )
    pts = PointSet(net)
    pts.add(0, 1, 0.4, point_id=0)
    pts.add(1, 2, 1.0, point_id=1)
    pts.add(20, 21, 0.5, point_id=2)
    algo = SingleLink(net, pts, check_connectivity=False)
    dist, _, _, _ = algo._voronoi()
    assert not {10, 11, 12} & set(dist)
    assert algo._bridges()[0] == [(1.6, 0, 1)]
    dendrogram = SingleLink(net, pts, check_connectivity=False).build_dendrogram()
    assert dendrogram.num_roots == 2
    _check(net, pts)


def test_vertices_settled_counts_nodes():
    net, pts = _tie_instance()
    algo = SingleLink(net, pts)
    algo.build_dendrogram()
    assert algo.last_stats["vertices_settled"] == 5
