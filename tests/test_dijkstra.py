"""Unit and property tests for the Dijkstra traversal primitives."""

from __future__ import annotations

import math
import random

import pytest

from repro.exceptions import UnreachableError
from repro.network.dijkstra import (
    all_pairs_node_distances,
    multi_source,
    node_distance,
    single_source,
    single_source_with_paths,
)
from repro.network.graph import SpatialNetwork

from tests.conftest import make_random_connected_network


def bellman_ford_reference(network, source: int) -> dict[int, float]:
    """O(VE) reference shortest paths for validating Dijkstra."""
    dist = {node: math.inf for node in network.nodes()}
    dist[source] = 0.0
    for _ in range(network.num_nodes):
        changed = False
        for u, v, w in network.edges():
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return {n: d for n, d in dist.items() if math.isfinite(d)}


class TestSingleSource:
    def test_small_network_distances(self, small_network):
        dist = single_source(small_network, 1)
        assert dist == pytest.approx({1: 0.0, 2: 2.0, 3: 5.0, 4: 4.0, 5: 6.0})

    def test_matches_bellman_ford(self):
        rng = random.Random(7)
        for trial in range(10):
            net = make_random_connected_network(rng, 30, extra_edges=20)
            source = rng.randrange(30)
            assert single_source(net, source) == pytest.approx(
                bellman_ford_reference(net, source)
            )

    def test_cutoff_limits_expansion(self, small_network):
        dist = single_source(small_network, 1, cutoff=4.0)
        assert set(dist) == {1, 2, 4}

    def test_targets_early_stop(self, small_network):
        dist = single_source(small_network, 1, targets=(2,))
        assert dist[2] == 2.0
        # Early stop settles the target; farther nodes may be absent.
        assert 5 not in dist or dist[5] == 6.0

    def test_disconnected_component_excluded(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (3, 4, 1.0)])
        dist = single_source(net, 1)
        assert set(dist) == {1, 2}


class TestSingleSourceWithPaths:
    def test_predecessors_form_shortest_paths(self, small_network):
        dist, pred = single_source_with_paths(small_network, 1)
        for node, d in dist.items():
            # Walk back to the source accumulating weights.
            total, cur = 0.0, node
            while cur != 1:
                parent = pred[cur]
                total += small_network.edge_weight(parent, cur)
                cur = parent
            assert total == pytest.approx(d)

    def test_source_has_no_predecessor(self, small_network):
        _, pred = single_source_with_paths(small_network, 1)
        assert 1 not in pred


class TestNodeDistance:
    def test_known_distances(self, small_network):
        assert node_distance(small_network, 1, 3) == pytest.approx(5.0)
        assert node_distance(small_network, 2, 5) == pytest.approx(4.0)
        assert node_distance(small_network, 1, 1) == 0.0

    def test_symmetry(self, small_network):
        for u in small_network.nodes():
            for v in small_network.nodes():
                assert node_distance(small_network, u, v) == pytest.approx(
                    node_distance(small_network, v, u)
                )

    def test_unreachable_raises(self):
        net = SpatialNetwork.from_edge_list([(1, 2, 1.0), (3, 4, 1.0)])
        with pytest.raises(UnreachableError):
            node_distance(net, 1, 3)


class TestMultiSource:
    def test_single_seed_equals_single_source(self, small_network):
        dist, label = multi_source(small_network, [(0.0, 1, "a")])
        assert dist == pytest.approx(single_source(small_network, 1))
        assert set(label.values()) == {"a"}

    def test_assigns_nearest_seed(self, grid_network):
        # Seeds at opposite corners of a 5x5 unit grid.
        dist, label = multi_source(
            grid_network, [(0.0, 0, "a"), (0.0, 24, "b")]
        )
        assert label[0] == "a"
        assert label[24] == "b"
        for node in grid_network.nodes():
            da = single_source(grid_network, 0)[node]
            db = single_source(grid_network, 24)[node]
            assert dist[node] == pytest.approx(min(da, db))
            if da < db:
                assert label[node] == "a"
            elif db < da:
                assert label[node] == "b"

    def test_nearest_seed_random_networks(self):
        rng = random.Random(123)
        for trial in range(5):
            net = make_random_connected_network(rng, 40, extra_edges=25)
            seeds = rng.sample(range(40), 4)
            entries = [(0.0, s, s) for s in seeds]
            dist, label = multi_source(net, entries)
            per_seed = {s: single_source(net, s) for s in seeds}
            for node in net.nodes():
                best = min(per_seed[s][node] for s in seeds)
                assert dist[node] == pytest.approx(best)
                assert per_seed[label[node]][node] == pytest.approx(best)

    def test_initial_distances_respected(self, small_network):
        # Seeding node 1 at distance 10 and node 5 at 0 makes 5 win everywhere
        # close to it.
        dist, label = multi_source(small_network, [(10.0, 1, "far"), (0.0, 5, "near")])
        assert label[5] == "near"
        assert label[4] == "near"
        assert dist[4] == pytest.approx(2.0)

    def test_mapping_seed_format(self, small_network):
        dist, label = multi_source(small_network, {1: [(0.0, "a")], 5: [(0.0, "b")]})
        assert label[1] == "a"
        assert label[5] == "b"

    def test_cutoff(self, small_network):
        dist, _ = multi_source(small_network, [(0.0, 1, "a")], cutoff=3.0)
        assert set(dist) == {1, 2}

    def test_unorderable_labels_do_not_raise(self, small_network):
        # Labels of mixed types must never be compared by the heap.
        dist, label = multi_source(
            small_network, [(0.0, 1, ("tuple",)), (0.0, 5, 42)]
        )
        assert len(dist) == small_network.num_nodes


class TestAllPairs:
    def test_matches_repeated_single_source(self, small_network):
        ap = all_pairs_node_distances(small_network)
        for node in small_network.nodes():
            assert ap[node] == pytest.approx(single_source(small_network, node))

    def test_symmetric(self, grid_network):
        ap = all_pairs_node_distances(grid_network)
        nodes = list(grid_network.nodes())
        for u in nodes[:8]:
            for v in nodes[:8]:
                assert ap[u][v] == pytest.approx(ap[v][u])


class TestMetricOnNodes:
    def test_triangle_inequality(self):
        rng = random.Random(99)
        net = make_random_connected_network(rng, 25, extra_edges=15)
        ap = all_pairs_node_distances(net)
        nodes = list(net.nodes())
        for _ in range(200):
            a, b, c = (rng.choice(nodes) for _ in range(3))
            assert ap[a][c] <= ap[a][b] + ap[b][c] + 1e-9
