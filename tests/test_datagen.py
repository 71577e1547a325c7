"""Tests for the synthetic network and cluster generators."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.datagen.clusters import ClusterSpec, generate_clustered_points, suggest_eps
from repro.datagen.networks import delaunay_road_network, grid_city
from repro.datagen.workloads import PAPER_WORKLOADS, load_network, load_workload
from repro.eval.metrics import NOISE, adjusted_rand_index
from repro.exceptions import ParameterError
from repro.network.components import is_connected


class TestGridCity:
    def test_dimensions(self):
        net = grid_city(6, 5, seed=1)
        assert net.num_nodes == 30
        assert is_connected(net)

    def test_removal_reduces_edges_but_keeps_connectivity(self):
        dense = grid_city(10, 10, removal=0.0, seed=2)
        thinned = grid_city(10, 10, removal=0.3, seed=2)
        assert thinned.num_edges < dense.num_edges
        assert is_connected(thinned)

    def test_weights_positive_and_near_spacing(self):
        net = grid_city(8, 8, spacing=2.0, jitter=0.2, seed=3)
        for _, _, w in net.edges():
            assert 0 < w < 2.0 * 2  # jitter bounded

    def test_deterministic(self):
        a = grid_city(7, 7, seed=11)
        b = grid_city(7, 7, seed=11)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_jitter_zero_gives_exact_grid(self):
        net = grid_city(4, 4, jitter=0.0, removal=0.0, seed=0)
        for _, _, w in net.edges():
            assert w == pytest.approx(1.0)

    @pytest.mark.parametrize("kwargs", [
        {"width": 0, "height": 3},
        {"width": 3, "height": 3, "jitter": 0.7},
        {"width": 3, "height": 3, "removal": 1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            grid_city(**kwargs)


class TestDelaunayRoadNetwork:
    def test_connected_and_planar_density(self):
        net = delaunay_road_network(200, seed=4)
        assert net.num_nodes == 200
        assert is_connected(net)
        avg_degree = 2 * net.num_edges / net.num_nodes
        assert 2.0 < avg_degree <= 3.2

    def test_target_degree_respected(self):
        sparse = delaunay_road_network(150, target_degree=2.2, seed=5)
        dense = delaunay_road_network(150, target_degree=4.0, seed=5)
        assert sparse.num_edges < dense.num_edges

    def test_tiny_networks(self):
        assert delaunay_road_network(2, seed=0).num_edges == 1
        assert delaunay_road_network(3, seed=0).num_edges == 2

    def test_deterministic(self):
        a = delaunay_road_network(80, seed=9)
        b = delaunay_road_network(80, seed=9)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_validation(self):
        with pytest.raises(ParameterError):
            delaunay_road_network(1)
        with pytest.raises(ParameterError):
            delaunay_road_network(10, target_degree=1.5)


class TestClusterSpec:
    def test_s_final(self):
        spec = ClusterSpec(k=3, s_init=2.0, magnification=5.0)
        assert spec.s_final == pytest.approx(10.0)

    def test_suggest_eps_matches_paper(self):
        spec = ClusterSpec(k=3, s_init=2.0, magnification=5.0)
        assert suggest_eps(spec) == pytest.approx(1.5 * 2.0 * 5.0)

    @pytest.mark.parametrize("kwargs", [
        {"k": 0, "s_init": 1.0},
        {"k": 2, "s_init": 0.0},
        {"k": 2, "s_init": 1.0, "magnification": 1.0},
        {"k": 2, "s_init": 1.0, "outlier_fraction": 1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            ClusterSpec(**kwargs)


class TestGenerateClusteredPoints:
    @pytest.fixture
    def network(self):
        return grid_city(15, 15, removal=0.1, seed=7)

    def test_counts_and_labels(self, network):
        spec = ClusterSpec(k=4, s_init=0.05, outlier_fraction=0.01)
        points = generate_clustered_points(network, 400, spec, seed=1)
        assert len(points) == 400
        labels = Counter(p.label for p in points)
        assert labels[NOISE] == 4  # 1% of 400
        cluster_sizes = [labels[i] for i in range(4)]
        assert sum(cluster_sizes) == 396
        assert max(cluster_sizes) - min(cluster_sizes) <= 1  # even split

    def test_zero_outliers(self, network):
        spec = ClusterSpec(k=2, s_init=0.05, outlier_fraction=0.0)
        points = generate_clustered_points(network, 100, spec, seed=2)
        assert all(p.label != NOISE for p in points)

    def test_deterministic(self, network):
        spec = ClusterSpec(k=3, s_init=0.05)
        a = generate_clustered_points(network, 200, spec, seed=5)
        b = generate_clustered_points(network, 200, spec, seed=5)
        assert [(p.edge, p.offset, p.label) for p in a] == [
            (p.edge, p.offset, p.label) for p in b
        ]

    def test_clusters_are_spatially_coherent(self, network):
        """Points of one cluster must lie close together on the network:
        the max gap the generator can produce is 1.5 * s_init * F."""
        from repro.core.epslink import EpsLink

        spec = ClusterSpec(k=3, s_init=0.03, outlier_fraction=0.0)
        seed_edges = [(0, 1), (112, 113), (224, 223)]
        seed_edges = [e for e in seed_edges if network.has_edge(*e)]
        points = generate_clustered_points(network, 150, spec, seed=3)
        eps = suggest_eps(spec) * 1.01
        result = EpsLink(network, points, eps=eps).run()
        # Every generated cluster is intact inside a single eps-link cluster
        # (eps-link clusters may merge planted clusters that landed nearby,
        # but may never split one).
        for label in range(3):
            member_clusters = {
                result.cluster_of(p.point_id)
                for p in points
                if p.label == label
            }
            assert len(member_clusters) == 1

    def test_well_separated_clusters_recovered(self, network):
        """With far-apart seeds, eps-link recovers the planted clustering."""
        from repro.core.epslink import EpsLink

        spec = ClusterSpec(k=2, s_init=0.02, outlier_fraction=0.0)
        corner_a = min(network.nodes())
        corner_b = max(network.nodes())
        edge_a = (corner_a, next(iter(dict(network.neighbors(corner_a)))))
        edge_b = (corner_b, next(iter(dict(network.neighbors(corner_b)))))
        points = generate_clustered_points(
            network, 60, spec, seed=4, seed_edges=[edge_a, edge_b]
        )
        result = EpsLink(network, points, eps=suggest_eps(spec) * 1.01).run()
        truth = {p.point_id: p.label for p in points}
        predicted = dict(result.assignment)
        if result.num_clusters == 2:
            assert adjusted_rand_index(truth, predicted) == pytest.approx(1.0)

    def test_validation(self, network):
        spec = ClusterSpec(k=5, s_init=0.05)
        with pytest.raises(ParameterError):
            generate_clustered_points(network, 3, spec)
        with pytest.raises(ParameterError):
            generate_clustered_points(network, 100, spec, seed_edges=[(0, 1)])


class TestWorkloads:
    def test_paper_specs_present(self):
        assert set(PAPER_WORKLOADS) == {"NA", "SF", "TG", "OL"}
        assert PAPER_WORKLOADS["OL"].paper_nodes == 6105

    @pytest.mark.parametrize("name", ["SF", "TG", "OL"])
    def test_load_network_scaled(self, name):
        net = load_network(name, scale=1 / 64, seed=0)
        want = PAPER_WORKLOADS[name].paper_nodes / 64
        assert net.num_nodes == pytest.approx(want, rel=0.25)
        assert is_connected(net)

    def test_na_is_sparse(self):
        net = load_network("NA", scale=1 / 256, seed=0)
        ratio = net.num_edges / net.num_nodes
        assert ratio < 1.25  # highway-skeleton density

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            load_network("XX")
        with pytest.raises(ParameterError):
            load_workload("XX")

    def test_bad_scale(self):
        with pytest.raises(ParameterError):
            load_network("OL", scale=0.0)

    def test_load_workload_bundle(self):
        net, points, spec = load_workload("OL", scale=1 / 32, k=5, seed=1)
        assert is_connected(net)
        assert spec.k == 5
        assert len(points) >= 20
        labels = {p.label for p in points}
        assert labels - {NOISE} == set(range(5))

    def test_load_workload_custom_points(self):
        net, points, _ = load_workload("OL", scale=1 / 32, k=3, n_points=90, seed=2)
        assert len(points) == 90

    def test_load_workload_clusters_recoverable(self):
        """With separated seeds (the default), eps-link at the generator's
        eps recovers the planted clusters."""
        from repro.core.epslink import EpsLink
        from repro.datagen.clusters import suggest_eps

        net, points, spec = load_workload("TG", scale=1 / 16, k=5, seed=3)
        result = EpsLink(net, points, eps=suggest_eps(spec), min_sup=2).run()
        truth = {p.point_id: p.label for p in points}
        ari = adjusted_rand_index(truth, dict(result.assignment), noise="drop")
        assert ari > 0.95

    def test_load_workload_without_seed_separation(self):
        net, points, spec = load_workload(
            "OL", scale=1 / 32, k=3, seed=4, separate_seeds=False
        )
        assert len(points) > 0
