"""Cross-module integration tests: full pipelines over generated workloads,
in-memory vs disk-backed equivalence, and the end-to-end claims of the paper
at test scale."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.dbscan import NetworkDBSCAN
from repro.core.dendrogram import Dendrogram
from repro.core.epslink import EpsLink
from repro.core.kmedoids import NetworkKMedoids
from repro.core.optics import NetworkOPTICS
from repro.core.singlelink import SingleLink
from repro.datagen import (
    ClusterSpec,
    generate_clustered_points,
    grid_city,
    suggest_eps,
)
from repro.datagen.clusters import well_separated_seed_edges
from repro.eval.metrics import NOISE, adjusted_rand_index
from repro.storage.netstore import NetworkStore

from tests.strategies import clustering_instance


@pytest.fixture(scope="module")
def workload():
    """A mid-size city with 6 well-separated planted clusters."""
    network = grid_city(24, 24, removal=0.15, seed=13)
    spec = ClusterSpec(k=6, s_init=0.02, outlier_fraction=0.01)
    seeds = well_separated_seed_edges(network, 6, seed=14)
    points = generate_clustered_points(
        network, 1500, spec, seed=15, seed_edges=seeds
    )
    return network, points, spec, suggest_eps(spec)


class TestFullPipeline:
    def test_density_methods_recover_planted_clusters(self, workload):
        network, points, spec, eps = workload
        truth = {p.point_id: p.label for p in points}
        for algo in (
            EpsLink(network, points, eps=eps, min_sup=2),
            NetworkDBSCAN(network, points, eps=eps, min_pts=2),
        ):
            result = algo.run()
            ari = adjusted_rand_index(truth, dict(result.assignment), noise="drop")
            assert ari > 0.99, algo.algorithm_name

    def test_single_link_cut_equals_epslink(self, workload):
        network, points, spec, eps = workload
        dendrogram = SingleLink(network, points, delta=0.7 * eps).build_dendrogram()
        cut = dendrogram.cut_distance(eps)
        linked = EpsLink(network, points, eps=eps).run()
        assert cut.as_partition() == linked.as_partition()

    def test_kmedoids_ideal_init_not_worse(self, workload):
        network, points, spec, eps = workload
        first_of_cluster: dict[int, int] = {}
        for p in points:
            if p.label != NOISE and p.label not in first_of_cluster:
                first_of_cluster[p.label] = p.point_id
        init = sorted(first_of_cluster.values())
        random_run = NetworkKMedoids(
            network, points, k=6, seed=0, max_bad_swaps=5
        ).run()
        ideal_run = NetworkKMedoids(
            network, points, k=6, seed=0, max_bad_swaps=5, initial_medoids=init
        ).run()
        assert ideal_run.stats["R"] <= random_run.stats["R"] * 1.2

    def test_optics_extraction_tracks_eps(self, workload):
        network, points, spec, eps = workload
        truth = {p.point_id: p.label for p in points}
        optics = NetworkOPTICS(
            network, points, max_eps=2 * eps, min_pts=2
        ).compute()
        flat = optics.extract_dbscan(eps)
        ari = adjusted_rand_index(truth, dict(flat.assignment), noise="drop")
        assert ari > 0.99

    def test_sharpest_level_recovers_clusters(self, workload):
        """Section 5.3 end-to-end: the sharpest dendrogram jump marks the
        planted clustering."""
        network, points, spec, eps = workload
        truth = {p.point_id: p.label for p in points}
        dendrogram = SingleLink(network, points, delta=0.7 * eps).build_dendrogram()
        candidates = dendrogram.sharpest_levels(top=5)
        distances = dendrogram.merge_distances()
        past_eps = [i for i in candidates if distances[i] > eps]
        assert past_eps, "one of the sharpest jumps must cross eps"
        best = dendrogram.clusters_before_merge(min(past_eps))
        ari = adjusted_rand_index(truth, dict(best.assignment), noise="drop")
        assert ari > 0.95

    def test_interesting_levels_includes_sharpest(self, workload):
        network, points, spec, eps = workload
        dendrogram = SingleLink(network, points, delta=0.7 * eps).build_dendrogram()
        broad = set(dendrogram.interesting_levels(window=10, factor=3.0))
        sharp = set(dendrogram.sharpest_levels(top=3, window=10))
        assert sharp <= broad


class TestDiskBackedEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(clustering_instance(min_points=3, max_points=10))
    def test_property_epslink_identical_on_store(self, tmp_path_factory, data):
        net, points, seed = data
        path = tmp_path_factory.mktemp("store") / "net.db"
        in_memory = EpsLink(net, points, eps=2.5).run()
        with NetworkStore.build(path, net, points) as store:
            on_disk = EpsLink(store, store.points(), eps=2.5).run()
        assert on_disk.same_clustering(in_memory), f"seed={seed}"

    @settings(max_examples=10, deadline=None)
    @given(clustering_instance(min_points=3, max_points=8))
    def test_property_single_link_identical_on_store(self, tmp_path_factory, data):
        net, points, seed = data
        path = tmp_path_factory.mktemp("store") / "net.db"
        in_memory = SingleLink(net, points).build_dendrogram()
        with NetworkStore.build(path, net, points) as store:
            on_disk = SingleLink(store, store.points()).build_dendrogram()
        assert on_disk.merge_distances() == pytest.approx(
            in_memory.merge_distances()
        ), f"seed={seed}"

    def test_full_workload_on_store(self, workload, tmp_path):
        network, points, spec, eps = workload
        truth = {p.point_id: p.label for p in points}
        with NetworkStore.build(tmp_path / "city.db", network, points) as store:
            result = EpsLink(store, store.points(), eps=eps, min_sup=2).run()
            ari = adjusted_rand_index(truth, dict(result.assignment), noise="drop")
            assert ari > 0.99
            stats = store.stats()
            assert stats["buffer_hits"] > 0


class TestSerializationPipeline:
    def test_generate_save_load_cluster(self, workload, tmp_path):
        from repro.io import load_workload_file, save_workload

        network, points, spec, eps = workload
        path = tmp_path / "w.json"
        save_workload(path, network, points)
        net2, pts2 = load_workload_file(path)
        original = EpsLink(network, points, eps=eps).run()
        reloaded = EpsLink(net2, pts2, eps=eps).run()
        assert original.same_clustering(reloaded)


class TestSharpestLevels:
    def test_orders_by_significance(self):
        from repro.core.dendrogram import Merge

        # Jumps of relative size 10 (index 4) and 3 (index 8).
        distances = [1.0, 1.1, 1.2, 1.3, 11.0, 11.1, 11.2, 11.3, 14.0]
        merges = []
        for i, d in enumerate(distances):
            merges.append(
                Merge(distance=d, left=i, right=9 + i if i else 9,
                      merged=10 + i, size=i + 2)
            )
        # Construct a simple valid chain dendrogram: leaves 0..9.
        leaves = [[i] for i in range(10)]
        chain = []
        current = 0
        next_id = 10
        for i, d in enumerate(distances):
            chain.append(Merge(distance=d, left=current, right=i + 1,
                               merged=next_id, size=i + 2))
            current = next_id
            next_id += 1
        dendrogram = Dendrogram(leaves, chain)
        top = dendrogram.sharpest_levels(top=2, window=3)
        assert top[0] == 4  # the 10x jump
        assert set(top) == {4, 8}
