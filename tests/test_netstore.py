"""Tests for the disk-backed network store.

Invariant 9: the store answers every adjacency/point query identically to
the in-memory network it was built from — and the clustering algorithms
produce identical results on either backend.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.epslink import EpsLink
from repro.core.kmedoids import NetworkKMedoids
from repro.core.singlelink import SingleLink
from repro.datagen import load_network
from repro.exceptions import EdgeNotFoundError, NodeNotFoundError, PointNotFoundError
from repro.storage.ccam import ccam_order, random_order
from repro.storage import netstore
from repro.storage.netstore import NetworkStore

from tests.conftest import make_random_connected_network, scatter_points


@pytest.fixture
def store(tmp_path, small_network, small_points):
    s = NetworkStore.build(tmp_path / "net.db", small_network, small_points)
    yield s
    s.close()


class TestNetworkProtocol:
    def test_counts(self, store, small_network, small_points):
        assert store.num_nodes == small_network.num_nodes
        assert store.num_edges == small_network.num_edges
        assert len(store.points()) == len(small_points)

    def test_nodes_iteration(self, store, small_network):
        assert sorted(store.nodes()) == sorted(small_network.nodes())

    def test_neighbors_match(self, store, small_network):
        for node in small_network.nodes():
            assert dict(store.neighbors(node)) == dict(small_network.neighbors(node))

    def test_edge_weight(self, store, small_network):
        for u, v, w in small_network.edges():
            assert store.edge_weight(u, v) == pytest.approx(w)
            assert store.edge_weight(v, u) == pytest.approx(w)

    def test_edges_iteration(self, store, small_network):
        assert sorted(store.edges()) == sorted(small_network.edges())

    def test_has_node_and_edge(self, store):
        assert store.has_node(1)
        assert not store.has_node(99)
        assert store.has_edge(1, 2)
        assert not store.has_edge(1, 5)

    def test_missing_node_raises(self, store):
        with pytest.raises(NodeNotFoundError):
            list(store.neighbors(99))

    def test_missing_edge_raises(self, store):
        with pytest.raises(EdgeNotFoundError):
            store.edge_weight(1, 5)

    def test_degree(self, store, small_network):
        for node in small_network.nodes():
            assert store.degree(node) == small_network.degree(node)


class TestPointsProtocol:
    def test_points_on_edge(self, store, small_points):
        sp = store.points()
        for edge in small_points.populated_edges():
            want = [(p.point_id, p.offset, p.label) for p in small_points.points_on_edge(*edge)]
            got = [(p.point_id, p.offset, p.label) for p in sp.points_on_edge(*edge)]
            assert got == want

    def test_empty_edge(self, store):
        assert store.points().points_on_edge(3, 5) == []

    def test_points_from_direction(self, store, small_points):
        sp = store.points()
        assert [p.point_id for p in sp.points_from(2, 1)] == [
            p.point_id for p in small_points.points_from(2, 1)
        ]

    def test_get_by_id(self, store, small_points):
        sp = store.points()
        for p in small_points:
            q = sp.get(p.point_id)
            assert (q.edge, q.offset) == (p.edge, p.offset)

    def test_get_missing(self, store):
        with pytest.raises(PointNotFoundError):
            store.points().get(999)

    def test_iteration_covers_all(self, store, small_points):
        got = {p.point_id for p in store.points()}
        assert got == set(small_points.point_ids())

    def test_populated_edges(self, store, small_points):
        assert sorted(store.points().populated_edges()) == sorted(
            small_points.populated_edges()
        )

    def test_labels_roundtrip(self, tmp_path, small_network):
        from repro.network.points import PointSet

        ps = PointSet(small_network)
        ps.add(1, 2, 0.5, label=3)
        ps.add(1, 2, 1.0, label=-1)
        ps.add(2, 3, 1.0)  # label None
        s = NetworkStore.build(tmp_path / "lab.db", small_network, ps)
        labels = s.points().labels()
        assert labels == {0: 3, 1: -1, 2: None}
        s.close()


class TestGroupRecordDecoding:
    """Group records decode to trusted points; the one placement check
    left, canonical ``u < v``, is made once per record."""

    def _record(self, u, v, entries):
        from repro.storage.netstore import _GROUP_ENTRY, _GROUP_HEADER

        return _GROUP_HEADER.pack(u, v, len(entries)) + b"".join(
            _GROUP_ENTRY.pack(*entry) for entry in entries
        )

    def test_points_equal_checked_construction(self):
        from repro.network.points import NetworkPoint
        from repro.storage.netstore import _NO_LABEL, _decode_group

        edge, pts = _decode_group(self._record(2, 5, [(7, 0.5, 3), (8, 1.5, _NO_LABEL)]))
        assert edge == (2, 5)
        assert [(p.point_id, p.u, p.v, p.offset, p.label) for p in pts] == [
            (7, 2, 5, 0.5, 3), (8, 2, 5, 1.5, None)]
        assert pts[0] == NetworkPoint(7, 2, 5, 0.5, label=3)

    @pytest.mark.parametrize("u, v", [(5, 2), (3, 3)])
    def test_non_canonical_edge_is_corrupt(self, u, v):
        from repro.exceptions import CorruptRecordError
        from repro.storage.netstore import _decode_group

        with pytest.raises(CorruptRecordError):
            _decode_group(self._record(u, v, [(7, 0.5, 0)]))


class TestPersistence:
    def test_reopen(self, tmp_path, small_network, small_points):
        path = tmp_path / "reopen.db"
        NetworkStore.build(path, small_network, small_points).close()
        with NetworkStore(path) as store:
            assert store.num_nodes == small_network.num_nodes
            assert dict(store.neighbors(1)) == dict(small_network.neighbors(1))
            assert len(store.points()) == len(small_points)


class TestRandomNetworkEquivalence:
    def test_full_equivalence(self, tmp_path):
        rng = random.Random(21)
        net = make_random_connected_network(rng, 60, extra_edges=40)
        points = scatter_points(rng, net, 40)
        with NetworkStore.build(tmp_path / "rand.db", net, points) as store:
            for node in net.nodes():
                assert dict(store.neighbors(node)) == dict(net.neighbors(node))
            sp = store.points()
            for edge in points.populated_edges():
                want = [(p.point_id, p.offset) for p in points.points_on_edge(*edge)]
                got = [(p.point_id, p.offset) for p in sp.points_on_edge(*edge)]
                assert got == want


class TestClusteringOnStore:
    """The same algorithms produce the same clusters on either backend."""

    def test_epslink(self, tmp_path, small_network, small_points):
        in_memory = EpsLink(small_network, small_points, eps=1.5).run()
        with NetworkStore.build(tmp_path / "e.db", small_network, small_points) as store:
            on_disk = EpsLink(store, store.points(), eps=1.5).run()
        assert on_disk.same_clustering(in_memory)

    def test_single_link(self, tmp_path, small_network, small_points):
        in_memory = SingleLink(small_network, small_points).build_dendrogram()
        with NetworkStore.build(tmp_path / "s.db", small_network, small_points) as store:
            on_disk = SingleLink(store, store.points()).build_dendrogram()
        assert on_disk.merge_distances() == pytest.approx(in_memory.merge_distances())

    def test_kmedoids(self, tmp_path):
        rng = random.Random(31)
        net = make_random_connected_network(rng, 30, extra_edges=20)
        points = scatter_points(rng, net, 25)
        in_memory = NetworkKMedoids(net, points, k=3, seed=5).run()
        with NetworkStore.build(tmp_path / "k.db", net, points) as store:
            on_disk = NetworkKMedoids(store, store.points(), k=3, seed=5).run()
        assert on_disk.assignment == in_memory.assignment

    def test_dbscan(self, tmp_path, small_network, small_points):
        from repro.core.dbscan import NetworkDBSCAN

        in_memory = NetworkDBSCAN(small_network, small_points, eps=1.5, min_pts=2).run()
        with NetworkStore.build(tmp_path / "d.db", small_network, small_points) as store:
            on_disk = NetworkDBSCAN(store, store.points(), eps=1.5, min_pts=2).run()
        assert on_disk.same_clustering(in_memory)

    def test_optics(self, tmp_path, small_network, small_points):
        from repro.core.optics import NetworkOPTICS

        in_memory = NetworkOPTICS(small_network, small_points, max_eps=3.0).compute()
        with NetworkStore.build(tmp_path / "o.db", small_network, small_points) as store:
            on_disk = NetworkOPTICS(store, store.points(), max_eps=3.0).compute()
        assert [o.point_id for o in on_disk.ordering] == [
            o.point_id for o in in_memory.ordering
        ]
        for a, b in zip(on_disk.ordering, in_memory.ordering):
            assert a.reachability == pytest.approx(b.reachability)

    def test_edgewise_epslink(self, tmp_path, small_network, small_points):
        """The group scan reads stored point groups: same clusters and
        the same node settles as in memory, at every ε."""
        from repro.core.epslink import EpsLink

        with NetworkStore.build(tmp_path / "ew.db", small_network, small_points) as store:
            for eps in (0.5, 1.5, 4.0):
                in_memory = EpsLink(small_network, small_points, eps=eps).run()
                on_disk = EpsLink(store, store.points(), eps=eps).run()
                assert on_disk.same_clustering(in_memory)
                assert (on_disk.stats["vertices_visited"]
                        == in_memory.stats["vertices_visited"])


class TestIOInstrumentation:
    def test_stats_accumulate_and_reset(self, tmp_path, small_network, small_points):
        with NetworkStore.build(tmp_path / "io.db", small_network, small_points) as store:
            store.reset_stats()
            store.drop_caches()
            list(store.neighbors(1))
            stats = store.stats()
            assert stats["buffer_misses"] >= 1
            store.reset_stats()
            assert store.stats()["buffer_misses"] == 0

    def test_buffer_hits_on_repeat_access(self, tmp_path, small_network, small_points):
        with NetworkStore.build(tmp_path / "io2.db", small_network, small_points) as store:
            store.drop_caches()
            store.reset_stats()
            list(store.neighbors(1))
            first = store.stats()["buffer_misses"]
            # Clear the decode cache but not the page buffer: the record is
            # re-parsed from cached pages.
            store._adj_cache.clear()
            list(store.neighbors(1))
            assert store.stats()["buffer_misses"] == first


class TestNodeOrdering:
    def test_ccam_order_covers_all_nodes(self, small_network):
        order = ccam_order(small_network)
        assert sorted(order) == sorted(small_network.nodes())

    def test_ccam_neighbors_adjacent_in_order(self):
        """On a path graph the CCAM order is exactly the path order."""
        from repro.network.graph import SpatialNetwork

        net = SpatialNetwork.from_edge_list(
            [(i, i + 1, 1.0) for i in range(10)]
        )
        assert ccam_order(net) == list(range(11))

    def test_random_order_is_permutation(self, small_network):
        order = random_order(small_network, seed=1)
        assert sorted(order) == sorted(small_network.nodes())

    def test_explicit_order_build(self, tmp_path, small_network, small_points):
        order = random_order(small_network, seed=3)
        with NetworkStore.build(
            tmp_path / "ord.db", small_network, small_points, node_order=order
        ) as store:
            assert sorted(store.nodes()) == sorted(small_network.nodes())

    def test_bad_explicit_order(self, tmp_path, small_network, small_points):
        from repro.exceptions import StorageError

        with pytest.raises(StorageError):
            NetworkStore.build(
                tmp_path / "bad.db", small_network, small_points, node_order=[1, 2]
            )


class TestDecodeCaches:
    """drop_caches() reaches every decode cache, and none serves stale or
    aliased data."""

    @staticmethod
    def _sf_store(tmp_path, buffer_pages: int = 16):
        network = load_network("SF", scale=1 / 200, seed=0)
        points = scatter_points(random.Random(0), network, 300)
        store = NetworkStore.build(
            tmp_path / "sf.db", network, points, buffer_bytes=buffer_pages * 4096
        )
        return store, network, points

    @staticmethod
    def _cold(store, run) -> dict:
        store.drop_caches()
        store.reset_stats()
        run()
        return store.stats()

    def test_drop_caches_reaches_held_point_sets(self, tmp_path):
        store, _, _ = self._sf_store(tmp_path)
        with store:
            held = store.points()
            edges = sorted(held.populated_edges())[:50]

            def scan(point_set):
                return lambda: [point_set.points_on_edge(u, v) for u, v in edges]

            first = self._cold(store, scan(held))
            assert self._cold(store, scan(held)) == first
            assert self._cold(store, scan(store.points())) == first

    def test_drop_caches_resets_the_id_index(self, tmp_path):
        # scatter_points numbers points in placement order, so most ids
        # are not group-sequential and get() builds the full id index.
        store, _, points = self._sf_store(tmp_path)
        with store:
            held = store.points()
            ids = [p.point_id for p in points][:40]

            def lookups():
                for point_id in ids:
                    held.get(point_id)

            first = self._cold(store, lookups)
            assert self._cold(store, lookups) == first

    def test_epslink_builds_each_object_once(self, tmp_path, monkeypatch):
        """A cold ε-Link run decodes each group once: the seed sweep's
        iteration and the group scans share the group cache, so however
        often the small buffer evicts a page, one NetworkPoint is built
        per object."""
        store, network, points = self._sf_store(tmp_path, buffer_pages=4)
        eps = 2 * sum(w for _, _, w in network.edges()) / network.num_edges
        built = []
        trusted_point = netstore.trusted_point

        def counted(*args):
            built.append(args[0])
            return trusted_point(*args)

        monkeypatch.setattr(netstore, "trusted_point", counted)
        with store:
            store.drop_caches()
            on_disk = EpsLink(store, store.points(), eps=eps).run()
        assert sorted(built) == sorted(p.point_id for p in points)
        assert on_disk.as_partition() == EpsLink(network, points, eps=eps).run().as_partition()

    def test_returned_lists_do_not_alias_the_memo(self, store):
        sp = store.points()
        expected = sp.points_on_edge(1, 2)
        assert len(expected) == 2
        got = sp.points_on_edge(1, 2)
        got.clear()
        reverse = sp.points_from(2, 1)
        reverse.append(None)
        assert sp.points_on_edge(1, 2) == expected
        fresh = store.points()  # empty group cache: served by the page memo
        assert fresh.points_on_edge(1, 2) == expected
        assert fresh.points_from(2, 1) == expected[::-1]
        assert fresh.points_from(1, 2) == expected
        assert [fresh.get(p.point_id) for p in expected] == expected

    def test_shared_store_is_thread_safe(self, tmp_path):
        # A two-page buffer keeps frames, and their decoded pages, churning;
        # more threads than cores and a short switch interval interleave
        # the lookups finely.
        store, network, points = self._sf_store(tmp_path, buffer_pages=2)
        nodes = list(network.nodes())
        by_id = {p.point_id: p for p in points}
        ids = list(by_id)
        shared = store.points()
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    point_id = rng.choice(ids)
                    assert shared.get(point_id) == by_id[point_id]
                    node = rng.choice(nodes)
                    assert store.has_node(node)
                    assert not store.has_node(-1 - node)
                    assert dict(store.neighbors(node)) == dict(
                        network.neighbors(node)
                    )
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with store:
                threads = [
                    threading.Thread(target=worker, args=(i,), daemon=True)
                    for i in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
