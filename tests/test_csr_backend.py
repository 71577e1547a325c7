"""Bit-identity sweep for the CSR traversal backend, plus the twin /
determinism regressions fixed alongside it.

The dict-of-dicts :class:`SpatialNetwork` traversals are the oracle; every
test here asserts that :class:`CSRNetwork` produces *bit-identical* output —
same floats, same tie-breaking, same dict insertion order — across the
query layer, the distance accelerator (with and without landmarks), and all
five clustering algorithms, including disconnected networks and the
all-ties unit grid.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro import obs
from repro.core.dbscan import NetworkDBSCAN
from repro.core.epslink import EpsLink
from repro.core.kmedoids import NetworkKMedoids
from repro.core.optics import NetworkOPTICS
from repro.core.singlelink import SingleLink
from repro.exceptions import (
    BudgetExceededError,
    NodeNotFoundError,
    ParameterError,
    StaleBackendError,
    UnreachableError,
)
from repro.faults import OpBudget
from repro.network.augmented import AugmentedView
from repro.network.csr import CSRNetwork, resolve_backend
from repro.network.dijkstra import (
    multi_source,
    node_distance,
    single_source,
    single_source_with_paths,
)
from repro.network.graph import SpatialNetwork
from repro.network.interface import NetworkBackend
from repro.network.queries import knn_query, range_query
from repro.perf.accel import DistanceAccelerator
from repro.perf.landmarks import LandmarkIndex
from tests.conftest import (
    make_grid_network,
    make_random_connected_network,
)
from tests.strategies import clustering_instance

SWEEP = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _identical(a, b):
    """Equal values AND equal dict insertion order (settle order)."""
    assert a == b
    if isinstance(a, dict):
        assert list(a) == list(b)
    if isinstance(a, tuple):
        for x, y in zip(a, b):
            _identical(x, y)


# ----------------------------------------------------------------------
# Freeze semantics: protocol, ordering, staleness
# ----------------------------------------------------------------------
class TestFreeze:
    def test_protocol_and_order(self):
        rng = random.Random(7)
        net = make_random_connected_network(rng, 12, extra_edges=5)
        csr = CSRNetwork.freeze(net)
        assert isinstance(csr, NetworkBackend)
        assert isinstance(net, NetworkBackend)
        # nodes() preserves source iteration order, not sorted-id order.
        assert list(csr.nodes()) == list(net.nodes())
        assert sorted(csr.edges()) == sorted(net.edges())
        assert csr.num_nodes == net.num_nodes
        assert csr.num_edges == net.num_edges
        for node in net.nodes():
            # neighbors() preserves source adjacency order (counter ties).
            assert list(csr.neighbors(node)) == list(net.neighbors(node))
        u, v, w = next(iter(net.edges()))
        assert csr.edge_weight(u, v) == w

    def test_resolve_backend(self):
        net = make_grid_network(3, 3)
        assert resolve_backend(net, None) is net
        assert resolve_backend(net, "dict") is net
        csr = resolve_backend(net, "csr")
        assert isinstance(csr, CSRNetwork)
        # Freezing a frozen view is a no-op, not a double wrap.
        assert CSRNetwork.freeze(csr) is csr
        with pytest.raises(ParameterError):
            resolve_backend(net, "sparse")

    def test_mutation_after_freeze_is_a_typed_error(self):
        net = make_grid_network(3, 3)
        csr = CSRNetwork.freeze(net)
        assert csr.has_node(0)
        net.add_edge(0, 8, 1.5)
        with pytest.raises(StaleBackendError):
            csr.has_node(0)
        with pytest.raises(StaleBackendError):
            single_source(csr, 0)
        # Every traversal shape detects staleness at its first adjacency
        # read, whichever loop (or kernel) serves it.
        shapes = [
            lambda: single_source(csr, 0, targets=(8,)),
            lambda: single_source(csr, 0, cutoff=2.0),
            lambda: single_source_with_paths(csr, 0),
            lambda: multi_source(csr, [(0.0, 0, "a"), (0.0, 8, "b")]),
        ]
        for shape in shapes:
            with pytest.raises(StaleBackendError):
                shape()
        with pytest.raises(StaleBackendError):
            with OpBudget().activate():
                single_source(csr, 0)
        # A search met at its source reads no adjacency, so it answers
        # as any backend does for any node id.
        assert single_source(csr, 0, targets=(0,)) == {0: 0.0}
        # The stale view stays printable for error messages.
        assert "CSRNetwork(" in repr(csr)
        # Re-freezing the mutated source yields a fresh, serving view.
        fresh = CSRNetwork.freeze(net)
        assert fresh.has_edge(0, 8)

    def test_stale_accessors_raise(self):
        """Regression: size/weight/coords accessors skipped the check."""
        net = SpatialNetwork()
        for i in range(3):
            net.add_node(i, x=float(i), y=0.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 2, 1.0)
        csr = CSRNetwork.freeze(net)
        assert csr.total_weight() == 2.0
        assert (csr.num_nodes, csr.num_edges, len(csr)) == (3, 2, 3)
        assert csr.has_coords(0)
        net.add_edge(0, 2, 5.0)
        accessors = [
            lambda: csr.has_coords(0),
            csr.total_weight,
            lambda: csr.num_nodes,
            lambda: csr.num_edges,
            lambda: len(csr),
        ]
        for accessor in accessors:
            with pytest.raises(StaleBackendError):
                accessor()
        assert repr(csr).startswith("CSRNetwork(")
        assert CSRNetwork.freeze(net).total_weight() == 7.0

    def test_unknown_source_matches_dict_timing(self):
        net = make_grid_network(2, 2)
        csr = CSRNetwork.freeze(net)
        # The dict path only raises when it would expand the node ...
        with pytest.raises(NodeNotFoundError):
            single_source(csr, 99)
        # ... so an empty-target query on an unknown source succeeds.
        _identical(single_source(net, 99, targets=()), single_source(csr, 99, targets=()))


# ----------------------------------------------------------------------
# Traversal bit-identity (random + disconnected networks)
# ----------------------------------------------------------------------
class TestTraversalBitIdentity:
    @SWEEP
    @given(inst=clustering_instance())
    def test_single_source(self, inst):
        net, _, seed = inst
        csr = CSRNetwork.freeze(net)
        rng = random.Random(seed)
        nodes = list(net.nodes())
        cutoff = rng.uniform(0.5, 15.0)
        for source in nodes[:4]:
            _identical(single_source(net, source), single_source(csr, source))
            _identical(
                single_source(net, source, cutoff=cutoff),
                single_source(csr, source, cutoff=cutoff),
            )
            targets = rng.sample(nodes, min(3, len(nodes)))
            _identical(
                single_source(net, source, targets=targets),
                single_source(csr, source, targets=targets),
            )

    @SWEEP
    @given(inst=clustering_instance())
    def test_single_source_with_paths(self, inst):
        net, _, _ = inst
        csr = CSRNetwork.freeze(net)
        for source in list(net.nodes())[:3]:
            _identical(
                single_source_with_paths(net, source),
                single_source_with_paths(csr, source),
            )

    @SWEEP
    @given(inst=clustering_instance())
    def test_multi_source(self, inst):
        net, _, seed = inst
        csr = CSRNetwork.freeze(net)
        rng = random.Random(seed)
        nodes = list(net.nodes())
        seeds = [
            (rng.choice((0.0, rng.uniform(0.0, 2.0))), n, f"m{i}")
            for i, n in enumerate(nodes[:3])
        ]
        _identical(multi_source(net, seeds), multi_source(csr, seeds))

    @SWEEP
    @given(inst=clustering_instance())
    def test_node_distance(self, inst):
        net, _, seed = inst
        csr = CSRNetwork.freeze(net)
        rng = random.Random(seed)
        nodes = list(net.nodes())
        for _ in range(4):
            u, v = rng.choice(nodes), rng.choice(nodes)
            try:
                expected = node_distance(net, u, v)
            except UnreachableError:
                with pytest.raises(UnreachableError):
                    node_distance(csr, u, v)
            else:
                assert node_distance(csr, u, v) == expected

    def test_unit_grid_all_ties(self):
        """Every path on the unit grid ties; settle order must still match."""
        net = make_grid_network(6, 6)
        csr = CSRNetwork.freeze(net)
        for source in (0, 7, 35):
            _identical(single_source(net, source), single_source(csr, source))
            _identical(
                single_source_with_paths(net, source),
                single_source_with_paths(csr, source),
            )
        seeds = [(0.0, 0, "a"), (0.0, 35, "b"), (0.5, 14, "c")]
        _identical(multi_source(net, seeds), multi_source(csr, seeds))


# ----------------------------------------------------------------------
# Query layer + accelerator bit-identity (landmarks 0 and 4)
# ----------------------------------------------------------------------
class TestQueryBitIdentity:
    @SWEEP
    @given(inst=clustering_instance())
    def test_queries_and_accelerator(self, inst):
        net, points, seed = inst
        rng = random.Random(seed)
        aug_dict = AugmentedView(net, points)
        aug_csr = AugmentedView(CSRNetwork.freeze(net), points)
        pts = list(points)
        query = pts[rng.randrange(len(pts))]
        eps = rng.uniform(0.5, 20.0)
        k = rng.randrange(1, len(pts) + 1)
        _identical(
            range_query(aug_dict, query, eps), range_query(aug_csr, query, eps)
        )
        _identical(knn_query(aug_dict, query, k), knn_query(aug_csr, query, k))
        for lm in (0, 4):
            oracle = DistanceAccelerator(
                aug_dict, index=LandmarkIndex(aug_dict.network, lm)
            )
            accel = DistanceAccelerator(
                aug_csr, index=LandmarkIndex(aug_csr.network, lm)
            )
            _identical(
                oracle.range_query(query, eps), accel.range_query(query, eps)
            )
            _identical(oracle.knn_query(query, k), accel.knn_query(query, k))


# ----------------------------------------------------------------------
# Algorithms end-to-end via backend="csr"
# ----------------------------------------------------------------------
class TestAlgorithmBitIdentity:
    @SWEEP
    @given(inst=clustering_instance(min_points=3))
    def test_all_five_algorithms(self, inst):
        net, points, seed = inst
        rng = random.Random(seed)
        eps = rng.uniform(1.0, 10.0)
        k = min(2, len(points))
        runs = [
            lambda b: EpsLink(net, points, eps=eps, min_sup=2, backend=b).run(),
            lambda b: NetworkDBSCAN(net, points, eps=eps, min_pts=2, backend=b).run(),
            lambda b: NetworkOPTICS(
                net, points, max_eps=eps, min_pts=2, backend=b
            ).run(),
            lambda b: SingleLink(net, points, delta=eps, backend=b).run(),
            lambda b: NetworkKMedoids(
                net, points, k=k, seed=0, backend=b
            ).run(),
        ]
        for run in runs:
            oracle = run(None)
            csr = run("csr")
            _identical(dict(oracle.assignment), dict(csr.assignment))


# ----------------------------------------------------------------------
# Twin parity: counters, budgets and faults are backend-invariant
# ----------------------------------------------------------------------
class TestTwinParity:
    def _counters(self, fn, *args, **kwargs):
        obs.enable(fresh=True)
        try:
            fn(*args, **kwargs)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        return {k: v for k, v in counters.items() if k.startswith("dijkstra.")}

    def test_counted_twins_match_dict_backend(self):
        rng = random.Random(3)
        net = make_random_connected_network(rng, 20, extra_edges=10)
        csr = CSRNetwork.freeze(net)
        for fn in (single_source, single_source_with_paths):
            assert self._counters(fn, net, 0) == self._counters(fn, csr, 0)
        seeds = [(0.0, 0, "a"), (1.0, 5, "b"), (0.0, 11, "c")]
        assert self._counters(multi_source, net, seeds) == self._counters(
            multi_source, csr, seeds
        )

    def test_with_paths_counters_match_single_source(self):
        """Regression: the paths variant under-reported its work."""
        rng = random.Random(5)
        net = make_random_connected_network(rng, 15, extra_edges=6)
        plain = self._counters(single_source, net, 0)
        paths = self._counters(single_source_with_paths, net, 0)
        for key in (
            "dijkstra.runs",
            "dijkstra.heap_pops",
            "dijkstra.heap_pushes",
            "dijkstra.edges_relaxed",
            "dijkstra.nodes_settled",
        ):
            assert paths[key] == plain[key], key

    def test_with_paths_budget_matches_single_source(self):
        """Regression: the guarded paths twin never charged edge relaxations."""
        rng = random.Random(9)
        net = make_random_connected_network(rng, 12, extra_edges=4)
        counts = self._counters(single_source, net, 0)
        relaxed = counts["dijkstra.edges_relaxed"]
        assert relaxed > 0
        # Exactly enough budget passes; one fewer trips on the last edge —
        # for the paths variant exactly as for the distance-only one.
        for fn in (single_source, single_source_with_paths):
            with OpBudget(max_distance_computations=relaxed).activate():
                fn(net, 0)
            with OpBudget(max_distance_computations=relaxed - 1).activate():
                with pytest.raises(BudgetExceededError):
                    fn(net, 0)

    def test_budget_parity_dict_vs_csr(self):
        rng = random.Random(11)
        net = make_random_connected_network(rng, 14, extra_edges=5)
        csr = CSRNetwork.freeze(net)

        def spent(network):
            budget = OpBudget()
            with budget.activate():
                single_source(network, 0)
            return budget.expansions, budget.distance_computations

        assert spent(net) == spent(csr)


# ----------------------------------------------------------------------
# Determinism regressions: copy()/subnetwork() iteration order
# ----------------------------------------------------------------------
class TestCopyOrderRegression:
    def _scrambled_net(self):
        """Node ids whose insertion order differs from both sorted and
        (for str-keyed dicts pre-3.7 style bugs) hash order."""
        net = SpatialNetwork(name="scrambled")
        order = [5, 2, 9, 0, 7, 3]
        for n in order:
            net.add_node(n, x=float(n), y=0.0)
        for a, b in zip(order, order[1:]):
            net.add_edge(a, b, 1.0 + 0.1 * a)
        return net, order

    def test_copy_preserves_iteration_order(self):
        net, order = self._scrambled_net()
        clone = net.copy()
        assert list(clone.nodes()) == order == list(net.nodes())
        for n in order:
            assert list(clone.neighbors(n)) == list(net.neighbors(n))

    def test_subnetwork_preserves_caller_order(self):
        net, _ = self._scrambled_net()
        wanted = [9, 5, 3, 2]
        sub = net.subnetwork(wanted)
        assert list(sub.nodes()) == wanted

    def test_copy_trajectory_identical(self):
        """A traversal on the copy settles in the original's order."""
        rng = random.Random(13)
        net = make_random_connected_network(rng, 18, extra_edges=7)
        clone = net.copy()
        for source in list(net.nodes())[:3]:
            _identical(single_source(net, source), single_source(clone, source))
        # And the copy freezes to the same CSR trajectory too.
        _identical(
            single_source(CSRNetwork.freeze(net), 0),
            single_source(CSRNetwork.freeze(clone), 0),
        )
