"""Tests for incremental ε-Link maintenance.

Core invariant: after any sequence of insertions and deletions, the
maintained clustering is identical to EpsLink run from scratch on the
current point set.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import event, given, settings, strategies as st

from repro import faults, obs
from repro.core.epslink import EpsLink
from repro.core.incremental import IncrementalEpsLink
from repro.exceptions import ParameterError, PointNotFoundError
from repro.faults import FaultRule, OpBudget
from repro.network.graph import SpatialNetwork

from tests.conftest import make_random_connected_network


@pytest.fixture
def line():
    return SpatialNetwork.from_edge_list([(1, 2, 20.0)])


class TestValidation:
    def test_bad_eps(self, line):
        with pytest.raises(ParameterError):
            IncrementalEpsLink(line, eps=0.0)

    def test_bad_min_sup(self, line):
        with pytest.raises(ParameterError):
            IncrementalEpsLink(line, eps=1.0, min_sup=0)

    def test_remove_missing(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        with pytest.raises(PointNotFoundError):
            live.remove(7)


class TestInsert:
    def test_isolated_inserts(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        live.insert(1, 2, 1.0)
        live.insert(1, 2, 10.0)
        assert live.num_clusters == 2
        assert len(live) == 2

    def test_insert_joins_cluster(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        a = live.insert(1, 2, 1.0)
        b = live.insert(1, 2, 1.8)
        assert live.num_clusters == 1
        assert live.result().cluster_of(a.point_id) == live.result().cluster_of(
            b.point_id
        )

    def test_insert_bridges_two_clusters(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        live.insert(1, 2, 1.0)
        live.insert(1, 2, 3.0)
        assert live.num_clusters == 2
        live.insert(1, 2, 2.0)
        assert live.num_clusters == 1

    def test_labels_preserved(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        p = live.insert(1, 2, 1.0, label=5)
        assert live.points.get(p.point_id).label == 5


class TestRemove:
    def test_remove_bridge_splits(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        live.insert(1, 2, 1.0, point_id=0)
        live.insert(1, 2, 2.0, point_id=1)
        live.insert(1, 2, 3.0, point_id=2)
        assert live.num_clusters == 1
        live.remove(1)
        assert live.num_clusters == 2

    def test_remove_leaf_keeps_cluster(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        live.insert(1, 2, 1.0, point_id=0)
        live.insert(1, 2, 2.0, point_id=1)
        live.insert(1, 2, 3.0, point_id=2)
        live.remove(2)
        assert live.num_clusters == 1
        assert len(live) == 2

    def test_remove_untouched_clusters_stable(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        live.insert(1, 2, 1.0, point_id=0)
        live.insert(1, 2, 1.5, point_id=1)
        live.insert(1, 2, 10.0, point_id=2)
        live.insert(1, 2, 10.5, point_id=3)
        live.remove(0)
        result = live.result()
        assert result.cluster_of(2) == result.cluster_of(3)
        assert result.cluster_of(1) != result.cluster_of(2)

    def test_remove_last_point(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        p = live.insert(1, 2, 1.0)
        live.remove(p.point_id)
        assert len(live) == 0
        assert live.num_clusters == 0


class TestMinSup:
    def test_small_clusters_reported_as_noise(self, line):
        live = IncrementalEpsLink(line, eps=1.0, min_sup=2)
        live.insert(1, 2, 1.0, point_id=0)
        live.insert(1, 2, 1.5, point_id=1)
        live.insert(1, 2, 10.0, point_id=2)
        result = live.result()
        assert result.outliers() == [2]
        assert result.num_clusters == 1


class TestReweigh:
    def test_reweigh_rescales_offsets_and_relinks(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        live.insert(1, 2, 4.0, point_id=0)
        live.insert(1, 2, 8.0, point_id=1)
        assert live.num_clusters == 2
        # Shrinking the edge to a quarter pulls the points within eps.
        live.reweigh(1, 2, 5.0)
        assert live.points.get(0).offset == pytest.approx(1.0)
        assert live.points.get(1).offset == pytest.approx(2.0)
        assert live.num_clusters == 1

    def test_reweigh_splits_cluster(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        live.insert(1, 2, 4.0, point_id=0)
        live.insert(1, 2, 4.5, point_id=1)
        assert live.num_clusters == 1
        live.reweigh(1, 2, 80.0)
        assert live.num_clusters == 2

    def test_reweigh_invalid_weight(self, line):
        from repro.exceptions import InvalidWeightError

        live = IncrementalEpsLink(line, eps=1.0)
        with pytest.raises(InvalidWeightError):
            live.reweigh(1, 2, 0.0)

    def test_reweigh_matches_scratch(self, line):
        live = IncrementalEpsLink(line, eps=1.0)
        for off in (1.0, 2.5, 9.0, 15.0):
            live.insert(1, 2, off)
        live.reweigh(1, 2, 7.0)
        scratch = EpsLink(line, live.points, eps=1.0).run()
        assert live.result().same_clustering(scratch)


@pytest.fixture
def far_apart():
    """Clusters on a path 1 -(20)- 2 -(5)- 3 -(20)- 4 with ε = 1.5.

    A = {0, 1, 2} mid-edge 1-2 (1 is its bridge); C = {11, 5, 4} runs up
    to node 2, only 4 and 5 within ε of it; D = {6, 7} starts at node 3;
    B = {8, 9, 10} sits far along 3-4, farther than ε from every node.
    """
    net = SpatialNetwork.from_edge_list(
        [(1, 2, 20.0), (2, 3, 5.0), (3, 4, 20.0)]
    )
    live = IncrementalEpsLink(net, eps=1.5)
    for pid, u, v, off in [
        (0, 1, 2, 1.0), (1, 1, 2, 2.0), (2, 1, 2, 3.0),
        (4, 1, 2, 19.5), (5, 1, 2, 18.5), (11, 1, 2, 17.2),
        (6, 3, 4, 0.5), (7, 3, 4, 1.5),
        (8, 3, 4, 15.0), (9, 3, 4, 16.0), (10, 3, 4, 17.0),
    ]:
        live.insert(u, v, off, point_id=pid)
    assert live.num_clusters == 4
    return live


class TestComponentLocal:
    """Remove and reweigh touch only the affected components."""

    def _b_roots(self, live):
        return [live._uf.find(pid) for pid in (8, 9, 10)]

    def test_remove_keeps_other_representatives(self, far_apart):
        live = far_apart
        uf, before = live._uf, self._b_roots(live)
        live.remove(1)
        assert live._uf is uf
        assert self._b_roots(live) == before
        assert live.last_affected == {0, 1, 2}
        assert live.num_clusters == 5  # A split in two

    def test_reweigh_keeps_other_representatives(self, far_apart):
        live = far_apart
        uf, before = live._uf, self._b_roots(live)
        live.reweigh(1, 2, 30.0)
        assert live._uf is uf
        assert self._b_roots(live) == before
        # A and C sit on the edge; D is 5.5 from node 2, beyond ε.
        assert live.last_affected == {0, 1, 2, 4, 5, 11}

    def test_reweigh_affects_whole_components(self, far_apart):
        live = far_apart
        # No object on 2-3; 4, 5 (C) and 6, 7 (D) lie within ε of its
        # endpoints, so C and D are re-linked whole — 11 included, though
        # it is farther than ε from the edge.
        live.reweigh(2, 3, 0.4)
        assert live.last_affected == {4, 5, 11, 6, 7}
        result = live.result()
        assert result.cluster_of(11) == result.cluster_of(7)  # bridged
        assert live.num_clusters == 3

    def test_remove_singleton_affects_only_itself(self, far_apart):
        live = far_apart
        live.insert(1, 2, 10.0, point_id=12)
        live.remove(12)
        assert live.last_affected == {12}
        assert live.num_clusters == 4


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)),
        min_size=1,
        max_size=30,
    ),
)
def test_property_matches_scratch_after_any_update_sequence(seed, ops):
    """The maintained clustering always equals EpsLink from scratch."""
    rng = random.Random(seed)
    net = make_random_connected_network(rng, rng.randint(3, 12), extra_edges=6)
    edges = list(net.edges())
    eps = rng.uniform(0.5, 8.0)
    live = IncrementalEpsLink(net, eps=eps)
    for is_insert, op_seed in ops:
        op_rng = random.Random(op_seed)
        if is_insert or len(live) == 0:
            u, v, w = edges[op_rng.randrange(len(edges))]
            live.insert(u, v, op_rng.uniform(0.0, w))
        else:
            victim = op_rng.choice(sorted(live.points.point_ids()))
            live.remove(victim)
        if len(live) == 0:
            continue
        scratch = EpsLink(net, live.points, eps=eps).run()
        assert live.result().same_clustering(scratch), (
            f"seed={seed} after op ({is_insert}, {op_seed})"
        )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_property_matches_scratch_with_reweighs(seed, ops):
    """Insert/remove/reweigh in any order still equals EpsLink from scratch.

    Half the generated networks carry a disconnected side component, so
    the sweep also covers clusters split across components, bridge-point
    removals, and reweighs of edges no point sits on.
    """
    rng = random.Random(seed)
    net = make_random_connected_network(rng, rng.randint(3, 12), extra_edges=6)
    if rng.random() < 0.5:
        # A disconnected island: two nodes joined only to each other.
        base = max(net.nodes()) + 1
        net.add_node(base, x=-50.0, y=-50.0)
        net.add_node(base + 1, x=-60.0, y=-50.0)
        net.add_edge(base, base + 1, rng.uniform(0.1, 10.0))
    eps = rng.uniform(0.5, 8.0)
    live = IncrementalEpsLink(net, eps=eps)
    for op, op_seed in ops:
        op_rng = random.Random(op_seed)
        edges = [(u, v) for u, v, _w in net.edges()]
        u, v = edges[op_rng.randrange(len(edges))]
        if op == 2:
            live.reweigh(u, v, op_rng.uniform(0.2, 12.0))
        elif op == 1 and len(live) > 0:
            live.remove(op_rng.choice(sorted(live.points.point_ids())))
        else:
            live.insert(u, v, op_rng.uniform(0.0, net.edge_weight(u, v)))
        if len(live) == 0:
            continue
        scratch = EpsLink(net, live.points, eps=eps).run()
        assert live.result().same_clustering(scratch), (
            f"seed={seed} after op ({op}, {op_seed})"
        )


# ----------------------------------------------------------------------
# Decremental maintenance: the split check's cost is local
# ----------------------------------------------------------------------
def _chain(n: int, eps: float, spacing: float = 0.5) -> IncrementalEpsLink:
    """``n`` objects ``spacing`` apart along one edge: one chain cluster."""
    net = SpatialNetwork.from_edge_list([(1, 2, spacing * (n + 1))])
    live = IncrementalEpsLink(net, eps=eps)
    for i in range(n):
        live.insert(1, 2, spacing * (i + 1), point_id=i)
    assert live.num_clusters == 1
    return live


def _counted_remove(live: IncrementalEpsLink, point_id: int) -> dict:
    """Remove ``point_id``; returns the obs counters it moved."""
    obs.enable(fresh=True)
    try:
        live.remove(point_id)
        return obs.snapshot()["counters"]
    finally:
        obs.disable()


def _split(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if k.startswith("live.split.")}


class TestSplitCheckLocality:
    """Hardware-independent settle counts of the split check."""

    def test_non_bridge_remove_cost_independent_of_cluster_size(self):
        # eps = 1.2 links each object to two on either side: removing
        # one leaves its neighbours 1.0 apart, still linked.
        small, large = _chain(50, eps=1.2), _chain(500, eps=1.2)
        counts_small = _split(_counted_remove(small, 25))
        counts_large = _split(_counted_remove(large, 250))
        assert counts_small == counts_large
        assert counts_small["live.split.checks"] == 1
        assert counts_small["live.split.pieces"] == 0
        assert 0 < counts_small["live.split.settled"] <= 10
        assert small.num_clusters == large.num_clusters == 1
        assert small.last_affected == {25}
        assert large.last_affected == {250}

    @pytest.mark.parametrize("short", [3, 10, 20])
    def test_bridge_remove_costs_the_short_side(self, short):
        # eps = 0.6 links only adjacent objects: every inner one is a
        # bridge.  Removing object `short` cuts off objects 0..short-1.
        counts = {}
        for n in (50, 500):
            live = _chain(n, eps=0.6)
            counts[n] = _split(_counted_remove(live, short))
            assert live.num_clusters == 2
            assert sorted(live._uf.set_size(pid) for pid in (0, n - 1)) == [
                short, n - short - 1,
            ]
            assert live.last_affected == set(range(n))
        assert counts[50] == counts[500]
        assert counts[50]["live.split.pieces"] == 1
        # Both expansions settle the short side's objects (and its end
        # node) in lockstep, then the short one is exhausted.
        settled = counts[50]["live.split.settled"]
        assert 2 * short <= settled <= 2 * (short + 2)

    def test_leaf_remove_runs_no_search(self):
        live = _chain(20, eps=0.6)
        counters = _counted_remove(live, 19)  # one ε-neighbour: no check
        assert _split(counters) == {}
        assert live.num_clusters == 1
        assert live.last_affected == {19}


@pytest.fixture
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.mark.usefixtures("_clean_faults")
def test_remove_charges_the_epslink_expand_budget():
    """Every split-check settle hits the ``epslink.expand`` site and
    charges the active budget, beside the seed search's settles."""
    live = _chain(40, eps=0.6)
    budget = OpBudget()
    with faults.plan(FaultRule("no.such.site", "crash", after=10**9)):
        with budget.activate():
            counters = _counted_remove(live, 10)
        hits = faults.hits("epslink.expand")
    settled = counters["live.split.settled"]
    assert hits == settled > 0
    assert budget.expansions == settled + counters["queries.vertices_settled"]
    assert live.num_clusters == 2


@pytest.mark.usefixtures("_clean_faults")
def test_split_check_fault_site_fires():
    live = _chain(40, eps=0.6)
    with faults.plan(FaultRule("epslink.expand", "error", after=1)):
        with pytest.raises(faults.InjectedIOError):
            live.remove(10)


def _roots(live: IncrementalEpsLink) -> dict[int, int]:
    return {pid: live._uf.find(pid) for pid in live.points.point_ids()}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "heavier", "lighter"]),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_property_dense_splits_match_scratch(seed, ops):
    """Many objects per edge, so removes and heavier edges split clusters
    (and often do not), lighter edges merge them.  After every update
    the maintained clustering equals EpsLink from scratch, and every
    cluster the update did not affect keeps its representative."""
    rng = random.Random(seed)
    net = make_random_connected_network(rng, rng.randint(2, 6), extra_edges=3)
    edges = [(u, v) for u, v, _w in net.edges()]
    per_edge = rng.randint(4, 12)
    eps = net.total_weight() / (per_edge * len(edges)) * rng.uniform(0.6, 2.0)
    live = IncrementalEpsLink(net, eps=eps)
    for u, v in edges:
        for _ in range(per_edge):
            live.insert(u, v, rng.uniform(0.0, net.edge_weight(u, v)))
    for op, op_seed in ops:
        op_rng = random.Random(op_seed)
        before = _roots(live)
        clusters = live.num_clusters
        u, v = edges[op_rng.randrange(len(edges))]
        if op == "remove" and len(live) > 0:
            live.remove(op_rng.choice(sorted(live.points.point_ids())))
            change = live.num_clusters - clusters
            event("remove splits" if change > 0 else
                  "remove keeps the cluster whole" if change == 0 else
                  "remove drops a singleton")
        elif op in ("heavier", "lighter"):
            scale = (op_rng.uniform(1.05, 3.0) if op == "heavier"
                     else op_rng.uniform(0.3, 0.95))
            live.reweigh(u, v, net.edge_weight(u, v) * scale)
            change = live.num_clusters - clusters
            event(f"{op} edge: clusters "
                  + ("up" if change > 0 else "down" if change < 0 else "same"))
        else:
            live.insert(u, v, op_rng.uniform(0.0, net.edge_weight(u, v)))
        if len(live) == 0:
            continue
        scratch = EpsLink(net, live.points, eps=eps).run()
        assert live.result().same_clustering(scratch), (
            f"seed={seed} after op ({op}, {op_seed})"
        )
        touched = {before[pid] for pid in live.last_affected if pid in before}
        for pid, root in before.items():
            if root not in touched:
                assert live._uf.find(pid) == root
