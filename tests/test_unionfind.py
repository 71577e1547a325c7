"""Tests for the weighted Union-Find."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.unionfind import UnionFind


class TestBasics:
    def test_initial_singletons(self):
        uf = UnionFind([1, 2, 3])
        assert uf.num_sets == 3
        assert len(uf) == 3
        assert all(uf.find(i) == i for i in (1, 2, 3))

    def test_union_and_connected(self):
        uf = UnionFind([1, 2, 3])
        assert uf.union(1, 2)
        assert uf.connected(1, 2)
        assert not uf.connected(1, 3)
        assert uf.num_sets == 2

    def test_union_idempotent(self):
        uf = UnionFind([1, 2])
        assert uf.union(1, 2)
        assert not uf.union(1, 2)
        assert uf.num_sets == 1

    def test_add_existing_is_noop(self):
        uf = UnionFind([1])
        uf.add(1)
        assert uf.num_sets == 1

    def test_contains(self):
        uf = UnionFind([1])
        assert 1 in uf
        assert 2 not in uf

    def test_set_size(self):
        uf = UnionFind([1, 2, 3, 4])
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.set_size(1) == 3
        assert uf.set_size(4) == 1

    def test_sets_view(self):
        uf = UnionFind([1, 2, 3, 4])
        uf.union(1, 3)
        sets = uf.sets()
        assert sorted(sorted(m) for m in sets.values()) == [[1, 3], [2], [4]]

    def test_works_with_hashable_items(self):
        uf = UnionFind(["a", (1, 2)])
        uf.union("a", (1, 2))
        assert uf.connected("a", (1, 2))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=2**31),
)
def test_property_matches_naive_partition(n, seed):
    """Union-Find agrees with a naive set-merging implementation."""
    rng = random.Random(seed)
    uf = UnionFind(range(n))
    naive = {i: {i} for i in range(n)}
    for _ in range(n * 2):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        uf.union(a, b)
        sa, sb = naive[a], naive[b]
        if sa is not sb:
            sa |= sb
            for item in sb:
                naive[item] = sa
    for i in range(n):
        for j in range(n):
            assert uf.connected(i, j) == (j in naive[i])
        assert uf.set_size(i) == len(naive[i])
    assert uf.num_sets == len({id(s) for s in naive.values()})


class NaivePartition:
    """List-of-sets oracle for the union-find's observable behaviour."""

    def __init__(self):
        self.blocks: list[set] = []

    def block(self, item) -> set:
        return next(b for b in self.blocks if item in b)

    def items(self) -> set:
        return set().union(*self.blocks)

    def add(self, item):
        if item not in self.items():
            self.blocks.append({item})

    def union(self, items):
        hit = [b for b in self.blocks if b & set(items)]
        self.blocks = [b for b in self.blocks if not b & set(items)]
        self.blocks.append(set().union(*hit))

    def detach(self, item):
        block = self.block(item)
        block.discard(item)
        if not block:
            self.blocks.remove(block)

    def split_off(self, pieces):
        block = self.block(pieces[0][0])
        for piece in pieces:
            block -= set(piece)
            self.blocks.append(set(piece))
        if not block:
            self.blocks.remove(block)


def _assert_matches(uf: UnionFind, naive: NaivePartition) -> None:
    items = naive.items()
    assert len(uf) == len(items)
    assert uf.num_sets == len(naive.blocks)
    for item in items:
        assert item in uf
        block = naive.block(item)
        assert uf.set_size(item) == len(block)
        assert uf.find(item) in block
        assert uf.find(item) == uf.find(min(block))
    for a in items:
        for b in items:
            assert uf.connected(a, b) == (b in naive.block(a))
    # Member lists: one per multi-member set, at its root; none for
    # singletons.
    assert {root: sorted(m) for root, m in uf._members.items()} == {
        uf.find(min(b)): sorted(b) for b in naive.blocks if len(b) > 1
    }
    sets = uf.sets()
    assert {root: tuple(m) for root, m in sets.items()} == {
        uf.find(min(b)): tuple(sorted(b)) for b in naive.blocks
    }


# union_all twice: merges of two multi-member sets must come up often.
_OPS = ["add", "union", "union_all", "union_all", "detach", "split_off"]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2**31),
)
def test_property_operations_match_naive_partition(n, seed):
    """Random add / union / union_all / detach / split_off sequences agree
    with a list-of-sets oracle after every step; sets a detach or
    split_off does not touch keep their representatives."""
    rng = random.Random(seed)
    uf = UnionFind(range(n))
    naive = NaivePartition()
    for item in range(n):
        naive.add(item)
    _assert_matches(uf, naive)
    for _ in range(40):
        op = rng.choice(_OPS)
        args = [rng.randrange(n + 3) for _ in range(rng.randint(1, 4))]
        present = [a for a in args if a in uf]
        if op == "add":
            for item in args:
                uf.add(item)
                naive.add(item)
        elif op == "union" and len(present) >= 2:
            merged = not uf.connected(present[0], present[1])
            assert uf.union(present[0], present[1]) == merged
            naive.union(present[:2])
        elif op == "union_all" and present:
            merged = len({uf.find(a) for a in present}) > 1
            assert uf.union_all(present) == merged
            naive.union(present)
        elif op in ("detach", "split_off") and present:
            block = naive.block(present[0])
            untouched = {
                uf.find(item): item for item in naive.items()
                if item not in block
            }
            if op == "detach":
                uf.detach(present[0])
                naive.detach(present[0])
                assert present[0] not in uf
            else:
                members = sorted(block)
                rng.shuffle(members)
                cuts = sorted(rng.sample(range(1, len(members) + 1),
                                         rng.randint(1, len(members))))
                pieces = [members[a:b] for a, b in zip([0] + cuts, cuts)]
                if rng.random() < 0.5:
                    pieces.pop()  # leave a rest behind
                if pieces:
                    uf.split_off(pieces)
                    naive.split_off(pieces)
            for root, item in untouched.items():
                assert uf.find(item) == root
        _assert_matches(uf, naive)


def test_from_parents_keeps_representatives():
    uf = UnionFind(range(6))
    uf.union(0, 1)
    uf.union(2, 1)
    uf.union(4, 5)
    copy = UnionFind.from_parents(uf._parent)
    assert copy.sets() == uf.sets()
    assert copy.num_sets == uf.num_sets
    assert all(copy.set_size(i) == uf.set_size(i) for i in range(6))
    copy.union(3, 0)
    assert copy.find(3) == uf.find(0)


# ----------------------------------------------------------------------
# detach / split_off
# ----------------------------------------------------------------------
def _layered() -> UnionFind:
    """{0..7} as one set with a three-level tree: 3 -> 2 -> 0,
    5 -> 4 -> 0 and 7 -> 6; path compression has pointed 6 straight at
    0, so 7 hangs off a node that no longer sits under 4."""
    uf = UnionFind(range(10))
    uf.union(0, 1)
    uf.union(2, 3)
    uf.union(0, 2)
    uf.union(4, 5)
    uf.union(6, 7)
    uf.union(4, 6)
    uf.union(0, 4)
    uf.union(8, 9)
    assert uf.find(6) == 0
    assert uf._parent[3] == 2 and uf._parent[5] == 4 and uf._parent[7] == 6
    return uf


def _rebuilt(groups) -> UnionFind:
    uf = UnionFind(item for group in groups for item in group)
    for group in groups:
        uf.union_all(group)
    return uf


def _assert_same_partition(uf: UnionFind, fresh: UnionFind) -> None:
    def blocks(u):
        return sorted(sorted(m) for m in u.sets().values())

    assert blocks(uf) == blocks(fresh)
    assert uf.num_sets == fresh.num_sets
    assert len(uf) == len(fresh)
    assert sorted(sorted(m) for m in uf._members.values()) == sorted(
        sorted(m) for m in fresh._members.values()
    )
    for root, members in uf._members.items():
        assert all(uf.find(m) == root for m in members)


class TestDetach:
    def test_detach_root(self):
        uf = _layered()
        other = uf.find(9)
        uf.detach(0)
        assert 0 not in uf
        _assert_same_partition(uf, _rebuilt([[1, 2, 3, 4, 5, 6, 7], [8, 9]]))
        assert uf.find(9) == other

    def test_detach_interior_node_with_children(self):
        uf = _layered()
        uf.detach(4)  # 5 still points at it
        assert 4 not in uf
        _assert_same_partition(uf, _rebuilt([[0, 1, 2, 3, 5, 6, 7], [8, 9]]))
        assert uf.find(5) == uf.find(7) == 0  # representative kept

    def test_detach_path_compressed_node_with_children(self):
        uf = _layered()
        uf.detach(6)  # compressed to point at 0; 7 points at it
        assert 6 not in uf
        _assert_same_partition(uf, _rebuilt([[0, 1, 2, 3, 4, 5, 7], [8, 9]]))
        assert uf.find(7) == 0

    def test_detach_singleton_and_pair(self):
        uf = UnionFind([1, 2, 3])
        uf.union(1, 2)
        uf.detach(3)
        assert uf.num_sets == 1 and 3 not in uf
        uf.detach(uf.find(1))
        assert uf.num_sets == 1 and len(uf) == 1
        assert uf._members == {}

    def test_detached_item_can_return(self):
        uf = _layered()
        uf.detach(2)
        uf.add(2)
        assert uf.num_sets == 3
        assert not uf.connected(2, 3)


class TestSplitOff:
    def test_pieces_leave_rest_keeps_representative(self):
        uf = _layered()
        other = uf.find(8)
        uf.split_off([[3, 2], [5]])
        _assert_same_partition(
            uf, _rebuilt([[0, 1, 4, 6, 7], [2, 3], [5], [8, 9]])
        )
        assert uf.find(7) == 0
        assert uf.find(3) == 3  # a piece's first item represents it
        assert uf.find(8) == other

    def test_piece_holding_the_root(self):
        uf = _layered()
        uf.split_off([[1, 0]])
        _assert_same_partition(
            uf, _rebuilt([[0, 1], [2, 3, 4, 5, 6, 7], [8, 9]])
        )
        assert uf.find(0) == 1

    def test_pieces_covering_the_whole_set(self):
        uf = _layered()
        uf.split_off([[0, 1, 2, 3], [4, 5, 6, 7]])
        _assert_same_partition(
            uf, _rebuilt([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]])
        )

    def test_no_pieces_is_a_no_op(self):
        uf = _layered()
        before = dict(uf._parent)
        uf.split_off([])
        assert uf._parent == before and uf.num_sets == 2
