"""Tests for the weighted Union-Find."""

from __future__ import annotations

import random

import pytest
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

    def dissolve(self, items) -> set:
        hit = [b for b in self.blocks if b & set(items)]
        freed = set().union(*hit)
        self.blocks = [b for b in self.blocks if not b & set(items)]
        self.blocks.extend({item} for item in freed)
        return freed

    def drop(self, item):
        self.blocks.remove({item})


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
_OPS = ["add", "union", "union_all", "union_all", "dissolve", "drop"]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2**31),
)
def test_property_dissolve_and_drop_match_naive_partition(n, seed):
    """Random add / union / union_all / dissolve / drop sequences agree
    with a list-of-sets oracle after every step; sets outside a dissolve
    keep their representatives."""
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
        elif op == "dissolve":
            untouched = {
                uf.find(item): item for item in naive.items()
                if not naive.block(item) & set(present)
            }
            freed = uf.dissolve(present)
            assert len(freed) == len(set(freed))
            assert set(freed) == naive.dissolve(present)
            for root, item in untouched.items():
                assert uf.find(item) == root
        elif op == "drop" and present:
            item = present[0]
            if naive.block(item) == {item}:
                uf.drop(item)
                naive.drop(item)
                assert item not in uf
            else:
                with pytest.raises(ValueError):
                    uf.drop(item)
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
