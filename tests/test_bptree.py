"""Tests for the disk-based B+-tree."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import PageCorruptError
from repro.storage.bptree import BPlusTree
from repro.storage.pager import BufferManager, PagedFile


@pytest.fixture
def tree(tmp_path):
    f = PagedFile(tmp_path / "tree.db", page_size=512)
    buf = BufferManager(f, capacity_bytes=512 * 16)
    yield BPlusTree(buf)
    buf.close()


class TestBasicOperations:
    def test_empty_tree(self, tree):
        assert tree.search(1) is None
        assert list(tree.items()) == []
        assert len(tree) == 0
        assert tree.height() == 1

    def test_insert_and_search(self, tree):
        tree.insert(5, 500)
        tree.insert(1, 100)
        tree.insert(9, 900)
        assert tree.search(5) == 500
        assert tree.search(1) == 100
        assert tree.search(9) == 900
        assert tree.search(7) is None
        assert 5 in tree
        assert 7 not in tree

    def test_replace_value(self, tree):
        tree.insert(5, 500)
        tree.insert(5, 555)
        assert tree.search(5) == 555
        assert len(tree) == 1

    def test_negative_keys_and_values(self, tree):
        tree.insert(-10, -1)
        tree.insert(10, 1)
        assert tree.search(-10) == -1
        assert [k for k, _ in tree.items()] == [-10, 10]

    def test_sorted_iteration(self, tree):
        keys = [9, 3, 7, 1, 5]
        for k in keys:
            tree.insert(k, k * 10)
        assert [k for k, _ in tree.items()] == sorted(keys)


class TestSplitsAndHeight:
    def test_many_inserts_force_splits(self, tree):
        n = 500  # 512-byte pages hold ~31 entries: guarantees splits
        for k in range(n):
            tree.insert(k, k)
        assert tree.height() > 1
        assert len(tree) == n
        for k in range(n):
            assert tree.search(k) == k
        tree.check_invariants()

    def test_random_insert_order(self, tree):
        rng = random.Random(1)
        keys = list(range(400))
        rng.shuffle(keys)
        for k in keys:
            tree.insert(k, k * 2)
        assert [k for k, _ in tree.items()] == sorted(keys)
        tree.check_invariants()


class TestRange:
    @pytest.fixture
    def filled(self, tree):
        for k in range(0, 200, 2):  # even keys only
            tree.insert(k, k)
        return tree

    def test_range_inclusive(self, filled):
        got = [k for k, _ in filled.range(10, 20)]
        assert got == [10, 12, 14, 16, 18, 20]

    def test_range_unaligned_bounds(self, filled):
        got = [k for k, _ in filled.range(9, 15)]
        assert got == [10, 12, 14]

    def test_range_empty(self, filled):
        assert list(filled.range(301, 400)) == []

    def test_range_everything(self, filled):
        assert len(list(filled.range(-1000, 1000))) == 100


class TestFloor:
    @pytest.fixture
    def filled(self, tree):
        for k in (10, 20, 30, 400, 500):
            tree.insert(k, k * 10)
        return tree

    def test_exact_hit(self, filled):
        assert filled.floor(30) == (30, 300)

    def test_between_keys(self, filled):
        assert filled.floor(35) == (30, 300)
        assert filled.floor(499) == (400, 4000)

    def test_below_minimum(self, filled):
        assert filled.floor(5) is None

    def test_above_maximum(self, filled):
        assert filled.floor(10_000) == (500, 5000)

    def test_floor_in_large_tree(self, tree):
        for k in range(0, 3000, 10):
            tree.insert(k, k)
        assert tree.floor(1234) == (1230, 1230)
        assert tree.floor(0) == (0, 0)
        assert tree.floor(-1) is None


class TestDelete:
    def test_delete_present(self, tree):
        tree.insert(1, 10)
        tree.insert(2, 20)
        assert tree.delete(1)
        assert tree.search(1) is None
        assert tree.search(2) == 20
        assert len(tree) == 1

    def test_delete_absent(self, tree):
        tree.insert(1, 10)
        assert not tree.delete(99)
        assert len(tree) == 1

    def test_delete_many_then_iterate(self, tree):
        for k in range(300):
            tree.insert(k, k)
        for k in range(0, 300, 3):
            assert tree.delete(k)
        remaining = [k for k, _ in tree.items()]
        assert remaining == [k for k in range(300) if k % 3 != 0]
        for k in range(300):
            want = None if k % 3 == 0 else k
            assert tree.search(k) == want


class TestBulkLoad:
    def _fresh_buffer(self, tmp_path, name="bulk.db"):
        f = PagedFile(tmp_path / name, page_size=512)
        return BufferManager(f, capacity_bytes=512 * 16)

    def test_empty(self, tmp_path):
        buf = self._fresh_buffer(tmp_path)
        tree = BPlusTree.bulk_load(buf, [])
        assert len(tree) == 0
        buf.close()

    def test_matches_insert_built_tree(self, tmp_path):
        items = [(k, k * 3) for k in range(0, 1000, 2)]
        buf = self._fresh_buffer(tmp_path)
        bulk = BPlusTree.bulk_load(buf, items)
        assert list(bulk.items()) == items
        assert len(bulk) == len(items)
        for k, v in items[::37]:
            assert bulk.search(k) == v
        assert bulk.search(1) is None
        bulk.check_invariants()
        buf.close()

    def test_fewer_writes_than_repeated_insert(self, tmp_path):
        items = [(k, k) for k in range(600)]
        buf_bulk = self._fresh_buffer(tmp_path, "b1.db")
        BPlusTree.bulk_load(buf_bulk, items)
        buf_bulk.flush()
        bulk_writes = buf_bulk.file.writes
        buf_bulk.close()
        buf_ins = self._fresh_buffer(tmp_path, "b2.db")
        tree = BPlusTree(buf_ins)
        for k, v in items:
            tree.insert(k, v)
        buf_ins.flush()
        # With a small buffer, inserts rewrite pages repeatedly; bulk load
        # writes each page roughly once.
        assert bulk_writes <= buf_ins.file.writes
        buf_ins.close()

    def test_supports_inserts_after_bulk_load(self, tmp_path):
        buf = self._fresh_buffer(tmp_path)
        tree = BPlusTree.bulk_load(buf, [(k, k) for k in range(0, 100, 2)])
        tree.insert(51, 510)
        assert tree.search(51) == 510
        assert [k for k, _ in tree.range(50, 52)] == [50, 51, 52]
        tree.check_invariants()
        buf.close()

    def test_single_item(self, tmp_path):
        buf = self._fresh_buffer(tmp_path)
        tree = BPlusTree.bulk_load(buf, [(7, 70)])
        assert tree.search(7) == 70
        assert tree.height() == 1
        buf.close()

    def test_unsorted_rejected(self, tmp_path):
        from repro.exceptions import TreeError

        buf = self._fresh_buffer(tmp_path)
        with pytest.raises(TreeError):
            BPlusTree.bulk_load(buf, [(2, 0), (1, 0)])
        with pytest.raises(TreeError):
            BPlusTree.bulk_load(buf, [(1, 0), (1, 1)])
        with pytest.raises(TreeError):
            BPlusTree.bulk_load(buf, [(1, 0)], fill_factor=0.0)
        buf.close()

    def test_floor_and_range_on_bulk_tree(self, tmp_path):
        buf = self._fresh_buffer(tmp_path)
        tree = BPlusTree.bulk_load(buf, [(k, k) for k in range(0, 2000, 10)])
        assert tree.floor(1234) == (1230, 1230)
        assert [k for k, _ in tree.range(95, 125)] == [100, 110, 120]
        buf.close()


class TestPersistence:
    def test_reopen_by_root_pid(self, tmp_path):
        path = tmp_path / "persist.db"
        f = PagedFile(path, page_size=512)
        buf = BufferManager(f)
        tree = BPlusTree(buf)
        for k in range(200):
            tree.insert(k, k * 7)
        root = tree.root_pid
        buf.close()

        f2 = PagedFile(path)
        buf2 = BufferManager(f2)
        tree2 = BPlusTree(buf2, root_pid=root)
        assert len(tree2) == 200
        for k in range(200):
            assert tree2.search(k) == k * 7
        tree2.insert(999, 1)
        assert tree2.search(999) == 1
        buf2.close()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=-10_000, max_value=10_000), st.integers()),
        min_size=0,
        max_size=300,
    ),
    st.lists(st.integers(min_value=-10_000, max_value=10_000), max_size=60),
)
def test_property_matches_dict(tmp_path_factory, inserts, deletes):
    """Invariant 8: the tree behaves like a sorted dict under arbitrary
    insert/delete interleavings."""
    path = tmp_path_factory.mktemp("bpt") / "prop.db"
    f = PagedFile(path, page_size=512)
    buf = BufferManager(f, capacity_bytes=512 * 8)
    tree = BPlusTree(buf)
    reference: dict[int, int] = {}
    ops = [("ins", k, v) for k, v in inserts] + [("del", k, 0) for k in deletes]
    random.Random(42).shuffle(ops)
    for op, k, v in ops:
        if op == "ins":
            tree.insert(k, v % (1 << 31))
            reference[k] = v % (1 << 31)
        else:
            assert tree.delete(k) == (k in reference)
            reference.pop(k, None)
    assert list(tree.items()) == sorted(reference.items())
    for k in list(reference)[:50]:
        assert tree.search(k) == reference[k]
    tree.check_invariants()
    buf.close()


def _reads(buf: BufferManager) -> int:
    """Logical buffer reads so far: hits plus misses."""
    return buf.hits + buf.misses


def _leaf_chain(tree: BPlusTree) -> list[tuple[int, ...]]:
    """The keys of every leaf, left to right."""
    chain = []
    pid = tree._leftmost_leaf()
    while pid:
        _, keys, _, pid = tree._load(pid)
        chain.append(keys)
    return chain


class TestLogicalReadAccounting:
    """Every node visit is exactly one buffer read, memo or not.

    A decode memo that skipped ``buffer.read`` on a resident node would
    under-count the page accesses the storage experiments measure.
    """

    @staticmethod
    def _floor_cost(tree: BPlusTree, key: int, height: int) -> int:
        # The descent reads one node per level.  When the probe's leaf
        # holds no key <= probe, floor() scans from the left: another
        # descent, then leaves up to the first one holding a key > probe.
        _, keys, _, _ = tree._find_leaf(key)
        if keys and keys[0] <= key:
            return height
        scanned = 0
        for keys in _leaf_chain(tree):
            scanned += 1
            if keys and keys[-1] > key:
                break
        return 2 * height + scanned

    @pytest.mark.parametrize("pages", [1, 2, 4])
    def test_interleaved_ops_against_oracle(self, tmp_path, pages):
        f = PagedFile(tmp_path / "acct.db", page_size=512)
        buf = BufferManager(f, capacity_bytes=512 * pages)
        tree = BPlusTree(buf)
        rng = random.Random(7 + pages)
        oracle: dict[int, int] = {}
        ops = ["insert"] * 5 + ["delete", "search", "in", "floor", "range"]
        heights = set()
        for step in range(2500):
            op = "items" if step % 250 == 249 else rng.choice(ops)
            key = rng.randrange(-100, 1500)
            height = tree.height()
            heights.add(height)
            before = _reads(buf)
            if op == "insert":
                tree.insert(key, step)
                oracle[key] = step
            elif op == "delete":
                assert tree.delete(key) == (key in oracle)
                oracle.pop(key, None)
            elif op == "search":
                assert tree.search(key) == oracle.get(key)
                assert _reads(buf) - before == height
            elif op == "in":
                assert (key in tree) == (key in oracle)
                assert _reads(buf) - before == height
            elif op == "floor":
                expected_cost = self._floor_cost(tree, key, height)
                before = _reads(buf)
                below = [k for k in oracle if k <= key]
                expected = (max(below), oracle[max(below)]) if below else None
                assert tree.floor(key) == expected
                assert _reads(buf) - before == expected_cost
            elif op == "range":
                hi = key + rng.randrange(0, 200)
                assert list(tree.range(key, hi)) == sorted(
                    (k, v) for k, v in oracle.items() if key <= k <= hi
                )
            else:
                leaves = len(_leaf_chain(tree))
                before = _reads(buf)
                assert list(tree.items()) == sorted(oracle.items())
                # The leftmost descent reads the first leaf, then the
                # chain scan reads every leaf (the first one again).
                assert _reads(buf) - before == height + leaves
        assert heights >= {1, 2, 3}
        tree.check_invariants()
        buf.close()


class TestDecodeMemo:
    """Decoded nodes are shared with the buffer but never stale."""

    def test_same_leaf_insert_and_delete_are_seen(self, tree):
        for k in (10, 20, 30):
            tree.insert(k, k)
        assert tree.search(20) == 20  # the root leaf's decode is now cached
        tree.insert(25, 250)
        assert tree.search(25) == 250
        assert tree.floor(27) == (25, 250)
        assert tree.delete(20)
        assert tree.search(20) is None
        assert tree.floor(24) == (10, 10)
        assert list(tree.items()) == [(10, 10), (25, 250), (30, 30)]
        assert list(tree.range(0, 100)) == [(10, 10), (25, 250), (30, 30)]

    def test_returned_results_do_not_alias_the_memo(self, tree):
        for k in range(40):
            tree.insert(k, k)
        items = list(tree.items())
        items.clear()
        scanned = list(tree.range(5, 9))
        scanned[0] = (5, -1)
        assert tree.floor(5) == (5, 5)
        assert list(tree.range(5, 9)) == [(k, k) for k in range(5, 10)]
        assert list(tree.items()) == [(k, k) for k in range(40)]

    def test_corrupt_page_is_not_answered_from_the_memo(self, tmp_path):
        f = PagedFile(tmp_path / "flip.db", page_size=512)
        buf = BufferManager(f, capacity_bytes=512)  # a single frame
        tree = BPlusTree(buf)
        for k in range(10):
            tree.insert(k, k * 10)
        buf.flush()
        assert tree.search(3) == 30  # decode cached with the frame
        other = buf.allocate()
        buf.read(other)  # evicts the tree's only node
        offset = tree.root_pid * f.stride + 20  # inside the first entry
        with f._io_lock:
            f._fh.seek(offset)
            (byte,) = f._fh.read(1)
            f._fh.seek(offset)
            f._fh.write(bytes([byte ^ 0xFF]))
            f._fh.flush()
        with pytest.raises(PageCorruptError):
            tree.search(3)
        buf.abort()

    def test_drop_cache_makes_the_next_read_physical(self, tree):
        for k in range(100):
            tree.insert(k, k)
        height = tree.height()
        tree.search(42)
        before = tree.buffer.file.reads
        tree.search(42)
        assert tree.buffer.file.reads == before
        tree.buffer.drop_cache()
        assert tree.search(42) == 42
        assert tree.buffer.file.reads == before + height
