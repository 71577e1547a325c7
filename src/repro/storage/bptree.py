"""Disk-based B+-tree mapping signed 64-bit keys to signed 64-bit values.

The paper's storage model (Section 4.1, Figure 3) indexes the adjacency
flat file with a B+-tree on node id and the points flat file with a *sparse*
B+-tree keyed by the first point id of each point group; this class serves
both.  It also supports floor search (largest key <= probe), which is how a
sparse index resolves an arbitrary point id to its containing group.

Node page layout (little-endian)::

    leaf:      [1: u8=1][count: u16][next_leaf: u64]  count * (key i64, value i64)
    internal:  [1: u8=0][count: u16][child0: u64]     count * (key i64, child u64)

An internal node with ``count`` keys has ``count + 1`` children; keys
separate child subtrees with the usual "first key of the right subtree"
convention.  Deletion removes keys without rebalancing (standard lazy
deletion: lookups and scans remain correct, occupancy may drop below half
until a rebuild), which matches the build-once/read-many workload of the
network store.

Reads go through :meth:`BufferManager.read_decoded`: a node is decoded
with one bulk ``unpack_from`` into immutable ``keys``/``values`` tuples
that stay with the page frame while it is resident, so a hot inner node
is parsed once rather than on every descent.  Every node visit is still
one buffer read; mutating paths copy the decoded tuples before editing.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Iterator

from repro.exceptions import TreeError
from repro.faults.core import STATE as _FAULTS, fire as _fault
from repro.storage.pager import BufferManager

__all__ = ["BPlusTree"]

_NODE_HEADER = struct.Struct("<BHQ")  # is_leaf, count, next_leaf / child0
_ENTRY = struct.Struct("<qq")  # key, value-or-child (children stored signed too)
_REPEATS: dict[tuple[str, int], struct.Struct] = {}


def _repeat(entry: struct.Struct, count: int) -> struct.Struct:
    """``count`` consecutive ``entry`` records as one struct, so a node or
    record decodes with one ``unpack_from``.  Cached per (entry, count):
    a store holds few distinct counts."""
    key = (entry.format, count)
    block = _REPEATS.get(key)
    if block is None:
        block = _REPEATS[key] = struct.Struct("<" + entry.format[1:] * count)
    return block


def _decode_node(raw: bytes) -> tuple[bool, tuple[int, ...], tuple[int, ...], int]:
    """(is_leaf, keys, values, extra) of a node page; extra is next_leaf
    or child0.  Shared read-only once memoised with the frame."""
    is_leaf, count, extra = _NODE_HEADER.unpack_from(raw, 0)
    capacity = (len(raw) - _NODE_HEADER.size) // _ENTRY.size
    if count > capacity:
        raise TreeError(
            f"entry count {count} exceeds page capacity {capacity} — page "
            "is not a valid tree node"
        )
    flat = _repeat(_ENTRY, count).unpack_from(raw, _NODE_HEADER.size)
    return bool(is_leaf), flat[0::2], flat[1::2], extra


class BPlusTree:
    """A disk-backed B+-tree over a shared :class:`BufferManager`.

    Parameters
    ----------
    buffer:
        The page cache; several trees and record files may share it.
    root_pid:
        Page id of an existing tree's root, or ``None`` to create a new
        empty tree.  Persist :attr:`root_pid` (e.g. in the paged file's
        metadata) to reopen the tree later.
    """

    def __init__(self, buffer: BufferManager, root_pid: int | None = None) -> None:
        self.buffer = buffer
        page_size = buffer.file.page_size
        self._capacity = (page_size - _NODE_HEADER.size) // _ENTRY.size
        if self._capacity < 3:
            raise TreeError(f"page size {page_size} too small for a B+-tree node")
        if root_pid is None:
            root_pid = self._new_node(is_leaf=True)
        self.root_pid = root_pid
        self._size: int | None = None  # lazily counted for reopened trees

    # ------------------------------------------------------------------
    # Node encoding
    # ------------------------------------------------------------------
    def _new_node(self, is_leaf: bool) -> int:
        pid = self.buffer.allocate()
        self._store(pid, is_leaf, [], 0)
        return pid

    def _load(
        self, pid: int
    ) -> tuple[bool, tuple[int, ...], tuple[int, ...], int]:
        """(is_leaf, keys, values, extra) where extra is next_leaf or child0.

        The tuples are shared with the buffer's decoded-page memo.
        """
        try:
            return self.buffer.read_decoded(pid, _decode_node)
        except TreeError as exc:
            raise TreeError(f"node {pid}: {exc}") from None

    def _store(
        self, pid: int, is_leaf: bool, entries: list[tuple[int, int]], extra: int
    ) -> None:
        if len(entries) > self._capacity:
            raise TreeError(
                f"node {pid} overfull: {len(entries)} > {self._capacity}"
            )
        if _FAULTS.engaged:
            _fault("bptree.store")
        raw = bytearray(self.buffer.file.page_size)
        _NODE_HEADER.pack_into(raw, 0, int(is_leaf), len(entries), extra)
        flat = [field for entry in entries for field in entry]
        _repeat(_ENTRY, len(entries)).pack_into(raw, _NODE_HEADER.size, *flat)
        self.buffer.write(pid, bytes(raw))

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _find_leaf(self, key: int) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
        """(pid, keys, values, next_leaf) of the leaf that would hold ``key``.

        Entry i of an internal node holds the separator key of child i+1:
        descend into the rightmost child whose separator is <= key.
        """
        pid = self.root_pid
        while True:
            is_leaf, keys, values, extra = self._load(pid)
            if is_leaf:
                return pid, keys, values, extra
            idx = bisect_right(keys, key)
            pid = extra if idx == 0 else values[idx - 1]

    def search(self, key: int) -> int | None:
        """The value stored under ``key``, or ``None``."""
        _, keys, values, _ = self._find_leaf(key)
        idx = bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            return values[idx]
        return None

    def __contains__(self, key: int) -> bool:
        return self.search(key) is not None

    def floor(self, key: int) -> tuple[int, int] | None:
        """The entry with the largest key <= ``key`` (sparse-index lookup)."""
        _, keys, values, _ = self._find_leaf(key)
        idx = bisect_right(keys, key)
        if idx:
            return keys[idx - 1], values[idx - 1]
        # The answer may sit in an earlier leaf (this leaf's keys all exceed
        # the probe, which happens only at the leftmost occupied leaf or
        # after deletions).  Fall back to a scan from the left.
        prev = None
        for k, v in self.items():
            if k > key:
                break
            prev = (k, v)
        return prev

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        """Insert or replace ``key``."""
        result = self._insert(self.root_pid, key, value)
        if result is not None:
            sep, right_pid = result
            new_root = self._new_node(is_leaf=False)
            self._store(new_root, False, [(sep, right_pid)], self.root_pid)
            self.root_pid = new_root

    def _insert(self, pid: int, key: int, value: int) -> tuple[int, int] | None:
        is_leaf, keys, values, extra = self._load(pid)
        # A private copy: the decoded tuples are shared with the buffer.
        entries = list(zip(keys, values))
        if is_leaf:
            idx = bisect_left(keys, key)
            if idx < len(keys) and keys[idx] == key:
                entries[idx] = (key, value)  # replace
                self._store(pid, True, entries, extra)
                return None
            entries.insert(idx, (key, value))
            if self._size is not None:
                self._size += 1
            if len(entries) <= self._capacity:
                self._store(pid, True, entries, extra)
                return None
            return self._split_leaf(pid, entries, extra)
        idx = bisect_right(keys, key)
        child = extra if idx == 0 else values[idx - 1]
        result = self._insert(child, key, value)
        if result is None:
            return None
        sep, right_pid = result
        entries.insert(idx, (sep, right_pid))
        if len(entries) <= self._capacity:
            self._store(pid, False, entries, extra)
            return None
        return self._split_internal(pid, entries, extra)

    def _split_leaf(
        self, pid: int, entries: list[tuple[int, int]], next_leaf: int
    ) -> tuple[int, int]:
        mid = len(entries) // 2
        right_pid = self.buffer.allocate()
        self._store(right_pid, True, entries[mid:], next_leaf)
        self._store(pid, True, entries[:mid], right_pid)
        return entries[mid][0], right_pid

    def _split_internal(
        self, pid: int, entries: list[tuple[int, int]], child0: int
    ) -> tuple[int, int]:
        mid = len(entries) // 2
        sep_key, sep_child = entries[mid]
        right_pid = self.buffer.allocate()
        self._store(right_pid, False, entries[mid + 1 :], sep_child)
        self._store(pid, False, entries[:mid], child0)
        return sep_key, right_pid

    # ------------------------------------------------------------------
    # Delete (lazy: no rebalancing)
    # ------------------------------------------------------------------
    def delete(self, key: int) -> bool:
        """Remove ``key``; returns True when it was present."""
        pid, keys, values, extra = self._find_leaf(key)
        idx = bisect_left(keys, key)
        if idx == len(keys) or keys[idx] != key:
            return False
        entries = list(zip(keys, values))
        del entries[idx]
        self._store(pid, True, entries, extra)
        if self._size is not None:
            self._size -= 1
        return True

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def _leftmost_leaf(self) -> int:
        pid = self.root_pid
        while True:
            is_leaf, _, _, extra = self._load(pid)
            if is_leaf:
                return pid
            pid = extra  # child0

    def items(self) -> Iterator[tuple[int, int]]:
        """All (key, value) pairs in ascending key order (leaf chain scan)."""
        pid = self._leftmost_leaf()
        while pid:
            _, keys, values, next_leaf = self._load(pid)
            yield from zip(keys, values)
            pid = next_leaf

    def range(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """(key, value) pairs with lo <= key <= hi, ascending."""
        _, keys, values, next_leaf = self._find_leaf(lo)
        idx = bisect_left(keys, lo)
        while True:
            for i in range(idx, len(keys)):
                key = keys[i]
                if key > hi:
                    return
                yield (key, values[i])
            if not next_leaf:
                return
            _, keys, values, next_leaf = self._load(next_leaf)
            idx = 0

    def __len__(self) -> int:
        if self._size is None:
            self._size = sum(1 for _ in self.items())
        return self._size

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        buffer: BufferManager,
        items: list[tuple[int, int]],
        fill_factor: float = 0.9,
    ) -> "BPlusTree":
        """Build a tree bottom-up from sorted ``(key, value)`` pairs.

        The standard static-index construction: leaves are written
        sequentially at ``fill_factor`` occupancy (leaving slack for later
        inserts), then each internal level is built over the one below.
        Far fewer page writes than repeated :meth:`insert`, and leaves are
        physically contiguous — the right way to build the network store's
        indexes, whose data is known up front.
        """
        if not 0.1 <= fill_factor <= 1.0:
            raise TreeError(f"fill_factor must be in [0.1, 1], got {fill_factor!r}")
        keys = [k for k, _ in items]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise TreeError("bulk_load requires strictly increasing keys")
        tree = cls(buffer)
        if not items:
            return tree
        per_leaf = max(1, int(tree._capacity * fill_factor))

        # Level 0: the leaves, chained left to right.
        leaf_chunks = [items[i : i + per_leaf] for i in range(0, len(items), per_leaf)]
        leaf_pids = [buffer.allocate() for _ in leaf_chunks]
        for idx, chunk in enumerate(leaf_chunks):
            next_leaf = leaf_pids[idx + 1] if idx + 1 < len(leaf_pids) else 0
            tree._store(leaf_pids[idx], True, list(chunk), next_leaf)
        # The pre-created empty root leaf is abandoned (one wasted page).
        level: list[tuple[int, int]] = [
            (chunk[0][0], pid) for chunk, pid in zip(leaf_chunks, leaf_pids)
        ]

        # Upper levels: (first key of subtree, child pid) fan-in.
        per_node = max(2, int(tree._capacity * fill_factor))
        while len(level) > 1:
            next_level: list[tuple[int, int]] = []
            for i in range(0, len(level), per_node):
                group = level[i : i + per_node]
                pid = buffer.allocate()
                child0 = group[0][1]
                entries = [(key, child) for key, child in group[1:]]
                tree._store(pid, False, entries, child0)
                next_level.append((group[0][0], pid))
            level = next_level
        tree.root_pid = level[0][1]
        tree._size = len(items)
        return tree

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def height(self) -> int:
        """Number of levels from root to leaves (1 for a lone leaf)."""
        levels = 1
        pid = self.root_pid
        while True:
            is_leaf, _, _, extra = self._load(pid)
            if is_leaf:
                return levels
            levels += 1
            pid = extra

    def check_invariants(self) -> None:
        """Verify sortedness, separator consistency, and leaf-chain order.

        Raises :class:`TreeError` on violation; used by the tests.
        """
        last_key: int | None = None
        for key, _ in self.items():
            if last_key is not None and key <= last_key:
                raise TreeError(f"leaf chain out of order at key {key}")
            last_key = key
        self._check_subtree(self.root_pid, None, None)

    def _check_subtree(
        self, pid: int, lo: int | None, hi: int | None
    ) -> None:
        is_leaf, keys, values, extra = self._load(pid)
        keys = list(keys)
        if keys != sorted(keys):
            raise TreeError(f"node {pid} keys unsorted")
        for k in keys:
            if lo is not None and k < lo:
                raise TreeError(f"node {pid} key {k} below bound {lo}")
            if hi is not None and k >= hi:
                raise TreeError(f"node {pid} key {k} at/above bound {hi}")
        if is_leaf:
            return
        children = [extra, *values]
        bounds = [lo] + keys + [hi]
        for i, child in enumerate(children):
            self._check_subtree(child, bounds[i], bounds[i + 1])
