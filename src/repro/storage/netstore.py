"""Disk-based network + points store (the paper's Section 4.1, Figure 3).

The storage model: "The adjacency list and the points are stored in two
separate flat files.  To facilitate efficient access, these flat files are
then indexed by B+ trees."  Concretely:

* one *adjacency record* per node — neighbour count, then per neighbour
  ``(node id, edge weight, first point id of the edge's point group or
  -1)`` — indexed by a B+-tree on node id;
* one *point-group record* per populated edge — the edge, the point count,
  then per point ``(point id, offset, ground-truth label)`` with offsets in
  ascending order — indexed by a *sparse* B+-tree keyed by the group's
  first point id ("in a leaf node entry of the points B+ tree, the key
  points to the corresponding point group");
* both files live in one paged file behind a shared LRU buffer (the paper's
  4 KB pages / 1 MB buffer by default).

:class:`NetworkStore` exposes the same traversal protocol as the in-memory
:class:`~repro.network.graph.SpatialNetwork` (``neighbors``, ``edge_weight``,
``nodes``, ...), and :meth:`NetworkStore.points` returns a
:class:`StoredPointSet` exposing the :class:`~repro.network.points.PointSet`
protocol — so every clustering algorithm in :mod:`repro.core` runs unchanged
on the disk-backed representation, with all page traffic measured by the
buffer manager.

Adjacency and point-group records are decoded through
:meth:`~repro.storage.flatfile.RecordFile.read_decoded`: each record is
parsed with one bulk ``unpack_from`` at most once while its page stays in
the buffer, and the decoded tuples are shared read-only.  That memo saves
CPU only: the hit/miss/eviction counts are those of a store that
re-parses every record.  Two record caches sit *above* the buffer,
though: :class:`NetworkStore` keeps the adjacency of up to 4,096 nodes
and each :class:`StoredPointSet` up to 2,048 point groups.  A hit in
either returns without an index probe or a buffer access, so the page
counts of a traversal are those of a store with these caches (cleared by
:meth:`NetworkStore.drop_caches`).
"""

from __future__ import annotations

import os
import struct
import weakref
from collections.abc import Iterator

from repro.eval.metrics import NOISE
from repro.exceptions import (
    CorruptRecordError,
    EdgeNotFoundError,
    NodeNotFoundError,
    PointNotFoundError,
    StorageError,
)
from repro.faults.core import STATE as _FAULTS, CrashPoint, fire as _fault
from repro.network.graph import normalize_edge
from repro.network.points import NetworkPoint, PointSet, trusted_point
from repro.obs.core import add as _obs_add, span as _span
from repro.storage.bptree import BPlusTree, _repeat
from repro.storage.ccam import ccam_order
from repro.storage.flatfile import RecordFile
from repro.storage.pager import (
    BufferManager,
    DEFAULT_BUFFER_BYTES,
    DEFAULT_PAGE_SIZE,
    PagedFile,
)

__all__ = ["NetworkStore", "StoredPointSet"]

_META = struct.Struct("<QQQQQQQ")
# node_tree_root, point_tree_root, adj_current_page, pts_current_page,
# num_nodes, num_edges, num_points

_ADJ_HEADER = struct.Struct("<I")  # neighbour count
_ADJ_ENTRY = struct.Struct("<qdq")  # neighbour id, weight, first point id (-1 none)
_GROUP_HEADER = struct.Struct("<qqI")  # u, v, point count
_GROUP_ENTRY = struct.Struct("<qdq")  # point id, offset, label (NOISE-2 = None)

_NO_LABEL = NOISE - 1  # sentinel distinct from every real label and NOISE


def _decode_adjacency(record: bytes) -> tuple[tuple[int, float, int], ...]:
    """(neighbour, weight, first point id) per neighbour of one record."""
    if len(record) < _ADJ_HEADER.size:
        raise CorruptRecordError("shorter than its header")
    (count,) = _ADJ_HEADER.unpack_from(record, 0)
    if _ADJ_HEADER.size + count * _ADJ_ENTRY.size > len(record):
        raise CorruptRecordError(
            f"neighbour count {count} overruns the {len(record)}-byte record"
        )
    flat = _repeat(_ADJ_ENTRY, count).unpack_from(record, _ADJ_HEADER.size)
    return tuple(zip(flat[0::3], flat[1::3], flat[2::3]))


def _decode_group(
    record: bytes,
) -> tuple[tuple[int, int], tuple[NetworkPoint, ...]]:
    """(edge, points in offset order) of one point-group record."""
    if len(record) < _GROUP_HEADER.size:
        raise CorruptRecordError("point-group record is shorter than its header")
    u, v, count = _GROUP_HEADER.unpack_from(record, 0)
    if _GROUP_HEADER.size + count * _GROUP_ENTRY.size > len(record):
        raise CorruptRecordError(
            f"point group ({u}, {v}): point count {count} overruns the "
            f"{len(record)}-byte record"
        )
    if not u < v:
        raise CorruptRecordError(f"point group ({u}, {v}) is not in canonical order")
    flat = _repeat(_GROUP_ENTRY, count).unpack_from(record, _GROUP_HEADER.size)
    # The header check above is the one check NetworkPoint() would make.
    pts = tuple(
        trusted_point(pid, u, v, offset, None if label == _NO_LABEL else label)
        for pid, offset, label in zip(flat[0::3], flat[1::3], flat[2::3])
    )
    return (u, v), pts


class NetworkStore:
    """A spatial network with objects, resident on disk.

    Build with :meth:`build`, reopen with the constructor.  All reads go
    through an LRU buffer whose statistics (:meth:`stats`) are the I/O cost
    measure of the storage experiments.
    """

    def __init__(
        self,
        path: str,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    ) -> None:
        path = os.fspath(path)
        if path.endswith(".tmp"):
            raise StorageError(
                f"{path}: refusing to open a build temp file — an unfinished "
                "build artifact is never valid data"
            )
        if not os.path.exists(path):
            raise StorageError(f"{path}: no such network store")
        self._file = PagedFile(path)
        self.buffer = BufferManager(self._file, capacity_bytes=buffer_bytes)
        meta = self._file.get_meta()
        if len(meta) < _META.size:
            raise StorageError(f"{path}: missing network-store metadata")
        (
            node_root,
            point_root,
            adj_page,
            pts_page,
            self._num_nodes,
            self._num_edges,
            self._num_points,
        ) = _META.unpack(meta[: _META.size])
        self._adj_file = RecordFile(self.buffer, current_page=adj_page)
        self._pts_file = RecordFile(self.buffer, current_page=pts_page)
        self._node_tree = BPlusTree(self.buffer, root_pid=node_root)
        self._point_tree = BPlusTree(self.buffer, root_pid=point_root)
        # Decoded adjacency of recently read nodes.  A hit skips the
        # node-tree probe and the record read, so it never reaches the
        # buffer: page counts are those of a store with this cache.
        self._adj_cache: dict[int, tuple[tuple[int, float, int], ...]] = {}
        self._adj_cache_cap = 4096
        # Every point set handed out, so drop_caches() reaches their
        # group and id caches too.
        self._point_sets: weakref.WeakSet[StoredPointSet] = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        path: str,
        network,
        points: PointSet | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        node_order: list[int] | str = "ccam",
    ) -> "NetworkStore":
        """Serialise a network (and optionally its points) to ``path``.

        ``node_order`` controls adjacency-record placement: ``"ccam"``
        (connectivity-clustered, the default), ``"insertion"`` (the order
        ``network.nodes()`` yields), or an explicit node list — the ablation
        hook for the CCAM locality experiment.

        The build is **atomic**: everything is written to ``path + ".tmp"``,
        committed and fsynced, then renamed over ``path``.  A crash at any
        point leaves either no file at ``path`` or the previous complete one,
        never a half-built store; a non-crash failure removes the temp file.
        """
        with _span("netstore.build", path=str(path)):
            return cls._build(
                path, network, points, page_size, buffer_bytes, node_order
            )

    @classmethod
    def _build(
        cls,
        path: str,
        network,
        points: PointSet | None,
        page_size: int,
        buffer_bytes: int,
        node_order: list[int] | str,
    ) -> "NetworkStore":
        path = os.fspath(path)
        tmp = path + ".tmp"
        if os.path.exists(tmp):
            # Leftover from a previously crashed build; it was never renamed
            # into place, so it holds no committed data.
            os.remove(tmp)
        file = PagedFile(tmp, page_size=page_size)
        buffer = BufferManager(file, capacity_bytes=buffer_bytes)
        try:
            cls._write_contents(buffer, network, points, node_order)
            buffer.close()  # flush + commit flag + fsync
        except CrashPoint:
            # Simulated process death: release the fd but leave the on-disk
            # temp file exactly as last written, as a real crash would.
            buffer.abort()
            raise
        except BaseException:
            buffer.abort()
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        try:
            if _FAULTS.engaged:
                _fault("netstore.build.commit")
            os.replace(tmp, path)
        except CrashPoint:
            raise
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        return cls(path, buffer_bytes=buffer_bytes)

    @classmethod
    def _write_contents(
        cls,
        buffer: BufferManager,
        network,
        points: PointSet | None,
        node_order: list[int] | str,
    ) -> None:
        file = buffer.file
        adj_file = RecordFile(buffer)
        pts_file = RecordFile(buffer)

        if points is None:
            points = PointSet(network)

        # Point groups first: adjacency entries reference first point ids.
        first_pid: dict[tuple[int, int], int] = {}
        point_entries: list[tuple[int, int]] = []
        for edge in sorted(points.populated_edges()):
            group = points.points_on_edge(*edge)
            record = _GROUP_HEADER.pack(edge[0], edge[1], len(group))
            for p in group:
                label = _NO_LABEL if p.label is None else int(p.label)
                record += _GROUP_ENTRY.pack(p.point_id, p.offset, label)
            rid = pts_file.append(record)
            first = group[0].point_id
            first_pid[edge] = first
            point_entries.append((first, rid))

        # Adjacency records in the requested order.
        if node_order == "ccam":
            ordered = ccam_order(network)
        elif node_order == "insertion":
            ordered = list(network.nodes())
        else:
            ordered = list(node_order)
            if len(ordered) != network.num_nodes:
                raise StorageError(
                    "explicit node_order must list every node exactly once"
                )
        node_entries: list[tuple[int, int]] = []
        for node in ordered:
            nbrs = sorted(network.neighbors(node))
            record = _ADJ_HEADER.pack(len(nbrs))
            for nbr, weight in nbrs:
                edge = normalize_edge(node, nbr)
                record += _ADJ_ENTRY.pack(nbr, weight, first_pid.get(edge, -1))
            rid = adj_file.append(record)
            node_entries.append((node, rid))

        # The data is fully known here, so both indexes are built bottom-up.
        point_tree = BPlusTree.bulk_load(buffer, sorted(point_entries))
        node_tree = BPlusTree.bulk_load(buffer, sorted(node_entries))

        meta = _META.pack(
            node_tree.root_pid,
            point_tree.root_pid,
            adj_file.current_page,
            pts_file.current_page,
            network.num_nodes,
            network.num_edges,
            len(points),
        )
        file.set_meta(meta)

    # ------------------------------------------------------------------
    # Network backend protocol
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __len__(self) -> int:
        return self._num_nodes

    def nodes(self) -> Iterator[int]:
        """All node ids (ascending; streamed from the node B+-tree)."""
        for node, _ in self._node_tree.items():
            yield node

    def has_node(self, node: int) -> bool:
        return node in self._node_tree

    def _adjacency(self, node: int) -> tuple[tuple[int, float, int], ...]:
        cached = self._adj_cache.get(node)
        if cached is not None:
            return cached
        rid = self._node_tree.search(node)
        if rid is None:
            raise NodeNotFoundError(node)
        _obs_add("storage.adj_record_reads")
        try:
            entries = self._adj_file.read_decoded(rid, _decode_adjacency)
        except CorruptRecordError as exc:
            raise CorruptRecordError(
                f"adjacency record for node {node}: {exc}"
            ) from None
        if len(self._adj_cache) >= self._adj_cache_cap:
            self._adj_cache.clear()
        self._adj_cache[node] = entries
        return entries

    def neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        for nbr, weight, _ in self._adjacency(node):
            yield (nbr, weight)

    def degree(self, node: int) -> int:
        return len(self._adjacency(node))

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not self.has_node(u):
            return False
        return any(nbr == v for nbr, _, _ in self._adjacency(u))

    def edge_weight(self, u: int, v: int) -> float:
        a, b = normalize_edge(u, v)
        for nbr, weight, _ in self._adjacency(a):
            if nbr == b:
                return weight
        raise EdgeNotFoundError(a, b)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        for node in self.nodes():
            for nbr, weight, _ in self._adjacency(node):
                if node < nbr:
                    yield (node, nbr, weight)

    # ------------------------------------------------------------------
    # Points access
    # ------------------------------------------------------------------
    def points(self) -> "StoredPointSet":
        """The disk-resident point set (PointSet protocol)."""
        return StoredPointSet(self)

    def _first_point_id(self, u: int, v: int) -> int:
        a, b = normalize_edge(u, v)
        for nbr, _, first in self._adjacency(a):
            if nbr == b:
                return first
        raise EdgeNotFoundError(a, b)

    def _read_group(
        self, first_pid: int
    ) -> tuple[tuple[int, int], tuple[NetworkPoint, ...]]:
        rid = self._point_tree.search(first_pid)
        if rid is None:
            raise StorageError(f"missing point group for first id {first_pid}")
        _obs_add("storage.group_record_reads")
        return self._pts_file.read_decoded(rid, _decode_group)

    # ------------------------------------------------------------------
    # Lifecycle / instrumentation
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Buffer and physical I/O counters."""
        return self.buffer.stats()

    def reset_stats(self) -> None:
        self.buffer.reset_stats()

    def drop_caches(self) -> None:
        """Cold-start simulation: clear the page buffer (with the decoded
        pages kept beside its frames), the adjacency cache, and the group
        and id caches of every point set this store has handed out."""
        self.buffer.drop_cache()
        self._adj_cache.clear()
        for point_set in list(self._point_sets):
            point_set._drop_caches()

    def close(self) -> None:
        self.buffer.close()

    def __enter__(self) -> "NetworkStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"NetworkStore(nodes={self._num_nodes}, edges={self._num_edges}, "
            f"points={self._num_points}, pages={self._file.num_pages})"
        )


class StoredPointSet:
    """PointSet-protocol view over the groups stored in a NetworkStore.

    Provides exactly the methods the clustering algorithms use:
    ``points_on_edge``, ``points_from``, ``get``, iteration, ``point_ids``,
    ``populated_edges``, ``len``, and the ``network`` property (the store
    itself, so the backend-consistency check in
    :class:`~repro.core.base.NetworkClusterer` passes).
    """

    def __init__(self, store: NetworkStore) -> None:
        self._store = store
        # Decoded point groups; like the store's adjacency cache, a hit
        # never reaches the buffer.
        self._group_cache: dict[int, tuple[NetworkPoint, ...]] = {}
        self._group_cache_cap = 2048
        self._id_index: dict[int, NetworkPoint] | None = None
        store._point_sets.add(self)

    def _drop_caches(self) -> None:
        self._group_cache.clear()
        self._id_index = None

    @property
    def network(self) -> NetworkStore:
        return self._store

    def __len__(self) -> int:
        return self._store._num_points

    # ------------------------------------------------------------------
    def points_on_edge(self, u: int, v: int) -> list[NetworkPoint]:
        first = self._store._first_point_id(u, v)
        if first < 0:
            return []
        cached = self._group_cache.get(first)
        if cached is not None:
            return list(cached)
        _, pts = self._store._read_group(first)
        if len(self._group_cache) >= self._group_cache_cap:
            self._group_cache.clear()
        self._group_cache[first] = pts
        return list(pts)

    def points_from(self, node: int, other: int) -> list[NetworkPoint]:
        pts = self.points_on_edge(node, other)
        if node > other:
            pts.reverse()
        return pts

    def populated_edges(self) -> Iterator[tuple[int, int]]:
        for _, rid in self._store._point_tree.items():
            record = self._store._pts_file.read(rid)
            u, v, _ = _GROUP_HEADER.unpack_from(record, 0)
            yield (u, v)

    def num_populated_edges(self) -> int:
        return len(self._store._point_tree)

    def __iter__(self) -> Iterator[NetworkPoint]:
        # Through the group cache, so a job that iterates and also reads
        # groups by edge decodes each group once.
        cache = self._group_cache
        for first, rid in self._store._point_tree.items():
            pts = cache.get(first)
            if pts is None:
                _, pts = self._store._pts_file.read_decoded(rid, _decode_group)
                if len(cache) >= self._group_cache_cap:
                    cache.clear()
                cache[first] = pts
            yield from pts

    def point_ids(self) -> Iterator[int]:
        for p in self:
            yield p.point_id

    def __contains__(self, point_id: int) -> bool:
        try:
            self.get(point_id)
            return True
        except PointNotFoundError:
            return False

    def get(self, point_id: int) -> NetworkPoint:
        """Point lookup by id via floor search on the sparse points tree.

        The sparse tree keys groups by their first point id; since the
        store assigns group-sequential ids ("point-ids are assigned in such
        a way that for the points on the same edge, IDs are sequential"),
        the containing group is the floor entry.  For arbitrary externally
        assigned ids a one-time full index is built instead.
        """
        floor = self._store._point_tree.floor(point_id)
        if floor is not None:
            _, rid = floor
            _, pts = self._store._pts_file.read_decoded(rid, _decode_group)
            for p in pts:
                if p.point_id == point_id:
                    return p
        # Sparse lookup failed: ids are not group-sequential.  Build (once)
        # a full in-memory id index.  Read it once: drop_caches() may
        # reset the attribute from another thread.
        index = self._id_index
        if index is None:
            index = self._id_index = {p.point_id: p for p in self}
        try:
            return index[point_id]
        except KeyError:
            raise PointNotFoundError(point_id) from None

    def distance_to_node(self, point: NetworkPoint, node: int) -> float:
        from repro.exceptions import InvalidPositionError

        if node == point.u:
            return point.offset
        if node == point.v:
            return self._store.edge_weight(point.u, point.v) - point.offset
        raise InvalidPositionError(
            f"node {node} is not an endpoint of the edge of point {point.point_id}"
        )

    def labels(self) -> dict[int, int | None]:
        return {p.point_id: p.label for p in self}

    def __repr__(self) -> str:
        return f"StoredPointSet(points={len(self)}, store={self._store!r})"
