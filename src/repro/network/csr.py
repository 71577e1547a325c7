"""Frozen CSR (compressed sparse row) network backend.

:class:`CSRNetwork` freezes a :class:`~repro.network.graph.SpatialNetwork`
(or the disk-backed :class:`~repro.storage.netstore.NetworkStore`) into
flat numpy arrays — int64 ``indptr``/``indices``, float64 ``weights``, and
a node-id ↔ row bijection sorted by node id — and serves the
:class:`~repro.network.interface.NetworkBackend` protocol plus one
optional kernel, ``dijkstra_single_source``, that
:mod:`repro.network.dijkstra` duck-dispatches untargeted, uninstrumented
single-source searches to.

Bit-identity contract
---------------------
The dict backend is the oracle.  Every traversal except the scipy kernel
runs the generic loops of :mod:`repro.network.dijkstra` over
:meth:`CSRNetwork.neighbors`, which returns each row's frozen
``(neighbor, weight)`` tuple in source order — so targeted and cutoff
searches, path trees, the concurrent expansion, and every counter, fault
site, budget charge and deadline checkpoint match the dict backend by
construction.  The scipy kernel must return the same distances *to the
bit*, settle nodes in the same order, and break ties identically; three
facts make that achievable:

* Rows are sorted by node id, so "smaller row" ≡ "smaller node id" — the
  heap tie-break of the dict path (``(distance, node)`` tuples) maps to
  lexicographic ``(distance, row)`` order.
* IEEE-754 rounding is monotone, so for positive weights the left-fold
  prefix sums along any path are nondecreasing; every correct Dijkstra —
  including scipy's C implementation — computes exactly
  ``min over paths of fl(...fl(fl(0 + w1) + w2)... + wk)``, the same
  value the dict path's ``d + weight`` folds produce.
* The settle order is reconstructed with a stable argsort over the
  distance vector, which yields ascending ``(distance, row)`` order.

A view frozen where scipy is not importable defines no kernel at all
(``kernel_backend == "python"``); every search on it runs the generic
loops.

Staleness
---------
The backend captures the source network's mutation edition at freeze
time; every public access (``__repr__`` aside) re-checks it and raises
:class:`~repro.exceptions.StaleBackendError` once the source has mutated,
rather than serving distances off arrays that no longer match the graph.
Traversals detect staleness at their first adjacency read, i.e. in
:meth:`CSRNetwork.neighbors` (or on entry to the scipy kernel).  A
targeted search whose targets are all met at the source, such as
``single_source(view, s, targets=(s,))``, reads no adjacency and answers
``{s: 0.0}`` on a stale view, as it does for any node id on any backend.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from repro.exceptions import (
    EdgeNotFoundError,
    NodeNotFoundError,
    ParameterError,
    StaleBackendError,
)
from repro.network.graph import normalize_edge
from repro.network.interface import resolve_backend

try:  # scipy is an optional accelerator, never a hard dependency
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
except ImportError:  # pragma: no cover - exercised where scipy is absent
    _csr_matrix = None
    _scipy_dijkstra = None

__all__ = ["CSRNetwork", "resolve_backend"]


class CSRNetwork:
    """A read-only array snapshot of a spatial network.

    Build one with :meth:`freeze`; the constructor is internal.  All
    :class:`~repro.network.interface.NetworkBackend` methods preserve the
    source's iteration orders (``nodes()`` yields the source's node
    order, ``neighbors()`` the source's adjacency order), so any
    algorithm that runs on the source runs bit-identically here.
    """

    def __init__(self, source) -> None:
        if isinstance(source, CSRNetwork):
            raise ParameterError("use CSRNetwork.freeze() to reuse a frozen backend")
        self.name = getattr(source, "name", "network")
        #: The network this backend was frozen from (used by
        #: ``NetworkClusterer`` to accept point sets built on the source).
        self.source_network = source
        self._src_edition = getattr(source, "_edition", None)

        node_order = list(source.nodes())
        ids_sorted = sorted(node_order)
        row_of: dict[int, int] = {nid: r for r, nid in enumerate(ids_sorted)}
        n = len(ids_sorted)

        # Per-row adjacency in *source insertion order* (neighbors()
        # returns these tuples), plus the CSR triplet over id-sorted rows
        # for the scipy kernel.
        nbr_pairs: list[tuple[tuple[int, float], ...]] = [()] * n
        indptr = np.zeros(n + 1, dtype=np.int64)
        cols: list[int] = []
        wts: list[float] = []
        for nid in ids_sorted:
            row = row_of[nid]
            pairs = tuple(source.neighbors(nid))
            nbr_pairs[row] = pairs
            indptr[row + 1] = indptr[row] + len(pairs)
            cols.extend(row_of[v] for v, _ in pairs)
            wts.extend(w for _, w in pairs)

        self._node_order: tuple[int, ...] = tuple(node_order)
        self._ids = np.asarray(ids_sorted, dtype=np.int64)
        self._row_of = row_of
        self._nbr_pairs = nbr_pairs
        self._indptr = indptr
        self._indices = np.asarray(cols, dtype=np.int64)
        self._weights = np.asarray(wts, dtype=np.float64)
        self._num_edges = int(getattr(source, "num_edges", len(cols) // 2))
        self._edge_list: tuple[tuple[int, int, float], ...] = tuple(source.edges())
        self._wmap: dict[tuple[int, int], float] = {
            (u, v): w for u, v, w in self._edge_list
        }
        coords: dict[int, tuple[float, float]] = {}
        if hasattr(source, "has_coords") and hasattr(source, "node_coords"):
            for nid in node_order:
                if source.has_coords(nid):
                    coords[nid] = source.node_coords(nid)
        self._coords = coords
        self._matrix = None
        if _csr_matrix is not None and n > 0:
            self._matrix = _csr_matrix(
                (self._weights, self._indices, indptr), shape=(n, n)
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def freeze(cls, network) -> "CSRNetwork":
        """Freeze ``network`` into a CSR snapshot (idempotent)."""
        if isinstance(network, CSRNetwork):
            network._check_stale()
            return network
        return cls(network)

    @property
    def kernel_backend(self) -> str:
        """``"scipy"`` when the C kernel serves untargeted searches, else
        ``"python"`` (the generic loops serve every search)."""
        return "python" if self._matrix is None else "scipy"

    def _check_stale(self) -> None:
        if (
            self._src_edition is not None
            and self.source_network._edition != self._src_edition
        ):
            raise StaleBackendError(
                f"network {self.name!r} mutated after it was frozen; "
                "re-freeze with CSRNetwork.freeze() before querying"
            )

    # ------------------------------------------------------------------
    # NetworkBackend protocol
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        self._check_stale()
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        self._check_stale()
        return self._num_edges

    @property
    def edition(self):
        """The source's edition this snapshot was frozen at (``None`` for
        a source without one); raises once the source has mutated."""
        self._check_stale()
        return self._src_edition

    def has_node(self, node: int) -> bool:
        self._check_stale()
        return node in self._row_of

    def has_edge(self, u: int, v: int) -> bool:
        self._check_stale()
        if u == v:
            return False
        return normalize_edge(u, v) in self._wmap

    def nodes(self) -> Iterator[int]:
        """Iterate node ids in the *source network's* order."""
        self._check_stale()
        return iter(self._node_order)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        self._check_stale()
        return iter(self._edge_list)

    def neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """The frozen ``(neighbor, weight)`` row of ``node``, source order."""
        self._check_stale()
        try:
            return self._nbr_pairs[self._row_of[node]]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: int) -> int:
        self._check_stale()
        try:
            return len(self._nbr_pairs[self._row_of[node]])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def edge_weight(self, u: int, v: int) -> float:
        self._check_stale()
        a, b = normalize_edge(u, v)
        try:
            return self._wmap[(a, b)]
        except KeyError:
            raise EdgeNotFoundError(a, b) from None

    def node_coords(self, node: int) -> tuple[float, float]:
        self._check_stale()
        if node not in self._row_of:
            raise NodeNotFoundError(node)
        try:
            return self._coords[node]
        except KeyError:
            from repro.exceptions import MissingCoordinatesError

            raise MissingCoordinatesError(node) from None

    def has_coords(self, node: int) -> bool:
        self._check_stale()
        return node in self._coords

    def euclidean_node_distance(self, u: int, v: int) -> float:
        ux, uy = self.node_coords(u)
        vx, vy = self.node_coords(v)
        return math.hypot(ux - vx, uy - vy)

    def total_weight(self) -> float:
        self._check_stale()
        return sum(w for _, _, w in self._edge_list)

    def __contains__(self, node: int) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        self._check_stale()
        return len(self._ids)

    def __repr__(self) -> str:
        # Reads the frozen fields directly so a stale view stays printable.
        return (
            f"CSRNetwork(name={self.name!r}, nodes={len(self._ids)}, "
            f"edges={self._num_edges}, kernel={self.kernel_backend!r})"
        )

    # ------------------------------------------------------------------
    # Optional kernel: untargeted, uninstrumented single source
    # ------------------------------------------------------------------
    @property
    def dijkstra_single_source(self):
        """The kernel, on views that have a matrix to run it on; without
        one the attribute does not exist and every search takes the
        generic loops.  Looked up, not stored: a stored bound method
        would tie the view to itself in a reference cycle."""
        if self._matrix is None:
            raise AttributeError("dijkstra_single_source")
        return self._single_source_scipy

    def _single_source_scipy(self, source: int, cutoff: float) -> dict[int, float]:
        """Untargeted expansion via scipy's C Dijkstra.

        Served as ``dijkstra_single_source`` on views that have a matrix.
        The result dict is rebuilt in settle order — ascending
        ``(distance, node id)``, which a stable argsort over the id-sorted
        rows yields directly — so even dict iteration order matches the
        heap loop's.
        """
        self._check_stale()
        row = self._row_of.get(source)
        if row is None:
            raise NodeNotFoundError(source)
        d = _scipy_dijkstra(self._matrix, directed=True, indices=row)
        if cutoff is math.inf or cutoff == math.inf:
            mask = np.isfinite(d)
        else:
            mask = d <= cutoff
            mask[row] = True  # the seed settles even under cutoff < 0
        sel = np.flatnonzero(mask)
        order = sel[np.argsort(d[sel], kind="stable")]
        return dict(zip(self._ids[order].tolist(), d[order].tolist()))
