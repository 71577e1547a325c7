"""The traversal protocol every network backend implements.

:class:`NetworkBackend` is the structural contract between the clustering
algorithms and whatever holds the graph: the in-memory
:class:`~repro.network.graph.SpatialNetwork`, the disk-backed
:class:`~repro.storage.netstore.NetworkStore`, and the frozen array backend
:class:`~repro.network.csr.CSRNetwork`.  Algorithms only ever call the
methods below, so swapping backends never changes algorithm code — and,
because the contract pins *iteration order* as well as values, it never
changes algorithm *results* either.

Order is part of the contract
-----------------------------
Two guarantees matter for bit-identical results across backends:

* ``nodes()`` yields node ids in a deterministic order that any derived
  backend must preserve from its source (seeded sweeps, connectivity
  analysis, and per-component orchestration all iterate it).
* ``neighbors(node)`` yields ``(neighbor, weight)`` pairs in a
  deterministic order preserved from the source (the concurrent
  multi-source expansion breaks heap ties with a push-order counter, so
  adjacency order feeds directly into label assignment on exact distance
  ties).

Optional traversal kernel
-------------------------
A backend may additionally provide one array-native kernel,
``dijkstra_single_source(source, cutoff)``, for untargeted single-source
searches.  :func:`repro.network.dijkstra.single_source` calls it only
when no instrumentation (obs, faults, budgets, deadlines) is engaged;
every other search — targeted, path tree, concurrent expansion, and every
instrumented run — takes the generic loops over ``neighbors()``.  The
kernel must be a drop-in twin of the plain loop: bit-identical distances,
settle (dict insertion) order, and tie-breaking, and it must raise
:class:`~repro.exceptions.NodeNotFoundError` for an unknown source.

Choosing a backend
------------------
:func:`resolve_backend` maps a ``backend`` name (``"dict"`` or
``"csr"``) to the network the algorithms and serve tiers run on.  It
lives here, not beside the CSR backend, because this module needs no
numpy: the CSR module, and numpy and scipy with it, is imported only
when ``"csr"`` is asked for.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Protocol, runtime_checkable

from repro.exceptions import ParameterError

__all__ = ["NetworkBackend", "resolve_backend"]


def resolve_backend(network, backend: str | None):
    """Materialise the requested backend over ``network``.

    ``None`` / ``"dict"`` return the network unchanged (the oracle path);
    ``"csr"`` freezes it into a :class:`~repro.network.csr.CSRNetwork` (a
    no-op when it is one already).  Only the ``"csr"`` branch imports
    :mod:`repro.network.csr`, and with it numpy and scipy, so a process
    that serves the dict backend never loads either.
    """
    if backend is None or backend == "dict":
        return network
    if backend == "csr":
        from repro.network.csr import CSRNetwork

        return CSRNetwork.freeze(network)
    raise ParameterError(
        f"unknown network backend {backend!r} (expected 'dict' or 'csr')"
    )


@runtime_checkable
class NetworkBackend(Protocol):
    """Structural protocol of a spatial-network backend.

    ``isinstance`` checks only verify method presence (the ordering
    guarantees documented in the module docstring cannot be expressed in
    the type system but are required all the same).
    """

    @property
    def num_nodes(self) -> int:
        """Number of nodes |V|."""
        ...

    @property
    def num_edges(self) -> int:
        """Number of undirected edges |E|."""
        ...

    def has_node(self, node: int) -> bool:
        """Whether ``node`` exists in the network."""
        ...

    def nodes(self) -> Iterator[int]:
        """Iterate node ids in the backend's deterministic order."""
        ...

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate canonical ``(u, v, weight)`` triples (``u < v``)."""
        ...

    def neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` pairs in deterministic order.

        Raises :class:`~repro.exceptions.NodeNotFoundError` for an
        unknown node.
        """
        ...

    def edge_weight(self, u: int, v: int) -> float:
        """Weight ``W(u, v)`` of an existing edge.

        Raises :class:`~repro.exceptions.EdgeNotFoundError` when the edge
        is absent.
        """
        ...
