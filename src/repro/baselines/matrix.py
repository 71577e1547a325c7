"""Precomputed distance-matrix baseline (the paper's Section 3.2 strawman).

"One possible method ... is to precompute the distance between every pair of
network nodes and store it in a 2D matrix ... Nevertheless the time
complexity of this method is high for large graphs.  In addition, this
matrix could be prohibitively large to store."

This module implements that straightforward approach for completeness and
comparison: an O(N^2) matrix of exact pairwise *point* distances computed by
one augmented-graph Dijkstra per point.  It serves three purposes:

1. the baseline cost measurements of the ablation benchmark (how expensive
   the precomputation is compared with the traversal algorithms);
2. reference *oracles* for the property tests — the classic matrix-based
   algorithms in :mod:`repro.baselines.classic` consume it;
3. a practical option for small datasets, where it is perfectly usable.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ParameterError, PointNotFoundError
from repro.network.augmented import AugmentedView, POINT, point_vertex
from repro.network.dijkstra import single_source
from repro.network.points import PointSet

__all__ = ["DistanceMatrix", "node_distance_matrix"]


class DistanceMatrix:
    """Symmetric matrix of exact pairwise network distances between points.

    Attributes
    ----------
    ids:
        Sorted point ids; row/column ``i`` corresponds to ``ids[i]``.
    values:
        ``(N, N)`` float array; ``inf`` marks unreachable pairs, the
        diagonal is 0.
    """

    def __init__(self, ids: list[int], values: np.ndarray) -> None:
        if values.shape != (len(ids), len(ids)):
            raise ParameterError(
                f"matrix shape {values.shape} does not match {len(ids)} ids"
            )
        self.ids = list(ids)
        self.values = values
        self._index = {pid: i for i, pid in enumerate(self.ids)}

    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, network, points: PointSet) -> "DistanceMatrix":
        """Compute the full matrix with one Dijkstra expansion per point.

        Complexity O(N (|V| + N) log(|V| + N)) time and O(N^2) space — the
        costs the paper's Section 3.2 warns about.
        """
        aug = AugmentedView(network, points)
        ids = sorted(points.point_ids())
        index = {pid: i for i, pid in enumerate(ids)}
        n = len(ids)
        values = np.full((n, n), math.inf)
        np.fill_diagonal(values, 0.0)
        for i, pid in enumerate(ids):
            for (kind, ident), d in single_source(aug, point_vertex(pid)).items():
                if kind == POINT:
                    values[i, index[ident]] = d
        # Symmetrise exactly (floating-point expansions agree, but be safe).
        values = np.minimum(values, values.T)
        return cls(ids, values)

    # ------------------------------------------------------------------
    def index_of(self, point_id: int) -> int:
        try:
            return self._index[point_id]
        except KeyError:
            raise PointNotFoundError(point_id) from None

    def distance(self, a: int, b: int) -> float:
        """Network distance between points ``a`` and ``b`` (by id)."""
        return float(self.values[self.index_of(a), self.index_of(b)])

    def __len__(self) -> int:
        return len(self.ids)

    def nbytes(self) -> int:
        """Memory footprint of the stored matrix in bytes."""
        return int(self.values.nbytes)

    def __repr__(self) -> str:
        return f"DistanceMatrix(points={len(self.ids)}, bytes={self.nbytes()})"


def node_distance_matrix(network) -> tuple[list[int], np.ndarray]:
    """All-pairs *node* distance matrix — the exact structure whose
    O(|V|^2) size the paper's Section 3.2 rules out for large networks.

    Returns sorted node ids and the matrix (inf for unreachable pairs).
    """
    ids = sorted(network.nodes())
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    values = np.full((n, n), math.inf)
    for i, nid in enumerate(ids):
        for other, d in single_source(network, nid).items():
            values[i, index[other]] = d
    return ids, values
