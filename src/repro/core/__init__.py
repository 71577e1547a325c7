"""Network clustering algorithms — the paper's Section 4.

Four clustering paradigms over network distances:

* :class:`NetworkKMedoids` — partitioning (Section 4.2),
* :class:`EpsLink` — fast density-based, MinPts=2 (Section 4.3.1),
* :class:`NetworkDBSCAN` — general density-based (Section 4.3),
* :class:`SingleLink` — hierarchical with δ heuristic (Section 4.4),
  producing a :class:`Dendrogram`.
"""

from repro.core.base import NetworkClusterer
from repro.core.dbscan import NetworkDBSCAN
from repro.core.degrade import (
    ComponentPointSet,
    ConnectivityReport,
    analyze_connectivity,
    distribute_k,
)
from repro.core.dendrogram import Dendrogram, Merge
from repro.core.epslink import EpsLink
from repro.core.incremental import IncrementalEpsLink
from repro.core.kmedoids import MedoidState, NetworkKMedoids
from repro.core.optics import NetworkOPTICS, OPTICSResult, OrderedPoint
from repro.core.result import ClusteringResult
from repro.core.singlelink import SingleLink
from repro.core.unionfind import UnionFind

__all__ = [
    "NetworkClusterer",
    "NetworkDBSCAN",
    "ComponentPointSet",
    "ConnectivityReport",
    "analyze_connectivity",
    "distribute_k",
    "Dendrogram",
    "Merge",
    "EpsLink",
    "IncrementalEpsLink",
    "MedoidState",
    "NetworkKMedoids",
    "NetworkOPTICS",
    "OPTICSResult",
    "OrderedPoint",
    "ClusteringResult",
    "SingleLink",
    "UnionFind",
]
