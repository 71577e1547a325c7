"""repro — Clustering objects on a spatial network.

A faithful, production-quality reproduction of *"Clustering Objects on a
Spatial Network"* (Yiu & Mamoulis, SIGMOD 2004): clustering algorithms for
objects that lie on the edges of a large weighted network, where object
dissimilarity is the shortest-path (network) distance.

Public API highlights
---------------------
Network substrate
    :class:`~repro.network.SpatialNetwork`, :class:`~repro.network.PointSet`,
    :func:`~repro.network.network_distance`, :func:`~repro.network.range_query`,
    :func:`~repro.network.knn_query`.
Clustering algorithms (the paper's Section 4)
    :class:`~repro.core.NetworkKMedoids`, :class:`~repro.core.EpsLink`,
    :class:`~repro.core.NetworkDBSCAN`, :class:`~repro.core.SingleLink`.
Disk-backed storage (Section 4.1)
    :class:`~repro.storage.NetworkStore`.
Data generation (Section 5's synthetic workloads)
    :mod:`repro.datagen`.

Quickstart
----------
>>> from repro import SpatialNetwork, PointSet, EpsLink
>>> net = SpatialNetwork.from_edge_list([(1, 2, 2.0), (2, 3, 3.0)])
>>> pts = PointSet(net)
>>> _ = pts.add(1, 2, 0.2); _ = pts.add(1, 2, 0.4); _ = pts.add(2, 3, 2.9)
>>> result = EpsLink(net, pts, eps=0.5).run()
>>> result.num_clusters
2
"""

from repro.exceptions import (
    BudgetExceededError,
    Cancelled,
    ChecksumError,
    CircuitOpenError,
    DeadlineExceeded,
    Interrupted,
    NetworkError,
    Overloaded,
    PageCorruptError,
    ParameterError,
    PointError,
    PoisonRequest,
    ReproError,
    StorageError,
    UnreachableError,
    WorkerCrashed,
)
from repro.network import (
    AugmentedView,
    NetworkBackend,
    NetworkPoint,
    PointSet,
    SpatialNetwork,
    knn_query,
    network_distance,
    network_distance_formula,
    range_query,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Exceptions
    "ReproError",
    "NetworkError",
    "PointError",
    "UnreachableError",
    "ParameterError",
    "StorageError",
    "ChecksumError",
    "PageCorruptError",
    "BudgetExceededError",
    "Interrupted",
    "DeadlineExceeded",
    "Cancelled",
    "Overloaded",
    "CircuitOpenError",
    "WorkerCrashed",
    "PoisonRequest",
    # Network substrate
    "SpatialNetwork",
    "CSRNetwork",
    "NetworkBackend",
    "PointSet",
    "NetworkPoint",
    "AugmentedView",
    "network_distance",
    "network_distance_formula",
    "range_query",
    "knn_query",
]


def __getattr__(name):
    """Lazily expose the clustering / storage layers.

    Keeps ``import repro`` light while still allowing
    ``from repro import EpsLink`` etc. without importing everything eagerly.
    ``CSRNetwork`` is lazy too: its module imports numpy and scipy.
    """
    lazy = {
        "CSRNetwork": "repro.network.csr",
        "NetworkKMedoids": "repro.core",
        "EpsLink": "repro.core",
        "IncrementalEpsLink": "repro.core",
        "NetworkDBSCAN": "repro.core",
        "NetworkOPTICS": "repro.core",
        "SingleLink": "repro.core",
        "ClusteringResult": "repro.core",
        "Dendrogram": "repro.core",
        "NetworkStore": "repro.storage",
        "verify_store": "repro.storage",
        "OpBudget": "repro.faults",
        "FaultRule": "repro.faults",
        "CrashPoint": "repro.faults",
        "CheckpointManager": "repro.recovery",
        "RetryPolicy": "repro.recovery",
        "RepairReport": "repro.recovery",
        "load_checkpoint": "repro.recovery",
        "save_checkpoint": "repro.recovery",
        "repair_store": "repro.recovery",
        "salvage_store": "repro.recovery",
        "Deadline": "repro.resilience",
        "CancelToken": "repro.resilience",
        "CircuitBreaker": "repro.resilience",
        "VirtualClock": "repro.resilience",
        "TickingClock": "repro.resilience",
        "QueryService": "repro.serve",
        "SupervisedPool": "repro.serve",
        "RemoteRequestError": "repro.serve",
        "DistanceAccelerator": "repro.perf",
        "DistanceCache": "repro.perf",
        "LandmarkIndex": "repro.perf",
    }
    if name in lazy:
        import importlib

        module = importlib.import_module(lazy[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    if name == "faults":
        import importlib

        module = importlib.import_module("repro.faults")
        globals()[name] = module
        return module
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
