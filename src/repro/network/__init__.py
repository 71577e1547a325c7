"""Spatial network substrate: graph model, objects on edges, distances,
shortest-path traversals, and network queries.

This subpackage implements Section 3 of the paper (problem definitions) and
the traversal primitives that Section 4's clustering algorithms are built
from.

:class:`~repro.network.csr.CSRNetwork` is a lazy attribute: its module
(and with it numpy and scipy) loads on first access, or when
:func:`resolve_backend` is asked for ``"csr"``, so importing this package
loads neither.
"""

from repro.network.augmented import AugmentedView, NODE, POINT, node_vertex, point_vertex
from repro.network.components import (
    connected_components,
    extract_fraction,
    is_connected,
    largest_connected_component,
)
from repro.network.dijkstra import (
    all_pairs_node_distances,
    multi_source,
    node_distance,
    single_source,
    single_source_with_paths,
)
from repro.network.distance import (
    direct_distance,
    direct_point_node_distance,
    network_distance,
    network_distance_formula,
    pairwise_point_distances,
)
from repro.network.astar import node_distance_astar, point_distance_astar
from repro.network.graph import SpatialNetwork, normalize_edge
from repro.network.interface import NetworkBackend, resolve_backend
from repro.network.knngraph import build_knn_graph, mutual_knn_edges
from repro.network.multinet import (
    CombinedNetwork,
    Transition,
    combine_networks,
    split_edge,
)
from repro.network.points import NetworkPoint, PointSet
from repro.network.queries import knn_query, nearest_point, range_query
from repro.network.voronoi import network_voronoi, node_voronoi
from repro.network.transform import object_graph, transformation_blowup
from repro.network.timedep import (
    TimeDependentNetwork,
    WeightProfile,
    rush_hour_profile,
    time_parameterized_clusters,
)
from repro.network.weights import (
    apply_measure,
    combine_measures,
    euclidean_measure,
    toll_measure,
    travel_time_measure,
)

__all__ = [
    "AugmentedView",
    "NODE",
    "POINT",
    "node_vertex",
    "point_vertex",
    "connected_components",
    "extract_fraction",
    "is_connected",
    "largest_connected_component",
    "all_pairs_node_distances",
    "multi_source",
    "node_distance",
    "single_source",
    "single_source_with_paths",
    "direct_distance",
    "direct_point_node_distance",
    "network_distance",
    "network_distance_formula",
    "pairwise_point_distances",
    "SpatialNetwork",
    "normalize_edge",
    "CSRNetwork",
    "NetworkBackend",
    "resolve_backend",
    "node_distance_astar",
    "point_distance_astar",
    "NetworkPoint",
    "PointSet",
    "knn_query",
    "nearest_point",
    "range_query",
    "network_voronoi",
    "node_voronoi",
    "build_knn_graph",
    "mutual_knn_edges",
    "object_graph",
    "transformation_blowup",
    "CombinedNetwork",
    "Transition",
    "combine_networks",
    "split_edge",
    "TimeDependentNetwork",
    "WeightProfile",
    "rush_hour_profile",
    "time_parameterized_clusters",
    "apply_measure",
    "combine_measures",
    "euclidean_measure",
    "toll_measure",
    "travel_time_measure",
]


def __getattr__(name):
    """Load the CSR backend, and numpy with it, on first access."""
    if name == "CSRNetwork":
        from repro.network.csr import CSRNetwork

        globals()[name] = CSRNetwork
        return CSRNetwork
    raise AttributeError(f"module 'repro.network' has no attribute {name!r}")
