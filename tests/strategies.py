"""Shared hypothesis strategies for the clustering property tests."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet

from tests.conftest import make_random_connected_network, scatter_points


@st.composite
def clustering_instance(
    draw,
    min_nodes=3,
    max_nodes=14,
    max_extra=8,
    min_points=2,
    max_points=12,
    connected_only=False,
):
    """(network, points, rng_seed) for clustering property tests.

    With ``connected_only=False`` the network may be augmented with a second
    disconnected component to exercise unreachable-pair handling.
    """
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    n_nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    extra = draw(st.integers(min_value=0, max_value=max_extra))
    net = make_random_connected_network(rng, n_nodes, extra_edges=extra)
    if not connected_only and draw(st.booleans()):
        # Attach an isolated two-node edge carrying one point.
        base = 10_000
        net.add_node(base, x=500.0, y=500.0)
        net.add_node(base + 1, x=501.0, y=500.0)
        net.add_edge(base, base + 1, rng.uniform(0.5, 3.0))
    n_points = draw(st.integers(min_value=min_points, max_value=max_points))
    points = scatter_points(rng, net, n_points)
    return net, points, seed


#: Weights and offset fractions that do not sum exactly in binary.
DECIMALS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 1.2, 1.3)


@st.composite
def decimal_instance(draw, max_nodes=5, max_points=6):
    """(network, points, rng_seed): a small random tree plus up to two
    chords, every weight drawn from :data:`DECIMALS` and every offset a
    tenth of its edge's weight, so distances summed in different orders
    can tie or differ within an ulp."""
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    n_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    weights = {}
    for node in range(1, n_nodes):
        weights[(rng.randrange(node), node)] = rng.choice(DECIMALS)
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n_nodes), 2)
        weights[(min(a, b), max(a, b))] = rng.choice(DECIMALS)
    net = SpatialNetwork.from_edge_list(
        [(u, v, w) for (u, v), w in weights.items()]
    )
    points = PointSet(net)
    edges = list(weights.items())
    for pid in range(draw(st.integers(min_value=2, max_value=max_points))):
        (u, v), w = rng.choice(edges)
        points.add(u, v, w * rng.randint(0, 10) / 10, point_id=pid)
    return net, points, seed
