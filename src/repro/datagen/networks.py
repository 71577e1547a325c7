"""Synthetic road-network generators.

The paper's experiments use four real road networks (NA, SF, TG, OL) that are
not redistributable here; these generators produce connected, planar, sparse
networks in the same structural regime — |E| ≈ 1.2–1.5 |V|, Euclidean edge
weights, mostly degree-3/4 nodes — which is all the algorithms depend on
(see DESIGN.md, substitution 1).

Two families are provided:

* :func:`grid_city` — a perturbed grid: streets meet at near-right angles
  with jittered intersections and randomly removed road segments, resembling
  a planned city (SF-like);
* :func:`delaunay_road_network` — a Delaunay triangulation of random sites
  thinned down to road density, resembling an organically grown network
  (OL-like).

Both guarantee connectivity (thinning never removes bridges of the current
graph) and determinism given a seed.
"""

from __future__ import annotations

import random

from repro.exceptions import ParameterError
from repro.network.graph import SpatialNetwork

__all__ = ["grid_city", "delaunay_road_network"]


def grid_city(
    width: int,
    height: int,
    spacing: float = 1.0,
    jitter: float = 0.25,
    removal: float = 0.20,
    seed: int | None = None,
    name: str | None = None,
) -> SpatialNetwork:
    """A perturbed ``width x height`` grid road network.

    Parameters
    ----------
    width, height:
        Grid dimensions in intersections; the network has ``width * height``
        nodes.
    spacing:
        Nominal block length.
    jitter:
        Maximum coordinate perturbation as a fraction of ``spacing``
        (0 disables; keep < 0.5 so that streets do not fold over).
    removal:
        Fraction of street segments to *attempt* removing; a segment is kept
        whenever removing it would disconnect the network, so the result is
        always connected.
    seed:
        RNG seed for reproducibility.
    """
    if width < 1 or height < 1:
        raise ParameterError("width and height must be >= 1")
    if not 0 <= jitter < 0.5:
        raise ParameterError(f"jitter must be in [0, 0.5), got {jitter!r}")
    if not 0 <= removal < 1:
        raise ParameterError(f"removal must be in [0, 1), got {removal!r}")
    rng = random.Random(seed)
    net = SpatialNetwork(name=name or f"grid-city-{width}x{height}")

    def nid(i: int, j: int) -> int:
        return i * height + j

    for i in range(width):
        for j in range(height):
            dx = rng.uniform(-jitter, jitter) * spacing
            dy = rng.uniform(-jitter, jitter) * spacing
            net.add_node(nid(i, j), x=i * spacing + dx, y=j * spacing + dy)

    segments: list[tuple[int, int]] = []
    for i in range(width):
        for j in range(height):
            if i + 1 < width:
                segments.append((nid(i, j), nid(i + 1, j)))
            if j + 1 < height:
                segments.append((nid(i, j), nid(i, j + 1)))
    for u, v in segments:
        net.add_edge(u, v)  # weight = Euclidean distance of jittered nodes

    _thin_edges(net, removal, rng)
    return net


def delaunay_road_network(
    n_nodes: int,
    extent: float = 100.0,
    target_degree: float = 2.8,
    seed: int | None = None,
    name: str | None = None,
) -> SpatialNetwork:
    """A road-like planar network from a thinned Delaunay triangulation.

    Random sites in an ``extent x extent`` square are triangulated
    (scipy.spatial.Delaunay); the triangulation — average degree ≈ 6 — is
    then thinned to ``target_degree`` by removing the *longest* non-bridge
    edges first, mimicking how road networks avoid redundant long links.
    """
    if n_nodes < 2:
        raise ParameterError(f"n_nodes must be >= 2, got {n_nodes!r}")
    if target_degree <= 2:
        raise ParameterError("target_degree must exceed 2 to stay connected")
    from scipy.spatial import Delaunay  # deferred: scipy is heavyweight

    rng = random.Random(seed)
    import numpy as np

    coords = np.array(
        [[rng.uniform(0, extent), rng.uniform(0, extent)] for _ in range(n_nodes)]
    )
    net = SpatialNetwork(name=name or f"delaunay-{n_nodes}")
    for node in range(n_nodes):
        net.add_node(node, x=float(coords[node, 0]), y=float(coords[node, 1]))
    if n_nodes == 2:
        net.add_edge(0, 1)
        return net
    if n_nodes == 3:
        net.add_edge(0, 1)
        net.add_edge(1, 2)
        return net

    tri = Delaunay(coords)
    edges: set[tuple[int, int]] = set()
    for simplex in tri.simplices:
        a, b, c = (int(x) for x in simplex)
        edges.add((min(a, b), max(a, b)))
        edges.add((min(b, c), max(b, c)))
        edges.add((min(a, c), max(a, c)))
    for u, v in edges:
        net.add_edge(u, v)

    target_edges = int(target_degree * n_nodes / 2)
    surplus = net.num_edges - target_edges
    if surplus > 0:
        # Remove longest edges first, skipping bridges.
        by_length = sorted(net.edges(), key=lambda e: -e[2])
        removed = 0
        for u, v, _ in by_length:
            if removed >= surplus:
                break
            if _is_removable(net, u, v):
                net.remove_edge(u, v)
                removed += 1
    return net


def _thin_edges(net: SpatialNetwork, removal: float, rng: random.Random) -> None:
    """Randomly remove up to ``removal`` of the edges, never disconnecting."""
    if removal <= 0:
        return
    candidates = list(net.edges())
    rng.shuffle(candidates)
    budget = int(removal * len(candidates))
    removed = 0
    for u, v, _ in candidates:
        if removed >= budget:
            break
        if _is_removable(net, u, v):
            net.remove_edge(u, v)
            removed += 1


def _is_removable(net: SpatialNetwork, u: int, v: int, max_depth: int = 12) -> bool:
    """Whether edge (u, v) provably lies on a *short* cycle.

    Checked by a BFS from ``u`` to ``v`` of at most ``max_depth`` hops that
    ignores the edge itself.  The depth bound keeps generation linear-time;
    it is conservative (an edge on only long cycles is treated as a bridge
    and kept), which can only err on the side of keeping the network
    connected.
    """
    if net.degree(u) <= 1 or net.degree(v) <= 1:
        return False
    seen = {u}
    frontier = [u]
    for _ in range(max_depth):
        if not frontier:
            break
        nxt: list[int] = []
        for node in frontier:
            for nbr, _ in net.neighbors(node):
                if node == u and nbr == v:
                    continue  # skip the candidate edge itself
                if nbr == v:
                    return True
                if nbr not in seen:
                    seen.add(nbr)
                    nxt.append(nbr)
        frontier = nxt
    return False

