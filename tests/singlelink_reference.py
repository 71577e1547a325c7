"""The augmented-graph Single-Link bridge construction, kept as a
test-only reference for :meth:`repro.core.singlelink.SingleLink._bridges`.

Every object is a vertex of the point-augmented graph: one multi-source
Dijkstra from all objects gives each vertex its nearest object, and every
augmented edge between two owners is a bridge ``dist(x) + len(x, y) +
dist(y)``, seen from both ends.  Ties in ownership fall to the kernel's
push order, which follows each backend's iteration order, so on exact
ties this reference may pick other (equally cheap) pairs than the node
traversal.
"""

from __future__ import annotations

from repro.network.augmented import AugmentedView, node_vertex, point_vertex
from repro.network.dijkstra import multi_source


def augmented_bridges(network, points) -> list[tuple[float, int, int]]:
    """Sorted ``(weight, pid_a, pid_b)``: the cheapest bridge per pair of
    objects whose Voronoi cells touch."""
    aug = AugmentedView(network, points)
    seeds = [(0.0, point_vertex(p.point_id), p.point_id) for p in points]
    dist, owner = multi_source(aug, seeds)
    best: dict[tuple[int, int], float] = {}
    vertices = [node_vertex(n) for n in network.nodes()]
    vertices.extend(point_vertex(p.point_id) for p in points)
    for vertex in vertices:
        dv = dist.get(vertex)
        if dv is None:
            continue  # vertex in a component without objects
        ov = owner[vertex]
        for nbr, seg in aug.neighbors(vertex):
            du = dist.get(nbr)
            if du is None:
                continue
            ou = owner[nbr]
            if ou == ov:
                continue
            pair = (ov, ou) if ov < ou else (ou, ov)
            weight = dv + seg + du
            if weight < best.get(pair, float("inf")):
                best[pair] = weight
    return sorted((w, a, b) for (a, b), w in best.items())
