"""The object-graph transformation strawman (Section 3.2, Figure 2).

The paper considers transforming "the weighted graph G to a new graph G',
where each node n_p in G' is an object p from the original network G and
there is an edge (n_p, n_q) in G', if there is a path from p to q in G not
passing via any other object s.  The weight of this edge corresponds to the
length of the (shortest) path between p and q" — and then rejects it: "the
transformation ... is quite expensive requiring many shortest path
computations.  Second, the transformed graph may no longer be planar and it
can contain complex components ... For instance the ring on the left of
Figure 2b translates to a clique."

:func:`object_graph` builds exactly that G', so the blow-up can be measured
instead of argued: see :func:`transformation_blowup` and the tests
reproducing the Figure 2b ring-to-clique example.  The construction runs
one *blocked* expansion per object (other objects terminate the search
frontier — paths may end at an object but never pass through one), which is
precisely the "many shortest path computations" cost the paper warns about.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.exceptions import ParameterError
from repro.network.augmented import AugmentedView, POINT, point_vertex
from repro.network.dijkstra import single_source
from repro.network.points import PointSet

__all__ = ["object_graph", "transformation_blowup"]


def object_graph(network, points: PointSet) -> dict[tuple[int, int], float]:
    """The transformed graph G' of Section 3.2.

    Returns the edge set as ``{(smaller_pid, larger_pid): weight}`` where an
    edge exists iff some path between the two objects passes no third
    object, weighted by the shortest such path.

    One :func:`~repro.network.dijkstra.single_source` expansion per object
    over the point-augmented graph, in which other object vertices are
    settled (recording the edge) but never relaxed through — the literal
    "path not passing via any other object s".
    """
    if len(points) == 0:
        raise ParameterError("the point set is empty; nothing to transform")
    aug = AugmentedView(network, points)
    edges: dict[tuple[int, int], float] = {}
    for p in points:
        source = point_vertex(p.point_id)

        def blocked(vertex):
            # Another object: a G' edge ends here; do not pass through.
            if vertex[0] == POINT and vertex != source:
                return ()
            return aug.neighbors(vertex)

        dist = single_source(SimpleNamespace(neighbors=blocked), source)
        for (kind, ident), d in dist.items():
            if kind == POINT and ident != p.point_id:
                pair = (min(p.point_id, ident), max(p.point_id, ident))
                if d < edges.get(pair, float("inf")):
                    edges[pair] = d
        # Each direction is computed independently; symmetry of the network
        # makes both directions agree, and the dict keeps the minimum.
    return edges


def transformation_blowup(network, points: PointSet) -> dict[str, float]:
    """Quantify the Section 3.2 argument against the transformation.

    Returns the size of G' next to G and the density ratio: on networks
    where many objects see each other without intermediaries, G' gains
    edges far faster than it sheds nodes — rings of pendant objects become
    cliques — which is why the paper clusters on the original network
    instead.
    """
    edges = object_graph(network, points)
    n = len(points)
    max_edges = n * (n - 1) / 2 or 1
    return {
        "original_nodes": network.num_nodes,
        "original_edges": network.num_edges,
        "transformed_nodes": n,
        "transformed_edges": len(edges),
        "original_density": network.num_edges / max(1, network.num_nodes),
        "transformed_density": len(edges) / max(1, n),
        "clique_fraction": len(edges) / max_edges,
    }
