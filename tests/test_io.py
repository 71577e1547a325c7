"""Tests for the JSON interchange format."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.result import ClusteringResult
from repro.io import (
    FormatError,
    load_result_file,
    load_workload_file,
    result_from_dict,
    result_to_dict,
    save_result,
    save_workload,
    workload_from_dict,
    workload_to_dict,
)

from tests.conftest import make_random_connected_network, scatter_points
import random


class TestWorkloadRoundtrip:
    def test_network_and_points(self, small_network, small_points):
        doc = workload_to_dict(small_network, small_points)
        net2, pts2 = workload_from_dict(doc)
        assert sorted(net2.edges()) == sorted(small_network.edges())
        assert net2.name == small_network.name
        for node in small_network.nodes():
            assert net2.node_coords(node) == small_network.node_coords(node)
        assert len(pts2) == len(small_points)
        for p in small_points:
            q = pts2.get(p.point_id)
            assert (q.edge, q.offset, q.label) == (p.edge, p.offset, p.label)

    def test_network_only(self, small_network):
        doc = workload_to_dict(small_network)
        net2, pts2 = workload_from_dict(doc)
        assert net2.num_edges == small_network.num_edges
        assert len(pts2) == 0

    def test_nodes_without_coords(self):
        from repro.network.graph import SpatialNetwork

        net = SpatialNetwork.from_edge_list([(1, 2, 3.0)])
        net2, _ = workload_from_dict(workload_to_dict(net))
        assert not net2.has_coords(1)
        assert net2.edge_weight(1, 2) == 3.0

    def test_labels_roundtrip(self, small_network):
        from repro.network.points import PointSet

        ps = PointSet(small_network)
        ps.add(1, 2, 0.5, label=7)
        ps.add(1, 2, 1.0, label=-1)
        ps.add(2, 3, 1.0)  # unlabeled
        _, pts2 = workload_from_dict(workload_to_dict(small_network, ps))
        assert pts2.get(0).label == 7
        assert pts2.get(1).label == -1
        assert pts2.get(2).label is None

    def test_file_roundtrip(self, tmp_path, small_network, small_points):
        path = tmp_path / "w.json"
        save_workload(path, small_network, small_points)
        net2, pts2 = load_workload_file(path)
        assert len(pts2) == len(small_points)
        # The file is genuine JSON.
        json.loads(path.read_text())

    def test_bad_format_rejected(self):
        with pytest.raises(FormatError):
            workload_from_dict({"format": "something-else"})
        with pytest.raises(FormatError):
            workload_from_dict({"format": "repro-workload", "version": 99})


class TestResultRoundtrip:
    def test_roundtrip(self):
        result = ClusteringResult(
            {0: 0, 1: 0, 2: -1},
            algorithm="eps-link",
            params={"eps": 1.5},
            stats={"wall_time_s": 0.01, "medoids": [1, 2]},
        )
        back = result_from_dict(result_to_dict(result))
        assert back.assignment == result.assignment
        assert back.algorithm == "eps-link"
        assert back.params["eps"] == 1.5

    def test_non_jsonable_stats_degrade_to_repr(self):
        result = ClusteringResult({}, algorithm="x", stats={"obj": object()})
        doc = result_to_dict(result)
        json.dumps(doc)  # must not raise
        assert isinstance(doc["stats"]["obj"], str)

    def test_file_roundtrip(self, tmp_path):
        result = ClusteringResult({5: 1}, algorithm="dbscan")
        path = tmp_path / "r.json"
        save_result(path, result)
        back = load_result_file(path)
        assert back.assignment == {5: 1}

    def test_bad_format_rejected(self):
        with pytest.raises(FormatError):
            result_from_dict({"format": "repro-workload", "version": 1})


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_property_workload_roundtrip_random(seed):
    rng = random.Random(seed)
    net = make_random_connected_network(rng, rng.randint(2, 20), extra_edges=5)
    points = scatter_points(rng, net, rng.randint(0, 15))
    net2, pts2 = workload_from_dict(workload_to_dict(net, points))
    assert sorted(net2.edges()) == pytest.approx(sorted(net.edges()))
    assert {p.point_id for p in pts2} == {p.point_id for p in points}
    for p in points:
        assert pts2.get(p.point_id).offset == pytest.approx(p.offset)


# ---------------------------------------------------------------------------
# The bulk loader against the per-object path
# ---------------------------------------------------------------------------
def _per_object(doc: dict):
    """The reference loader: one ``add_node`` / ``add_edge`` /
    ``PointSet.add`` call per record."""
    from repro.network.graph import SpatialNetwork
    from repro.network.points import PointSet

    net_doc = doc["network"]
    network = SpatialNetwork(name=net_doc.get("name", "network"))
    for record in net_doc["nodes"]:
        if len(record) == 3:
            network.add_node(int(record[0]), x=float(record[1]), y=float(record[2]))
        else:
            network.add_node(int(record[0]))
    for u, v, w in net_doc["edges"]:
        network.add_edge(int(u), int(v), float(w))
    points = PointSet(network)
    for record in doc.get("points", []):
        pid, u, v, offset = record[:4]
        label = int(record[4]) if len(record) > 4 else None
        points.add(int(u), int(v), float(offset), point_id=int(pid), label=label)
    return network, points


def _state(network, points) -> dict:
    """Everything a loader decides, in iteration order, floats as hex."""
    return {
        "name": network.name,
        "adjacency": [
            (n, [(m, w.hex()) for m, w in network.neighbors(n)])
            for n in network.nodes()
        ],
        "coords": [
            (n, network.node_coords(n)) for n in network.nodes()
            if network.has_coords(n)
        ],
        "num_edges": network.num_edges,
        "edition": network.edition,
        "points": [
            (p.point_id, p.u, p.v, p.offset.hex(), p.label) for p in points
        ],
        "groups": [
            (edge, [(p.point_id, p.offset.hex()) for p in points.points_on_edge(*edge)])
            for edge in points.populated_edges()
        ],
        "version": points.version,
    }


class TestBulkLoadParity:
    """``workload_from_dict`` loads in one bulk pass; the result and every
    rejection must equal the per-object path's."""

    def test_e2e_seed_dataset(self, tmp_path):
        from benchmarks.e2e.inputs import write_dataset

        ds = write_dataset(str(tmp_path / "w.json"), 0)
        with open(ds.path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert _state(*workload_from_dict(doc)) == _state(*_per_object(doc))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_random_documents(self, seed):
        """Shuffled records, mirrored ``u > v`` placements, offsets past
        the edge ends within tolerance, coincident offsets, repeated edges
        and node records."""
        rng = random.Random(seed)
        net = make_random_connected_network(rng, rng.randint(2, 12), extra_edges=4)
        points = scatter_points(rng, net, rng.randint(0, 15))
        doc = workload_to_dict(net, points)
        nodes, edges = doc["network"]["nodes"], doc["network"]["edges"]
        rng.shuffle(nodes)
        rng.shuffle(edges)
        if edges:
            u, v, w = rng.choice(edges)
            edges.append([v, u, w * 2.0])  # re-added: the weight is replaced
            nodes.append([u])
        weight = {}
        for a, b, w in edges:  # the last record of an edge wins
            weight[(min(a, b), max(a, b))] = w
        records = doc["points"]
        extra = []
        for record in records:
            pid, u, v, offset = record[:4]
            roll = rng.random()
            if roll < 0.3:  # given from the larger endpoint
                record[1:4] = [v, u, weight[(u, v)] - offset]
            elif roll < 0.4:  # past an edge end, within the tolerance
                record[3] = rng.choice((-5e-10, weight[(u, v)] + 5e-10))
            elif roll < 0.5:  # a coincident object, labelled
                extra.append([10_000 + pid, u, v, offset, rng.randint(-1, 3)])
        records.extend(extra)
        rng.shuffle(records)
        assert _state(*workload_from_dict(doc)) == _state(*_per_object(doc))

    @pytest.mark.parametrize("bad", [
        {"edges": [[1, 1, 1.0]]},                          # self-loop
        {"edges": [[1, 2, 0.0]]},                          # zero weight
        {"edges": [[1, 2, -1.0]]},                         # negative weight
        {"edges": [[1, 2, float("nan")]]},                 # NaN weight
        {"points": [[0, 1, 3, 0.5]]},                      # missing edge
        {"points": [[0, 1, 2, 2.5]]},                      # beyond the edge
        {"points": [[0, 2, 1, -0.1]]},                     # mirrored, beyond
        {"points": [[0, 1, 2, 0.5], [0, 1, 2, 0.7]]},      # duplicate id
        {"points": [[0, 2, 2, 0.5]]},                      # self-loop
    ], ids=["self-loop-edge", "zero-weight", "negative-weight", "nan-weight",
            "missing-edge", "offset-beyond", "mirrored-beyond", "duplicate-id",
            "self-loop-point"])
    def test_rejections(self, bad):
        doc = {
            "format": "repro-workload", "version": 1,
            "network": {"name": "n", "nodes": [[1, 0.0, 0.0], [2, 2.0, 0.0], [3]],
                        "edges": [[1, 2, 2.0]] + bad.get("edges", [])},
            "points": bad.get("points", []),
        }
        with pytest.raises(Exception) as want:
            _per_object(doc)
        with pytest.raises(Exception) as got:
            workload_from_dict(doc)
        assert type(got.value) is type(want.value)
