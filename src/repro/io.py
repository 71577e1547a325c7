"""JSON (de)serialisation of networks, point sets, and clustering results.

A small, dependency-free interchange format so workloads and results can be
saved, shared, and re-analysed — and so the command-line interface
(:mod:`repro.cli`) can pipeline generate → cluster → evaluate → render.

Format (version 1)::

    {
      "format": "repro-workload", "version": 1,
      "network": {
        "name": ...,
        "nodes": [[id, x, y] | [id]],
        "edges": [[u, v, weight], ...]
      },
      "points": [[id, u, v, offset, label?], ...]
    }

    {
      "format": "repro-clustering", "version": 1,
      "algorithm": ..., "params": {...}, "stats": {...},
      "assignment": {"pid": label, ...}
    }
"""

from __future__ import annotations

import json
import os

from repro.core.result import ClusteringResult
from repro.exceptions import ReproError
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet

__all__ = [
    "workload_to_dict",
    "workload_from_dict",
    "save_workload",
    "load_workload_file",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result_file",
]

_WORKLOAD_FORMAT = "repro-workload"
_RESULT_FORMAT = "repro-clustering"
_VERSION = 1


class FormatError(ReproError):
    """The file is not a recognised repro interchange document."""


# ---------------------------------------------------------------------------
# Workloads (network + points)
# ---------------------------------------------------------------------------
def workload_to_dict(network: SpatialNetwork, points: PointSet | None = None) -> dict:
    """Serialise a network (and optional point set) to a JSON-able dict."""
    nodes = []
    for node in network.nodes():
        if network.has_coords(node):
            x, y = network.node_coords(node)
            nodes.append([node, x, y])
        else:
            nodes.append([node])
    edges = [[u, v, w] for u, v, w in network.edges()]
    doc = {
        "format": _WORKLOAD_FORMAT,
        "version": _VERSION,
        "network": {"name": network.name, "nodes": nodes, "edges": edges},
        "points": [],
    }
    if points is not None:
        for p in points:
            record = [p.point_id, p.u, p.v, p.offset]
            if p.label is not None:
                record.append(p.label)
            doc["points"].append(record)
    return doc


def workload_from_dict(doc: dict) -> tuple[SpatialNetwork, PointSet]:
    """Rebuild a network and point set from :func:`workload_to_dict` output."""
    if doc.get("format") != _WORKLOAD_FORMAT:
        raise FormatError(f"not a {_WORKLOAD_FORMAT} document")
    if doc.get("version") != _VERSION:
        raise FormatError(f"unsupported version {doc.get('version')!r}")
    net_doc = doc["network"]
    network = SpatialNetwork.from_records(
        net_doc["nodes"], net_doc["edges"], name=net_doc.get("name", "network")
    )
    points = PointSet.from_records(network, doc.get("points", []))
    return network, points


def save_workload(
    path: str, network: SpatialNetwork, points: PointSet | None = None
) -> None:
    """Write a workload JSON file."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        json.dump(workload_to_dict(network, points), fh)


def load_workload_file(path: str) -> tuple[SpatialNetwork, PointSet]:
    """Read a workload JSON file."""
    with open(os.fspath(path), encoding="utf-8") as fh:
        return workload_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Clustering results
# ---------------------------------------------------------------------------
def _jsonable(value):
    """Best-effort conversion of stats values to JSON-safe types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def result_to_dict(result: ClusteringResult) -> dict:
    return {
        "format": _RESULT_FORMAT,
        "version": _VERSION,
        "algorithm": result.algorithm,
        "params": _jsonable(result.params),
        "stats": _jsonable(result.stats),
        "assignment": {str(pid): label for pid, label in result.assignment.items()},
    }


def result_from_dict(doc: dict) -> ClusteringResult:
    if doc.get("format") != _RESULT_FORMAT:
        raise FormatError(f"not a {_RESULT_FORMAT} document")
    if doc.get("version") != _VERSION:
        raise FormatError(f"unsupported version {doc.get('version')!r}")
    assignment = {int(pid): int(label) for pid, label in doc["assignment"].items()}
    return ClusteringResult(
        assignment,
        algorithm=doc.get("algorithm", "unknown"),
        params=doc.get("params", {}),
        stats=doc.get("stats", {}),
    )


def save_result(path: str, result: ClusteringResult) -> None:
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(result), fh)


def load_result_file(path: str) -> ClusteringResult:
    with open(os.fspath(path), encoding="utf-8") as fh:
        return result_from_dict(json.load(fh))
