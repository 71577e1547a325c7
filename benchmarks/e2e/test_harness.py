"""Self-test of the benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import itertools
import json
import random
import re

import pytest

import catalog
import compare
import inputs
import layers
import reference
import serving
import summary
from repro.io import load_workload_file
from repro.live import LiveSession


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("datasets")
    return {
        name: inputs.write_dataset(str(root / f"{name}.json"), seed)
        for name, seed in (("a", 0), ("b", 0), ("c", 1))
    }


def _head(workload: str, ds, n: int) -> list:
    return list(itertools.islice(inputs.STREAMS[workload](ds), n))


@pytest.mark.parametrize("workload", sorted(inputs.STREAMS))
def test_streams_are_seeded(datasets, workload):
    assert datasets["a"].sha256 == datasets["b"].sha256
    assert _head(workload, datasets["a"], 5000) == _head(
        workload, datasets["b"], 5000)
    assert datasets["a"].sha256 != datasets["c"].sha256
    assert _head(workload, datasets["a"], 5000) != _head(
        workload, datasets["c"], 5000)
    ids = [r["id"] for r in _head(workload, datasets["a"], 5000)]
    assert len(set(ids)) == len(ids)


def test_dataset_shape(datasets):
    ds = datasets["a"]
    assert (ds.num_nodes, ds.num_edges, len(ds.labels)) == (3600, 5310, 10800)
    assert ds.eps == pytest.approx(0.2506, abs=1e-4)
    assert len(inputs.hot_points(ds)) == 2139


def test_live_stream_cannot_conflict(datasets):
    ds = datasets["a"]
    stream = _head("serve-live", ds, 60_000)
    mutations = [r["mutation"] for r in stream if r["op"] == "mutate"]
    inserted = {(m["u"], m["v"]) for m in mutations
                if m["kind"] == "insert_point"}
    reweighed = {(m["u"], m["v"]) for m in mutations
                 if m["kind"] == "reweigh_edge"}
    removed = [m["point_id"] for m in mutations if m["kind"] == "remove_point"]
    anchors = {r["point_id"] for r in stream if r["op"] != "mutate"}
    assert inserted and reweighed and removed
    assert not inserted & reweighed
    assert len(removed) == len(set(removed))
    assert not anchors & set(removed)


def _interleave(first: list, second: list, rng: random.Random) -> list:
    """A merge of two clients' requests keeping each client's order."""
    out, i, j = [], 0, 0
    while i < len(first) or j < len(second):
        if j == len(second) or (i < len(first) and rng.random() < 0.5):
            out.append(first[i])
            i += 1
        else:
            out.append(second[j])
            j += 1
    return out


@pytest.mark.parametrize("order", [0, 1, 2])
def test_live_mutations_apply_in_any_client_order(datasets, order):
    ds = datasets["a"]
    mutations = [r["mutation"] for r in _head("serve-live", ds, 3000)
                 if r["op"] == "mutate"][:120]
    sequence = _interleave(mutations[0::2], mutations[1::2],
                           random.Random(order))
    network, points = load_workload_file(ds.path)
    session = LiveSession(network, points, eps=ds.eps)
    for mutation in sequence:
        session.mutate(mutation)
    assert session.epoch == len(sequence)


def test_reference_kernel_is_fixed():
    first, second = reference.Reference(), reference.Reference()
    assert first._reached == second._reached == reference.NODES
    assert 0 < first.seconds() < 100 * reference.REFERENCE_S


class _Answered:
    def result(self):
        return []


class _HalfSpeed:
    """A reference kernel reading twice its reference time."""

    def __init__(self):
        self.calls = 0

    def seconds(self):
        self.calls += 1
        return 2 * reference.REFERENCE_S


def test_timed_loop_runs_in_scaled_slices():
    gauge = _HalfSpeed()
    requests = ({"id": f"t{i}", "op": "range", "point_id": 0, "eps": 0.1}
                for i in itertools.count())
    loop = serving.closed_loop(lambda doc: _Answered(), requests,
                               seconds=3 * serving.SLICE_S, gauge=gauge)
    assert len(loop.slices) == 3
    assert gauge.calls == len(loop.kernel_s) == 4
    assert sum(n for _s, n in loop.slices) == loop.completed > 0
    assert loop.throughput() == pytest.approx(
        2 * loop.throughput(scaled=False))
    assert reference.scale(3.0, 0.5 * reference.REFERENCE_S,
                           1.5 * reference.REFERENCE_S) == pytest.approx(3.0)


def test_percentiles_need_ten_samples_beyond():
    assert summary.supports(1000, 99)
    assert not summary.supports(999, 99)
    assert summary.percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        summary.percentile(list(range(999)), 99)
    assert summary.supports(100, 90)
    assert summary.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0


def _span(pid, sid, parent, name, t0, t1, rid, acc=None, attrs=None):
    return [pid, sid, parent, name, t0, t1, rid, 1, acc, attrs]


def test_self_time_arithmetic():
    spans = [
        _span(1, 1, None, "client.request", 0.0, 10.0, "r"),
        _span(1, 2, 1, "protocol.decode", 0.0, 1.0, "r"),
        _span(1, 3, 1, "service.submit", 1.0, 2.0, "r"),
        # another thread: joined to the request by containment
        _span(1, 4, None, "service.run_query", 3.0, 8.0, "r"),
        _span(1, 5, 4, "network.range", 4.0, 7.0, "r",
              acc={"storage": [3, 1.0]}),
        # outside the measured window
        _span(1, 6, None, "client.request", 20.0, 21.0, "s"),
    ]
    trace = layers.Trace(spans, [], (0.0, 10.0))
    table = trace.table
    assert table["wall"] == 10.0
    assert table["protocol"] == 1.0
    assert table["service"] == 1.0 + 2.0
    assert table["network"] == 2.0
    assert table["storage"] == 1.0
    assert table["unattributed"] == 3.0
    assert sum(v for k, v in table.items() if k != "wall") == 10.0
    assert layers.queue_wait(trace.trees[0]) == 1.0


def test_roundtrip_charges_worker_applies_to_live():
    send = {"worker": 9, "seq": 4, "kind": "request", "bytes": 50}
    spans = [
        _span(1, 1, None, "client.request", 0.0, 10.0, "r"),
        _span(1, 2, 1, "supervisor.submit", 0.0, 1.0, "r"),
        _span(1, 3, None, "supervisor.send", 2.0, 2.5, "r", attrs=send),
        _span(9, 1, None, "live.worker_apply", 1.5, 4.0, None),
        _span(9, 2, None, "service.run_query", 4.0, 6.0, "r"),
    ]
    events = [{"event": "recv", "worker": 9, "seq": 4, "t": 7.0, "bytes": 30}]
    trace = layers.Trace(spans, events, (0.0, 10.0))
    table = trace.table
    # roundtrip [2, 7]: send 0.5, worker busy applying 2..4, run_query 4..6
    assert table["live"] == 2.0
    assert table["service"] == 2.0
    assert table["supervisor"] == 1.0 + 0.5 + 1.0
    assert table["unattributed"] == 10.0 - 1.0 - 5.0
    assert layers.dispatch_wait(trace.trees[0]) == 2.0


BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


@pytest.mark.parametrize("base, head, better, bound, expected", [
    (BASE, [v - 20 for v in BASE], "higher", 0.1, "regression"),
    (BASE, [v + 20 for v in BASE], "higher", 0.1, "improvement"),
    (BASE, [v + 20 for v in BASE[:5]], "higher", 0.1, "unchanged"),
    (BASE, BASE[::-1], "higher", 0.1, "unchanged"),
    ([100, 60, 140, 70, 130], [95, 65, 135, 60, 120], "higher", 0.1,
     "unresolved"),
    ([100, 60, 140, 70, 130], [40, 30, 45, 35, 50], "higher", 0.1,
     "regression"),
    ([10, 10, 10, 10, 10], [10.5, 10.4, 9.9, 10.6, 10.5], "lower", 0.1,
     "unchanged"),
    ([0.0, 0.0, 0.0], [0.0, 0.01, 0.0], "lower", 0.0, "unchanged"),
    ([0.0, 0.0, 0.0], [0.01, 0.01, 0.0], "lower", 0.0, "regression"),
])
def test_compare_verdicts(base, head, better, bound, expected):
    assert compare.verdict(base, head, better, bound) == expected


def test_improvement_needs_nine_of_ten_pair_wins():
    base = [100.0] * 10
    head = [110.0] * 8 + [99.0] * 2
    assert compare.verdict(base, head, "higher", 0.5) == "unchanged"
    head = [110.0] * 9 + [99.0]
    assert compare.verdict(base, head, "higher", 0.5) == "improvement"


def _result(value: float, sha: str = "x", counts=None) -> dict:
    workload = {"metrics": {"throughput_rps": {"value": value,
                                               "unit": "req/s"}}}
    if counts is not None:
        workload["counts"] = counts
    return {"provenance": {"workload_sha256": sha, "kernel_backend": "scipy"},
            "workloads": {"serve-scatter": workload}}


def test_compare_refuses_and_checks_counts(capsys):
    benchmark = catalog.load_benchmark()
    assert compare.compare([_result(1.0)], [_result(1.0, sha="y")],
                           benchmark) == 2
    assert compare.compare([_result(1.0, counts={"a": 1})],
                           [_result(1.0, counts={"a": 2})], benchmark) == 1
    assert compare.compare([_result(1.0, counts={"a": 1})],
                           [_result(1.0, counts={"a": 1})], benchmark) == 0
    assert "counts differ" in capsys.readouterr().out


def test_benchmark_json_matches_the_harness():
    doc = catalog.load_benchmark()
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in doc["workloads"]] == list(inputs.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for entry in doc["end_to_end"]:
        unit, better, _bound, workloads = catalog.E2E[entry["name"]]
        assert (entry["unit"], entry["better"]) == (unit, better)
        assert workloads == catalog.ALL
        assert 0 < entry["bound"] <= 0.25 and name.match(entry["name"])
    setup = [e for e in doc["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        e["bound"] for e in doc["end_to_end"])
    assert {e["name"]: e["unit"] for e in doc["per_layer"]} == layers.UNIVERSAL
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert len(json.dumps(doc)) < 64 * 1024
