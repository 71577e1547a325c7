"""One parity guard for every Dijkstra shape, backend and instrumentation mode.

Each traversal shape has one plain and one instrumented loop, shared by
every backend (the CSR view adds only a scipy kernel for untargeted,
uninstrumented single-source searches).  This sweep crosses

* shape: untargeted, targeted and cutoff ``single_source``,
  ``single_source_with_paths`` and ``multi_source``;
* backend: the dict :class:`SpatialNetwork` (the oracle), a
  :class:`CSRNetwork`, a CSR view frozen without scipy, and a disk-backed
  :class:`NetworkStore`;
* mode: plain, obs counting, a non-firing fault rule on
  ``dijkstra.settle``, an unlimited :class:`OpBudget`, and a far
  :class:`Deadline`;

and asserts that results (values, dict insertion order, labels and
predecessors) equal the dict/plain oracle, and that every instrumented
mode charges exactly the work the obs counters report: one expansion and
one ``dijkstra.settle`` hit per settled node, one distance computation per
relaxed edge.
"""

from __future__ import annotations

import random

import pytest

from repro import faults, obs
from repro.faults import FaultRule, OpBudget
from repro.network import csr as csr_module
from repro.network.csr import CSRNetwork
from repro.network.dijkstra import (
    multi_source,
    single_source,
    single_source_with_paths,
)
from repro.resilience import Deadline
from repro.storage.netstore import NetworkStore
from tests.conftest import make_random_connected_network
from tests.test_csr_backend import _identical

SOURCE = 0

SHAPES = {
    "untargeted": lambda net: single_source(net, SOURCE),
    "targeted": lambda net: single_source(net, SOURCE, targets=(7, 19, 23)),
    "cutoff": lambda net: single_source(net, SOURCE, cutoff=9.0),
    "with_paths": lambda net: single_source_with_paths(net, SOURCE),
    "multi_source": lambda net: multi_source(
        net, [(0.0, SOURCE, "a"), (0.75, 11, "b"), (0.0, 26, "c")]
    ),
}

BACKENDS = ("dict", "csr", "csr_noscipy", "store")
MODES = ("plain", "obs", "fault", "budget", "deadline")


def _dijkstra_counters(call, net):
    obs.enable(fresh=True)
    try:
        result = call(net)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
    return result, {k: v for k, v in counters.items() if k.startswith("dijkstra.")}


@pytest.fixture(scope="module")
def backends(tmp_path_factory):
    net = make_random_connected_network(random.Random(41), 30, extra_edges=15)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csr_module, "_csr_matrix", None)
        noscipy = CSRNetwork.freeze(net)
    path = str(tmp_path_factory.mktemp("parity") / "net.db")
    store = NetworkStore.build(path, net)
    yield {
        "dict": net,
        "csr": CSRNetwork.freeze(net),
        "csr_noscipy": noscipy,
        "store": store,
    }
    store.close()


@pytest.fixture(scope="module")
def oracles(backends):
    """Per shape: the dict/plain result and the dict obs counter set."""
    net = backends["dict"]
    out = {}
    for name, call in SHAPES.items():
        plain = call(net)
        counted, counters = _dijkstra_counters(call, net)
        _identical(plain, counted)
        runs = "dijkstra.multi_source_runs" if name == "multi_source" else "dijkstra.runs"
        assert set(counters) == {
            runs,
            "dijkstra.heap_pops",
            "dijkstra.heap_pushes",
            "dijkstra.edges_relaxed",
            "dijkstra.nodes_settled",
        }
        assert counters[runs] == 1
        out[name] = plain, counters
    # The path tree does exactly the untargeted search's work.
    assert out["with_paths"][1] == out["untargeted"][1]
    return out


def test_noscipy_view_defines_no_kernel(backends):
    view = backends["csr_noscipy"]
    assert view.kernel_backend == "python"
    assert not hasattr(view, "dijkstra_single_source")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_shape_backend_mode_parity(shape, backend, mode, backends, oracles):
    call = SHAPES[shape]
    net = backends[backend]
    expected, counters = oracles[shape]
    settled = counters["dijkstra.nodes_settled"]
    relaxed = counters["dijkstra.edges_relaxed"]
    assert settled == len(expected[0] if isinstance(expected, tuple) else expected)

    if mode == "plain":
        result = call(net)
    elif mode == "obs":
        result, got = _dijkstra_counters(call, net)
        assert got == counters
    elif mode == "fault":
        rule = FaultRule("dijkstra.settle", "error", after=10**9)
        with faults.plan(rule) as state:
            result = call(net)
            hits = state.site_hits.get("dijkstra.settle", 0)
        assert rule.fired == 0
        assert hits == settled
    elif mode == "budget":
        budget = OpBudget()
        with budget.activate():
            result = call(net)
        assert budget.expansions == settled
        assert budget.distance_computations == relaxed
    else:
        deadline = Deadline(3600.0)
        with deadline.activate():
            result = call(net)
        assert deadline.checks == settled
    _identical(expected, result)
