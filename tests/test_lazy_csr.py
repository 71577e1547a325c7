"""The CSR backend and the landmark index, and numpy and scipy with
them, load only on request.

The dict backend — the only one the supervised tier serves live
mutations on — needs neither library, so importing the package, the CLI
or the worker entry point, and building a worker's view and live
session, must leave both out of ``sys.modules`` — with a distance cache
and no landmarks too.  The checks run in a fresh interpreter: this test
process has long since imported numpy.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.network
from repro.exceptions import ParameterError
from repro.io import save_workload
from repro.network import csr as csr_module
from repro.network.interface import resolve_backend
from repro.serve.frontend import open_live_session

from tests.conftest import make_grid_network, scatter_points

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

PROBE = textwrap.dedent(
    """
    import json, sys

    def heavy():
        return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

    seen = {}
    import repro
    seen["repro"] = heavy()
    import repro.cli
    seen["repro.cli"] = heavy()
    import repro.serve.worker as worker
    seen["repro.serve.worker"] = heavy()
    spec = json.loads(sys.argv[1])
    aug, accel, _ = worker._build_view(spec)
    if accel is not None:
        query = next(iter(aug.points))
        accel.range_query(query, 1.0)
        accel.knn_query(query, 3)
    seen["accelerated"] = accel is not None
    seen["_build_view"] = heavy()
    session = worker._build_session(spec, aug, accel)
    seen["_build_session"] = heavy()
    seen["epoch"] = session.epoch
    print(json.dumps(seen))
    """
)


def _probe(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(spec)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(done.stdout)


@pytest.fixture
def live_spec(tmp_path):
    net = make_grid_network(4, 4)
    points = scatter_points(random.Random(5), net, 12)
    workload = str(tmp_path / "w.json")
    save_workload(workload, net, points)
    wal = str(tmp_path / "m.wal")
    session = open_live_session(net, points, wal, eps=1.0)
    session.mutate({"kind": "insert_point", "u": 0, "v": 1, "offset": 0.5})
    session.wal.close()
    return {"workload": workload, "wal": wal, "epoch": 1, "live_eps": 1.0}


@pytest.mark.parametrize("backend, cache_mb", [
    pytest.param(None, 0.0, id="None"),
    pytest.param("dict", 0.0, id="dict"),
    # A distance cache without landmarks is pure Python too.
    pytest.param("dict", 1.0, id="dict-cache"),
])
def test_dict_worker_loads_neither_numpy_nor_scipy(live_spec, backend,
                                                   cache_mb):
    if backend is not None:
        live_spec["backend"] = backend
    if cache_mb:
        live_spec["distance_cache_mb"] = cache_mb
    seen = _probe(live_spec)
    assert seen.pop("epoch") == 1
    assert seen.pop("accelerated") == bool(cache_mb)
    assert seen == {
        "repro": [],
        "repro.cli": [],
        "repro.serve.worker": [],
        "_build_view": [],
        "_build_session": [],
    }


def test_perf_exports_are_lazy_attributes():
    pytest.importorskip("numpy")
    import repro.perf
    from repro.perf import DistanceAccelerator, LandmarkIndex
    from repro.perf.accel import DistanceAccelerator as accel_class
    from repro.perf.landmarks import LandmarkIndex as index_class

    assert DistanceAccelerator is accel_class
    assert LandmarkIndex is index_class
    assert set(repro.perf.__all__) >= {"DistanceAccelerator",
                                       "DistanceCache", "LandmarkIndex"}
    with pytest.raises(AttributeError):
        repro.perf.NoSuchExport  # noqa: B018


def test_csr_network_is_a_lazy_attribute():
    assert repro.CSRNetwork is csr_module.CSRNetwork
    assert repro.network.CSRNetwork is csr_module.CSRNetwork
    assert "CSRNetwork" in repro.__all__
    assert "CSRNetwork" in repro.network.__all__
    with pytest.raises(AttributeError):
        repro.network.NoSuchBackend  # noqa: B018


def test_resolve_backend():
    net = make_grid_network(3, 3)
    assert csr_module.resolve_backend is resolve_backend
    assert repro.network.resolve_backend is resolve_backend
    assert resolve_backend(net, None) is net
    assert resolve_backend(net, "dict") is net
    frozen = resolve_backend(net, "csr")
    assert isinstance(frozen, csr_module.CSRNetwork)
    assert resolve_backend(frozen, "csr") is frozen
    with pytest.raises(ParameterError, match="unknown network backend"):
        resolve_backend(net, "bogus")
