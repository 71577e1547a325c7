"""Tests for repro.serve: service semantics, chaos sweeps, and the CLI.

The service-level contract (see ``docs/resilience.md``): every admitted
request resolves to exactly one outcome — a result or a typed error from
{DeadlineExceeded, Overloaded, CircuitOpen, ...} — workers survive poisoned
requests, shutdown drains cleanly, and under a seeded fault plan the whole
request/outcome history is deterministic.
"""

from __future__ import annotations

import gc
import json
import os
import random
import threading
import time
import weakref

import pytest

from repro import faults, obs
from repro.cli import main
from repro.exceptions import (
    Cancelled,
    DeadlineExceeded,
    Overloaded,
    ParameterError,
)
from repro.faults import CrashPoint, FaultRule
from repro.network.augmented import AugmentedView
from repro.network.queries import knn_query, range_query
from repro.recovery import RetryPolicy, retrying
from repro.resilience import CircuitBreaker, VirtualClock, breaking
from repro.serve import (
    OPS,
    QueryService,
    error_name,
    error_response,
    parse_request,
    result_response,
)
from repro.storage.netstore import NetworkStore
from tests.conftest import make_random_connected_network, scatter_points


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(23)
    net = make_random_connected_network(rng, 30, extra_edges=10)
    pts = scatter_points(rng, net, 40)
    return net, pts


def _drain_into_worker(service, timeout=5.0):
    """Wait until the admission queue is empty (the worker took the item)."""
    t0 = time.monotonic()
    while not service._queue.empty():
        if time.monotonic() - t0 > timeout:
            raise AssertionError("worker never dequeued")
        time.sleep(0.001)


def _gate(service):
    """Block every execution behind an event; returns the release handle."""
    gate = threading.Event()
    orig = service._execute

    def gated(request, aug):
        gate.wait(30)
        return orig(request, aug)

    service._execute = gated
    return gate


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_request(self):
        doc = parse_request('{"op": "range", "point_id": 1, "eps": 2.0}')
        assert doc["op"] == "range"
        with pytest.raises(ParameterError):
            parse_request("not json", lineno=3)
        with pytest.raises(ParameterError):
            parse_request("[1, 2]")
        with pytest.raises(ParameterError):
            parse_request('{"op": "explode"}')

    def test_error_taxonomy(self):
        assert error_name(DeadlineExceeded("s", 1.0, 2.0)) == "DeadlineExceeded"
        assert error_name(Cancelled("x")) == "Cancelled"
        assert error_name(Overloaded(4)) == "Overloaded"
        from repro.exceptions import (
            BudgetExceededError,
            CircuitOpenError,
            StorageError,
        )
        assert error_name(CircuitOpenError("pager", "s", 1.0)) == "CircuitOpen"
        assert error_name(BudgetExceededError("op", 1, 2)) == "BudgetExceeded"
        assert error_name(ParameterError("bad")) == "BadRequest"
        assert error_name(StorageError("hm")) == "StorageError"
        assert error_name(OSError("disk")) == "IOError"
        assert error_name(RuntimeError("?")) == "InternalError"
        # Bare lookup/conversion errors escaping deep algorithm code are
        # internal bugs, not the client's malformed request: the service
        # wraps genuine field-extraction failures in ParameterError.
        assert error_name(KeyError("eps")) == "InternalError"
        assert error_name(TypeError("x")) == "InternalError"
        assert error_name(ValueError("x")) == "InternalError"

    def test_parse_request_rejects_bad_timeout_ms(self):
        for bad in ('"abc"', "[5]", "true", "-1", "NaN"):
            with pytest.raises(ParameterError):
                parse_request(
                    '{"op": "knn", "point_id": 0, "k": 1, '
                    f'"timeout_ms": {bad}}}'
                )
        doc = parse_request(
            '{"op": "knn", "point_id": 0, "k": 1, "timeout_ms": 50.5}'
        )
        assert doc["timeout_ms"] == 50.5

    def test_responses_carry_request_id(self):
        assert result_response({"id": 7}, [1]) == {
            "ok": True, "result": [1], "id": 7,
        }
        assert "id" not in result_response({}, [1])
        doc = error_response({"id": "a"}, Overloaded(2))
        assert doc["ok"] is False and doc["error"] == "Overloaded"
        assert doc["id"] == "a"


# ----------------------------------------------------------------------
# QueryService semantics
# ----------------------------------------------------------------------
class TestQueryService:
    def test_parameters_validated(self, workload):
        net, pts = workload
        with pytest.raises(ParameterError):
            QueryService(net, pts, workers=0)
        with pytest.raises(ParameterError):
            QueryService(net, pts, queue_depth=0)

    def test_results_match_direct_queries(self, workload):
        net, pts = workload
        aug = AugmentedView(net, pts)
        anchor = pts.get(0)
        with QueryService(net, pts, workers=2) as svc:
            got = svc.call({"op": "range", "point_id": 0, "eps": 3.0})
            want = [
                [p.point_id, d] for p, d in range_query(aug, anchor, 3.0)
            ]
            assert got == want
            got = svc.call({"op": "knn", "point_id": 0, "k": 5})
            want = [[p.point_id, d] for p, d in knn_query(aug, anchor, 5)]
            assert got == want

    def test_cluster_request(self, workload):
        net, pts = workload
        from repro.core import EpsLink

        baseline = EpsLink(net, pts, eps=3.0, min_sup=2).run()
        with QueryService(net, pts) as svc:
            got = svc.call({
                "op": "cluster", "algorithm": "eps-link", "eps": 3.0,
                "min_pts": 2,
            })
        assert got["num_clusters"] == baseline.num_clusters
        assert got["assignment"] == {
            str(k): v for k, v in baseline.assignment.items()
        }

    def test_bad_requests_fail_alone(self, workload):
        net, pts = workload
        with QueryService(net, pts, workers=1) as svc:
            bad = svc.submit({"op": "range", "point_id": 0})  # missing eps
            worse = svc.submit({"op": "cluster", "algorithm": "nope"})
            unconvertible = svc.submit(
                {"op": "range", "point_id": 0, "eps": "wide"}
            )
            missing = svc.submit({"op": "range", "point_id": 10**9, "eps": 1.0})
            good = svc.submit({"op": "knn", "point_id": 0, "k": 1})
            # Every malformed-request flavor surfaces as ParameterError
            # (wire name BadRequest), never a bare KeyError/ValueError.
            for future in (bad, worse, unconvertible, missing):
                with pytest.raises(ParameterError):
                    future.result(10)
            assert len(good.result(10)) == 1  # the worker survived them all

    def test_bad_timeout_ms_rejected_at_submit(self, workload):
        net, pts = workload
        with QueryService(net, pts, workers=1) as svc:
            for bad in ("abc", [5], True, -1, float("nan")):
                with pytest.raises(ParameterError):
                    svc.submit(
                        {"op": "knn", "point_id": 0, "k": 1, "timeout_ms": bad}
                    )
            ok = svc.submit(
                {"op": "knn", "point_id": 0, "k": 1, "timeout_ms": 60000}
            )
            assert len(ok.result(10)) == 1

    def test_injected_crash_fails_alone(self, workload):
        net, pts = workload
        with QueryService(net, pts, workers=1) as svc:
            with faults.plan(FaultRule("queries.settle", "crash", after=1)):
                poisoned = svc.submit({"op": "range", "point_id": 0, "eps": 2.0})
                with pytest.raises(CrashPoint):
                    poisoned.result(10)
            healthy = svc.submit({"op": "range", "point_id": 0, "eps": 2.0})
            assert healthy.result(10)  # same worker, still serving

    def test_overload_sheds_typed(self, workload):
        net, pts = workload
        svc = QueryService(net, pts, workers=1, queue_depth=2)
        gate = _gate(svc)
        try:
            req = {"op": "range", "point_id": 0, "eps": 1.0}
            running = svc.submit(dict(req))
            _drain_into_worker(svc)  # the worker holds it at the gate
            queued = [svc.submit(dict(req)) for _ in range(2)]
            with pytest.raises(Overloaded) as exc:
                svc.submit(dict(req))
            assert "2" in str(exc.value)
            gate.set()
            for future in [running, *queued]:
                assert future.result(10) is not None
        finally:
            gate.set()
            assert svc.close()

    def test_request_aged_out_in_queue_is_shed(self, workload):
        net, pts = workload
        vc = VirtualClock()
        svc = QueryService(net, pts, workers=1, clock=vc.monotonic)
        gate = _gate(svc)
        try:
            blocker = svc.submit({"op": "range", "point_id": 0, "eps": 1.0})
            _drain_into_worker(svc)
            aged = svc.submit(
                {"op": "range", "point_id": 0, "eps": 1.0, "timeout_ms": 100}
            )
            vc.advance(0.2)  # its whole budget burns in the queue
            gate.set()
            assert blocker.result(10) is not None
            with pytest.raises(DeadlineExceeded) as exc:
                aged.result(10)
            assert exc.value.site == "serve.dequeue"
        finally:
            gate.set()
            assert svc.close()

    def test_default_timeout_applies(self, workload):
        net, pts = workload
        vc = VirtualClock()
        svc = QueryService(
            net, pts, workers=1, default_timeout_s=0.5, clock=vc.monotonic
        )
        gate = _gate(svc)
        try:
            first = svc.submit(
                {"op": "range", "point_id": 0, "eps": 1.0}, timeout_s=None
            )
            _drain_into_worker(svc)
            doomed = svc.submit({"op": "range", "point_id": 0, "eps": 1.0})
            vc.advance(1.0)
            gate.set()
            assert first.result(10) is not None
            with pytest.raises(DeadlineExceeded):
                doomed.result(10)
        finally:
            gate.set()
            assert svc.close()

    def test_submit_after_close_rejected(self, workload):
        net, pts = workload
        svc = QueryService(net, pts, workers=1)
        assert svc.close()
        with pytest.raises(RuntimeError):
            svc.submit({"op": "range", "point_id": 0, "eps": 1.0})

    def test_closed_service_freed_without_cyclic_gc(self, workload):
        # close() must leave no reference cycle through the service's
        # gauges: with the cyclic collector off, dropping the last
        # reference frees it at once.
        net, pts = workload
        gc.disable()
        try:
            svc = QueryService(net, pts, workers=1)
            assert svc.call({"op": "knn", "point_id": 0, "k": 3})
            assert svc.close()
            ref = weakref.ref(svc)
            del svc
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("config", [
        {"backend": "csr"},
        {"landmarks": 4},
        {"distance_cache_mb": 1.0},
    ], ids=["csr", "landmarks", "cache"])
    def test_closed_world_freed_without_cyclic_gc(self, config):
        # Neither the CSR view's kernel nor an accelerator's invalidation
        # hook may tie the world into a cycle: with the cyclic collector
        # off, the network, the points and the service go at once.
        rng = random.Random(5)
        net = make_random_connected_network(rng, 20, extra_edges=6)
        pts = scatter_points(rng, net, 25)
        gc.disable()
        try:
            svc = QueryService(net, pts, workers=2, **config)
            assert svc.call({"op": "knn", "point_id": 0, "k": 3})
            assert svc.call({"op": "range", "point_id": 0, "eps": 2.0})
            assert svc.close()
            refs = [weakref.ref(obj) for obj in (svc, net, pts)]
            del svc, net, pts
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_graceful_drain_finishes_queued_work(self, workload):
        net, pts = workload
        svc = QueryService(net, pts, workers=2, queue_depth=8)
        futures = [
            svc.submit({"op": "knn", "point_id": i, "k": 3}) for i in range(6)
        ]
        assert svc.close(drain=True)
        for future in futures:
            assert len(future.result(0)) == 3  # already resolved

    def test_hard_close_cancels_queued_work(self, workload):
        net, pts = workload
        svc = QueryService(net, pts, workers=1, queue_depth=4)
        gate = _gate(svc)
        running = svc.submit({"op": "range", "point_id": 0, "eps": 1.0})
        _drain_into_worker(svc)
        queued = svc.submit({"op": "range", "point_id": 0, "eps": 1.0})
        closer = threading.Thread(
            target=lambda: svc.close(drain=False), daemon=True
        )
        closer.start()
        with pytest.raises(Cancelled):
            queued.result(10)
        gate.set()  # release the in-flight request; close can now join
        closer.join(10)
        assert svc._joined()
        assert running.result(10) is not None  # in-flight work still finished

    def test_obs_counters(self, workload):
        net, pts = workload
        obs.reset()
        obs.enable()
        try:
            with QueryService(net, pts, workers=1) as svc:
                good = svc.submit({"op": "range", "point_id": 0, "eps": 1.0})
                bad = svc.submit({"op": "range", "point_id": 0})
                good.result(10)
                with pytest.raises(ParameterError):
                    bad.result(10)
            counters = obs.snapshot()["counters"]
            assert counters.get("serve.submitted") == 2
            assert counters.get("serve.completed") == 1
            assert counters.get("serve.errors") == 1
        finally:
            obs.disable()
            obs.reset()


# ----------------------------------------------------------------------
# Deterministic chaos sweep (single worker + virtual time)
# ----------------------------------------------------------------------
ALLOWED_OUTCOMES = {"DeadlineExceeded", "Overloaded", "CircuitOpen"}


def _outcome(future_or_exc):
    """Collapse a request's fate to ('ok', result) or an error name."""
    if isinstance(future_or_exc, BaseException):
        return error_name(future_or_exc)
    try:
        return ("ok", future_or_exc.result(30))
    except Exception as exc:
        return error_name(exc)


def _chaos_run(seed: int, store_path) -> dict:
    """One full chaos scenario; returns its complete outcome history.

    Deterministic by construction: one worker, a virtual clock driving both
    the request deadlines and every injected delay / retry backoff, and a
    seeded fault plan — thread scheduling can reorder nothing observable.
    """
    vc = VirtualClock()
    store = NetworkStore(store_path)
    spts = store.points()
    history = []
    breaker = CircuitBreaker(
        failure_threshold=3, reset_timeout_s=1e9, clock=vc.monotonic,
    )
    policy = RetryPolicy(max_attempts=50, base_delay=0.0, sleep=vc.sleep)
    svc = QueryService(
        store, spts, workers=1, queue_depth=4, clock=vc.monotonic
    )
    gate = _gate(svc)
    try:
        with retrying(policy):
            # Phase 1: injected latency + transient I/O faults.  Retry
            # absorbs the faults; the delays burn request budgets.
            with faults.plan(
                FaultRule("queries.settle", "delay", probability=0.3,
                          times=None, delay_s=0.05),
                FaultRule("pager.read_page", "error", probability=0.2,
                          times=None, transient=True),
                seed=seed,
                sleep=vc.sleep,
            ):
                batch = []
                blocker = svc.submit(
                    {"id": "p1-0", "op": "range", "point_id": 0, "eps": 2.0}
                )
                batch.append(("p1-0", blocker))
                _drain_into_worker(svc)
                plan = [
                    ("p1-1", {"op": "range", "point_id": 1, "eps": 2.0,
                              "timeout_ms": 100}),
                    ("p1-2", {"op": "knn", "point_id": 2, "k": 4}),
                    ("p1-3", {"op": "range", "point_id": 3, "eps": 3.0,
                              "timeout_ms": 2000}),
                    ("p1-4", {"op": "knn", "point_id": 4, "k": 3,
                              "timeout_ms": 60000}),
                    ("p1-5", {"op": "range", "point_id": 5, "eps": 2.0}),
                    ("p1-6", {"op": "knn", "point_id": 6, "k": 2}),
                    ("p1-7", {"op": "range", "point_id": 7, "eps": 1.0}),
                ]
                for rid, req in plan:  # queue depth 4: the tail is shed
                    req = {"id": rid, **req}
                    try:
                        batch.append((rid, svc.submit(req)))
                    except Overloaded as exc:
                        batch.append((rid, exc))
                vc.advance(0.2)  # ages out the 100 ms request in the queue
                gate.set()
                for rid, fate in batch:
                    history.append((rid, _outcome(fate)))
            # Phase 2: the store fails persistently; the breaker must trip
            # and convert the grind into fast CircuitOpen rejections.
            store.drop_caches()
            with faults.plan(
                FaultRule("pager.read_page", "error", probability=1.0,
                          times=None, transient=True),
                seed=seed,
                sleep=vc.sleep,
            ), breaking(breaker):
                for i in range(4):
                    rid = f"p2-{i}"
                    future = svc.submit(
                        {"id": rid, "op": "range", "point_id": i, "eps": 2.0}
                    )
                    history.append((rid, _outcome(future)))
        closed = svc.close()
    finally:
        gate.set()
        svc.close()
        store.close()
    return {
        "history": history,
        "closed": closed,
        "trips": breaker.trips,
        "rejections": breaker.rejections,
    }


class TestChaosSweep:
    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        rng = random.Random(23)
        net = make_random_connected_network(rng, 30, extra_edges=10)
        pts = scatter_points(rng, net, 40)
        path = tmp_path_factory.mktemp("chaos") / "w.store"
        NetworkStore.build(path, net, pts).close()
        return path

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_request_gets_exactly_one_typed_outcome(
        self, seed, store_path
    ):
        run = _chaos_run(seed, store_path)
        assert run["closed"], "a worker thread leaked"
        assert len(run["history"]) == 12  # 8 submitted + shed, 4 persistent
        names = []
        for rid, outcome in run["history"]:
            if isinstance(outcome, tuple):
                assert outcome[0] == "ok"
                names.append("ok")
            else:
                assert outcome in ALLOWED_OUTCOMES, (
                    f"{rid} ended as {outcome!r}"
                )
                names.append(outcome)
        # The full four-outcome spectrum appears in every seeded run.
        assert "ok" in names
        assert "DeadlineExceeded" in names  # the queue-aged 100 ms request
        assert "Overloaded" in names  # the submissions beyond the queue
        assert names[-4:] == ["CircuitOpen"] * 4  # persistent-fault phase
        assert run["trips"] == 1
        assert run["rejections"] >= 3  # every post-trip read rejected fast

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaos_is_deterministic(self, seed, store_path):
        assert _chaos_run(seed, store_path) == _chaos_run(seed, store_path)


# ----------------------------------------------------------------------
# Live telemetry: stats op, histograms, gauges, request-scoped tracing
# ----------------------------------------------------------------------
class _RaisingHistogram:
    """Stand-in instrument that must never be touched on the disabled path."""

    def observe(self, value):
        raise AssertionError("histogram work performed while obs is disabled")


class TestServeTelemetry:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_stats_op_returns_live_snapshot(self, workload):
        net, pts = workload
        obs.enable()
        with QueryService(net, pts, workers=1) as svc:
            for i in range(4):
                svc.call({"op": "knn", "point_id": i, "k": 3})
            snap = svc.call({"op": "stats"})
            json.dumps(snap)  # the wire answer must serialise as-is
            assert snap["uptime_s"] >= 0.0
            lat = snap["histograms"]["serve.latency"]
            # One worker: all four knn latencies were observed before the
            # stats request was dequeued.
            assert lat["count"] == 4
            for q in ("p50", "p90", "p99"):
                assert isinstance(lat[q], float)
            assert lat["p50"] <= lat["p90"] <= lat["p99"]
            assert lat["min"] <= lat["p50"] <= lat["max"]
            assert snap["histograms"]["serve.queue_wait"]["count"] >= 4
            assert snap["histograms"]["serve.exec"]["count"] >= 4
            gauges = snap["gauges"]
            assert gauges["serve.workers_live"] == 1
            assert gauges["serve.queue_depth"] == 0
            assert gauges["serve.inflight"] == 1  # the stats request itself
            assert gauges["breaker.state"] is None  # no breaker installed
            assert snap["counters"]["serve.completed"] >= 4

    def test_stats_reports_installed_breaker_state(self, workload):
        net, pts = workload
        obs.enable()
        with QueryService(net, pts, workers=1) as svc:
            with breaking(CircuitBreaker()):
                snap = svc.call({"op": "stats"})
        assert snap["gauges"]["breaker.state"] == 0  # closed

    def test_stats_op_serves_with_obs_disabled(self, workload):
        net, pts = workload
        assert not obs.is_enabled()
        with QueryService(net, pts, workers=1) as svc:
            svc.call({"op": "knn", "point_id": 0, "k": 2})
            snap = svc.call({"op": "stats"})
        assert snap["counters"] == {}
        assert snap["histograms"]["serve.latency"]["count"] == 0
        assert snap["gauges"]["serve.workers_live"] == 1

    def test_disabled_path_performs_no_histogram_work(self, workload):
        """With --stats/--trace/--metrics-file all absent the hot path does
        one flag check and nothing else: swap the service's instruments for
        raising stand-ins and serve anyway."""
        net, pts = workload
        assert not obs.is_enabled()
        with QueryService(net, pts, workers=2) as svc:
            boom = _RaisingHistogram()
            svc._h_latency = svc._h_queue_wait = svc._h_exec = boom
            for i in range(6):
                assert svc.call({"op": "knn", "point_id": i, "k": 2})
        assert obs.STATE.counters == {}
        from repro.obs.metrics import REGISTRY

        assert REGISTRY.histogram("serve.latency").count == 0

    def test_chaos_counters_match_wire_outcomes(self, workload, tmp_path):
        """The snapshot's shed/deadline/completed tallies must equal what
        the wire actually answered, request for request."""
        from repro.obs.metrics import REGISTRY

        net, pts = workload
        obs.enable()
        vc = VirtualClock()
        svc = QueryService(
            net, pts, workers=1, queue_depth=2, clock=vc.monotonic
        )
        gate = _gate(svc)
        fates = []
        try:
            fates.append(svc.submit({"op": "range", "point_id": 0, "eps": 2.0}))
            _drain_into_worker(svc)  # worker holds it at the gate
            fates.append(svc.submit(
                {"op": "range", "point_id": 1, "eps": 2.0, "timeout_ms": 100}
            ))
            fates.append(svc.submit({"op": "knn", "point_id": 2, "k": 3}))
            for _ in range(3):  # queue full: all three shed
                try:
                    fates.append(svc.submit({"op": "knn", "point_id": 3, "k": 2}))
                except Overloaded as exc:
                    fates.append(exc)
            vc.advance(0.2)  # ages out the 100 ms request in the queue
            gate.set()
            wire = [_outcome(f) for f in fates]
        finally:
            gate.set()
            assert svc.close()  # joins workers: every observe has landed
        shed = sum(1 for o in wire if o == "Overloaded")
        expired = sum(1 for o in wire if o == "DeadlineExceeded")
        ok = sum(1 for o in wire if isinstance(o, tuple))
        assert (shed, expired, ok) == (3, 1, 2)
        snap = svc.stats_snapshot()
        counters = snap["counters"]
        assert counters["serve.shed"] == shed
        assert counters["serve.deadline_exceeded"] == expired
        assert counters["serve.completed"] == ok
        assert counters["serve.errors"] == expired
        assert counters["serve.submitted"] == len(wire) - shed
        # Every admitted request was dequeued and timed; shed ones never.
        assert snap["histograms"]["serve.latency"]["count"] == len(wire) - shed
        assert REGISTRY.histogram("serve.queue_wait").count == len(wire) - shed
        # CI uploads this snapshot as the chaos-sweep artifact.
        artifact = os.environ.get("REPRO_CHAOS_METRICS")
        if artifact:
            with open(artifact, "w", encoding="utf-8") as fh:
                json.dump(
                    {"wire_outcomes": [
                        o if isinstance(o, str) else "ok" for o in wire
                    ], **snap},
                    fh, indent=1, sort_keys=True, default=str,
                )
                fh.write("\n")

    def test_request_scoped_tracing_records_only_flagged(
        self, workload, tmp_path
    ):
        net, pts = workload
        trace = tmp_path / "trace.jsonl"
        obs.enable(trace_path=str(trace), sample_requests=True)
        with QueryService(net, pts, workers=2) as svc:
            svc.call({"op": "knn", "point_id": 0, "k": 3})  # not traced
            svc.call({
                "op": "cluster", "algorithm": "eps-link", "eps": 2.0,
                "trace": True, "id": "T1",
            })
        obs.disable()
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "serve.request"
        assert roots[0]["attrs"] == {"request_id": "T1", "op": "cluster"}
        # The flagged request's inner spans landed under its root.
        assert {r["name"] for r in records} > {"serve.request"}
        ids = {r["span_id"] for r in records}
        assert all(
            r["parent_id"] in ids for r in records if r["parent_id"] is not None
        )

    def test_trace_requests_get_generated_ids_when_missing(
        self, workload, tmp_path
    ):
        net, pts = workload
        trace = tmp_path / "trace.jsonl"
        obs.enable(trace_path=str(trace), sample_requests=True)
        with QueryService(net, pts, workers=1) as svc:
            svc.call({"op": "knn", "point_id": 0, "k": 2, "trace": True})
        obs.disable()
        roots = [
            json.loads(line) for line in trace.read_text().splitlines()
            if json.loads(line)["parent_id"] is None
        ]
        assert len(roots) == 1
        assert roots[0]["attrs"]["request_id"].startswith("req-")

    def test_trace_file_integrity_under_concurrent_workers(
        self, workload, tmp_path
    ):
        """Hammer the pool with traced requests: every JSONL line parses,
        span ids are unique, and every parent resolves to a span in the
        file that started no later than its child."""
        net, pts = workload
        trace = tmp_path / "trace.jsonl"
        obs.enable(trace_path=str(trace), sample_requests=True)
        with QueryService(net, pts, workers=4, queue_depth=256) as svc:
            futures = [
                svc.submit({
                    "op": "cluster", "algorithm": "eps-link", "eps": 2.0,
                    "trace": True, "id": f"c{i}",
                })
                for i in range(8)
            ]
            futures += [
                svc.submit({
                    "op": "knn", "point_id": i % len(pts), "k": 2,
                    "trace": True, "id": f"k{i}",
                })
                for i in range(16)
            ]
            for future in futures:
                future.result(60)
        obs.disable()
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]  # a torn line would fail to parse
        by_id = {r["span_id"]: r for r in records}
        assert len(by_id) == len(records)  # no duplicated span ids
        for r in records:
            parent_id = r["parent_id"]
            if parent_id is None:
                continue
            parent = by_id[parent_id]  # resolves within the file
            assert parent["thread"] == r["thread"]
            assert parent["start_s"] <= r["start_s"] + 1e-9
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 24
        assert {r["name"] for r in roots} == {"serve.request"}
        assert {r["attrs"]["request_id"] for r in roots} == (
            {f"c{i}" for i in range(8)} | {f"k{i}" for i in range(16)}
        )


class TestConcurrentStoreReads:
    def test_shared_store_serves_correct_results_concurrently(self, tmp_path):
        """Many workers over one disk-backed store: every answer must match
        the sequential ground truth (the pager/buffer locks make the
        shared handle safe; without them an interleaved seek+read returns
        another request's page, which still passes its CRC)."""
        rng = random.Random(7)
        net = make_random_connected_network(rng, 30, extra_edges=10)
        pts = scatter_points(rng, net, 40)
        path = tmp_path / "w.store"
        NetworkStore.build(path, net, pts, page_size=512).close()
        # A tiny buffer keeps misses/evictions hot so the physical read
        # path is exercised constantly, not just on first touch.
        store = NetworkStore(path, buffer_bytes=512 * 2)
        try:
            spts = store.points()
            aug = AugmentedView(store, spts)
            expected = {
                i: [[p.point_id, d] for p, d in
                    range_query(aug, spts.get(i), 2.5)]
                for i in range(10)
            }
            svc = QueryService(store, spts, workers=6, queue_depth=128)
            with svc:
                futures = [
                    (i, svc.submit({"op": "range", "point_id": i, "eps": 2.5}))
                    for _ in range(4) for i in range(10)
                ]
                for i, future in futures:
                    assert future.result(60) == expected[i], f"point {i}"
        finally:
            store.close()


class TestMultiWorkerInvariants:
    def test_every_future_resolves_and_pool_drains(self, workload):
        net, pts = workload
        svc = QueryService(net, pts, workers=4, queue_depth=64)
        futures = []
        for i in range(30):
            req = {"op": OPS[i % 2], "point_id": i % len(pts)}
            if req["op"] == "range":
                req["eps"] = 2.0
            else:
                req["k"] = 3
            if i % 7 == 0:
                req["timeout_ms"] = 0  # unmeetable by design
            futures.append(svc.submit(req))
        assert svc.close(drain=True)
        for future in futures:
            try:
                result = future.result(0)
            except Exception as exc:
                assert error_name(exc) in ("DeadlineExceeded", "Cancelled")
            else:
                assert isinstance(result, list)


# ----------------------------------------------------------------------
# The serve CLI
# ----------------------------------------------------------------------
class TestServeCLI:
    @pytest.fixture
    def cli_workload(self, tmp_path):
        path = tmp_path / "w.json"
        assert main([
            "generate", "--grid", "5x5", "--points", "30", "--out", str(path),
        ]) == 0
        return path

    def test_round_trip(self, cli_workload, tmp_path, capsys):
        reqs = tmp_path / "reqs.ldjson"
        reqs.write_text("\n".join([
            '{"id": "r1", "op": "range", "point_id": 0, "eps": 2.0}',
            '{"id": "r2", "op": "knn", "point_id": 0, "k": 3}',
            '{"id": "r3", "op": "cluster", "algorithm": "eps-link", "eps": 1.5}',
            '{"id": "r4", "op": "knn", "point_id": 0, "k": 2, "timeout_ms": 0}',
            '{"id": "r5", "op": "explode"}',
            "not json",
            "",
        ]))
        out = tmp_path / "resp.ldjson"
        assert main([
            "serve", str(cli_workload), "--input", str(reqs),
            "--output", str(out), "--workers", "2",
        ]) == 0
        docs = [
            json.loads(line) for line in out.read_text().splitlines() if line
        ]
        assert [d.get("id") for d in docs] == ["r1", "r2", "r3", "r4", "r5", None]
        by_id = {d.get("id"): d for d in docs}
        assert by_id["r1"]["ok"] and len(by_id["r1"]["result"]) >= 1
        assert by_id["r2"]["ok"] and len(by_id["r2"]["result"]) == 3
        assert by_id["r3"]["ok"] and by_id["r3"]["result"]["num_clusters"] >= 1
        assert by_id["r4"] == {
            "ok": False, "error": "DeadlineExceeded",
            "message": by_id["r4"]["message"], "id": "r4",
        }
        assert by_id["r5"]["error"] == "BadRequest"
        assert by_id[None]["error"] == "BadRequest"
        assert "served 3/6" in capsys.readouterr().err

    def test_bad_timeout_ms_fails_alone(self, cli_workload, tmp_path, capsys):
        """One malformed timeout_ms answers BadRequest; the session serves on."""
        reqs = tmp_path / "reqs.ldjson"
        reqs.write_text("\n".join([
            '{"id": "r1", "op": "knn", "point_id": 0, "k": 2,'
            ' "timeout_ms": "abc"}',
            '{"id": "r2", "op": "knn", "point_id": 0, "k": 2,'
            ' "timeout_ms": -5}',
            '{"id": "r3", "op": "knn", "point_id": 0, "k": 2}',
            "",
        ]))
        out = tmp_path / "resp.ldjson"
        assert main([
            "serve", str(cli_workload), "--input", str(reqs),
            "--output", str(out),
        ]) == 0
        docs = [
            json.loads(line) for line in out.read_text().splitlines() if line
        ]
        by_id = {d["id"]: d for d in docs}
        assert by_id["r1"]["error"] == "BadRequest"
        assert by_id["r2"]["error"] == "BadRequest"
        assert by_id["r3"]["ok"] is True
        assert "served 1/3" in capsys.readouterr().err

    def test_resilience_flags_accepted(self, cli_workload, tmp_path):
        reqs = tmp_path / "reqs.ldjson"
        reqs.write_text('{"id": 1, "op": "knn", "point_id": 0, "k": 2}\n')
        out = tmp_path / "resp.ldjson"
        assert main([
            "serve", str(cli_workload), "--input", str(reqs),
            "--output", str(out), "--retries", "3",
            "--breaker-threshold", "5", "--breaker-reset-ms", "500",
            "--default-timeout-ms", "60000", "--queue-depth", "2",
        ]) == 0
        doc = json.loads(out.read_text().splitlines()[0])
        assert doc["ok"] is True

    def test_stats_op_over_the_wire(self, cli_workload, tmp_path, capsys):
        reqs = tmp_path / "reqs.ldjson"
        reqs.write_text("\n".join([
            '{"id": "q1", "op": "range", "point_id": 0, "eps": 2.0}',
            '{"id": "q2", "op": "knn", "point_id": 0, "k": 3}',
            '{"id": "s", "op": "stats"}',
            "",
        ]))
        # --stats turns telemetry on for the session.  No --output: stdout
        # is the wire, so every line of it must parse as JSON — the
        # "wrote trace" line and the --stats tables belong on stderr.
        assert main([
            "serve", str(cli_workload), "--input", str(reqs),
            "--workers", "1", "--stats",
            "--trace", str(tmp_path / "trace.jsonl"),
        ]) == 0
        captured = capsys.readouterr()
        by_id = {
            d["id"]: d for d in map(json.loads, captured.out.splitlines())
        }
        assert "wrote trace" in captured.err
        stats = by_id["s"]
        assert stats["ok"] is True
        lat = stats["result"]["histograms"]["serve.latency"]
        assert lat["count"] == 2
        assert lat["p50"] <= lat["p90"] <= lat["p99"]
        assert stats["result"]["gauges"]["serve.workers_live"] == 1
        assert stats["result"]["counters"]["serve.completed"] == 2

    def test_metrics_file_export(self, cli_workload, tmp_path, capsys):
        reqs = tmp_path / "reqs.ldjson"
        reqs.write_text("\n".join([
            '{"id": "r1", "op": "range", "point_id": 0, "eps": 2.0}',
            '{"id": "r2", "op": "knn", "point_id": 0, "k": 3}',
            '{"id": "r3", "op": "knn", "point_id": 1, "k": 2}',
            "",
        ]))
        out = tmp_path / "resp.ldjson"
        mfile = tmp_path / "metrics.jsonl"
        assert main([
            "serve", str(cli_workload), "--input", str(reqs),
            "--output", str(out),
            "--metrics-file", str(mfile), "--metrics-interval-s", "60",
        ]) == 0
        docs = [json.loads(line) for line in mfile.read_text().splitlines()]
        assert docs, "the exporter must write a final line on close"
        final = docs[-1]
        assert final["schema"] == "repro.obs.metrics-snapshot/v1"
        assert final["histograms"]["serve.latency"]["count"] == 3
        assert final["counters"]["serve.completed"] == 3
        assert "wrote metrics" in capsys.readouterr().err

    def test_metrics_interval_validated(self, cli_workload, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "serve", str(cli_workload),
                "--metrics-file", str(tmp_path / "m.jsonl"),
                "--metrics-interval-s", "0",
            ])

    def test_trace_flag_records_only_flagged_requests(
        self, cli_workload, tmp_path
    ):
        reqs = tmp_path / "reqs.ldjson"
        reqs.write_text("\n".join([
            '{"id": "plain", "op": "knn", "point_id": 0, "k": 2}',
            '{"id": "traced", "op": "knn", "point_id": 0, "k": 2,'
            ' "trace": true}',
            "",
        ]))
        out = tmp_path / "resp.ldjson"
        trace = tmp_path / "trace.jsonl"
        assert main([
            "serve", str(cli_workload), "--input", str(reqs),
            "--output", str(out), "--trace", str(trace),
        ]) == 0
        roots = [
            r for r in map(json.loads, trace.read_text().splitlines())
            if r["parent_id"] is None
        ]
        assert [r["attrs"]["request_id"] for r in roots] == ["traced"]
