"""Tests for repro.serve.supervisor: the multi-process worker pool.

Two layers of coverage, mirroring the pool's injectable seams:

* **Fake workers + VirtualClock** — scripted in-process worker handles
  drive the supervision logic (failover, poison quarantine, restart
  backoff, the storm circuit, gauge lifecycle) with zero wall-clock cost
  and fully deterministic timing.
* **Real subprocesses** — workers are actually spawned, actually
  SIGKILLed by ``kill`` fault rules at seeded execution sites, and the
  whole chaos history is asserted to be deterministic per seed,
  bit-identical to the threaded :class:`~repro.serve.QueryService`
  oracle, with every worker process reaped on close (no orphans).
"""

from __future__ import annotations

import gc
import io
import json
import os
import queue
import random
import time
import weakref

import pytest

from repro import obs
from repro.exceptions import (
    Overloaded,
    PoisonRequest,
    WorkerCrashed,
)
from repro.faults import FaultRule
from repro.obs.metrics import REGISTRY
from repro.resilience import VirtualClock
from repro.serve import (
    QueryService,
    RemoteRequestError,
    SupervisedPool,
    error_name,
)
from repro.serve.frames import MAX_FRAME, read_frame, write_frame
from repro.serve.supervisor import request_fingerprint
from repro.io import workload_to_dict
from tests.conftest import make_random_connected_network, scatter_points


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(23)
    net = make_random_connected_network(rng, 30, extra_edges=10)
    pts = scatter_points(rng, net, 40)
    return net, pts


@pytest.fixture(scope="module")
def workload_path(workload, tmp_path_factory):
    net, pts = workload
    path = tmp_path_factory.mktemp("supervised") / "w.json"
    path.write_text(json.dumps(workload_to_dict(net, pts)))
    return str(path)


# ----------------------------------------------------------------------
# Frame protocol
# ----------------------------------------------------------------------
class TestFrames:
    def test_roundtrip(self):
        buf = io.BytesIO()
        docs = [{"seq": 1, "ok": True}, {"nested": {"a": [1.5, None]}}]
        for doc in docs:
            write_frame(buf, doc)
        buf.seek(0)
        assert [read_frame(buf) for _ in docs] == docs
        assert read_frame(buf) is None  # clean EOF

    def test_every_torn_stream_reads_as_death(self):
        whole = io.BytesIO()
        write_frame(whole, {"seq": 9, "result": [1, 2, 3]})
        frame = whole.getvalue()
        # Any strict prefix — torn length, torn payload — is a death,
        # never garbage and never an exception.
        for cut in range(len(frame)):
            assert read_frame(io.BytesIO(frame[:cut])) is None, cut

    def test_undecodable_payloads_read_as_death(self):
        import struct

        bad_json = b"{not json"
        buf = io.BytesIO(struct.pack(">I", len(bad_json)) + bad_json)
        assert read_frame(buf) is None
        non_dict = b"[1, 2]"
        buf = io.BytesIO(struct.pack(">I", len(non_dict)) + non_dict)
        assert read_frame(buf) is None
        # A corrupt length prefix must not trigger a giant allocation.
        buf = io.BytesIO(struct.pack(">I", MAX_FRAME + 1) + b"x" * 16)
        assert read_frame(buf) is None

    def test_oversize_write_is_refused(self):
        class NullFile:
            def write(self, data):
                return len(data)

            def flush(self):
                pass

        with pytest.raises(ValueError):
            write_frame(NullFile(), {"blob": "x" * (MAX_FRAME + 1)})


class TestFingerprint:
    def test_id_and_trace_do_not_change_the_fingerprint(self):
        base = {"op": "range", "point_id": 3, "eps": 2.0}
        fp = request_fingerprint(base)
        assert request_fingerprint({**base, "id": "r1"}) == fp
        assert request_fingerprint({**base, "trace": True, "id": 9}) == fp

    def test_different_work_differs(self):
        a = request_fingerprint({"op": "range", "point_id": 3, "eps": 2.0})
        b = request_fingerprint({"op": "range", "point_id": 4, "eps": 2.0})
        assert a != b


# ----------------------------------------------------------------------
# Scripted fake workers: deterministic supervision-logic tests
# ----------------------------------------------------------------------
class FakeWorker:
    """In-process worker handle with scripted death.

    ``should_die(request)`` decides, per dispatched request, whether this
    worker answers or dies mid-execution (recv -> None, like a SIGKILL).
    ``born_dead`` workers never produce their ready frame — the
    never-reaches-readiness restart-storm shape.
    """

    _pids = iter(range(50_000, 60_000))

    def __init__(self, should_die=None, born_dead=False):
        self.pid = next(self._pids)
        self._out: queue.Queue = queue.Queue()
        self._dead = born_dead
        self._should_die = should_die or (lambda request: False)
        if born_dead:
            self._out.put(None)
        else:
            self._out.put({"ready": True, "pid": self.pid})

    def send(self, doc):
        if self._dead:
            raise OSError("broken pipe")
        request = doc["request"]
        if self._should_die(request):
            self.kill()
            return
        self._out.put({
            "seq": doc["seq"], "ok": True,
            "result": ["echo", request.get("id"), self.pid],
        })

    def recv(self):
        return self._out.get()

    def close_stdin(self):
        # A real worker retires on stdin EOF; mirror that exit.
        self._dead = True
        self._out.put(None)

    def kill(self):
        self._dead = True
        self._out.put(None)

    def join(self, timeout_s=None):
        return True

    def alive(self):
        return not self._dead


def _fake_pool(workload_path, factory, vc, **kw):
    kw.setdefault("processes", 2)
    kw.setdefault("backoff_base_s", 0.1)
    kw.setdefault("backoff_cap_s", 0.15)
    return SupervisedPool(
        workload_path, worker_factory=factory,
        clock=vc.monotonic, sleep=vc.sleep, **kw,
    )


def _wait(predicate, timeout=10.0, message="condition never held"):
    t0 = time.monotonic()
    while not predicate():
        if time.monotonic() - t0 > timeout:
            raise AssertionError(message)
        time.sleep(0.002)


class TestFakeSupervision:
    def test_happy_path_and_stats(self, workload_path):
        vc = VirtualClock()
        with _fake_pool(workload_path, lambda i: FakeWorker(), vc) as pool:
            results = [
                pool.call({"id": f"r{i}", "op": "knn", "point_id": 0, "k": 1})
                for i in range(4)
            ]
            assert all(r[0] == "echo" for r in results)
            stats = pool.call({"op": "stats"})
            assert stats["supervisor"]["processes"] == 2
            assert stats["supervisor"]["live"] == 2
            assert stats["supervisor"]["worker_deaths"] == 0

    def test_idempotent_request_fails_over_to_another_worker(
        self, workload_path
    ):
        vc = VirtualClock()
        budget = {"deaths": 1}

        def should_die(request):
            if request.get("boom") and budget["deaths"] > 0:
                budget["deaths"] -= 1
                return True
            return False

        obs.reset()
        obs.enable()
        try:
            with _fake_pool(
                workload_path, lambda i: FakeWorker(should_die), vc
            ) as pool:
                result = pool.call(
                    {"id": "f1", "op": "range", "point_id": 0, "eps": 1.0,
                     "boom": True}
                )
                assert result[0] == "echo"  # retried and answered
            counters = obs.snapshot()["counters"]
            assert counters.get("serve.supervisor.failovers") == 1
            assert counters.get("serve.supervisor.worker_deaths") == 1
            assert counters.get("serve.completed") == 1
        finally:
            obs.disable()
            obs.reset()

    def test_cluster_request_surfaces_worker_crashed(self, workload_path):
        vc = VirtualClock()
        budget = {"deaths": 1}

        def should_die(request):
            if request.get("op") == "cluster" and budget["deaths"] > 0:
                budget["deaths"] -= 1
                return True
            return False

        with _fake_pool(
            workload_path, lambda i: FakeWorker(should_die), vc
        ) as pool:
            with pytest.raises(WorkerCrashed) as exc_info:
                pool.call({"id": "c1", "op": "cluster",
                           "algorithm": "eps-link", "eps": 1.0})
            assert exc_info.value.request_id == "c1"
            # The pool recovered: the next cluster request succeeds.
            assert pool.call({"op": "cluster", "algorithm": "eps-link",
                              "eps": 1.0})[0] == "echo"

    def test_poison_request_is_quarantined(self, workload_path):
        vc = VirtualClock()

        def should_die(request):
            return bool(request.get("boom"))  # every executor dies

        obs.reset()
        obs.enable()
        try:
            with _fake_pool(
                workload_path, lambda i: FakeWorker(should_die), vc,
                max_restarts=10,
            ) as pool:
                poison = {"op": "range", "point_id": 0, "eps": 1.0,
                          "boom": True}
                # Kill #1 (failover) then kill #2 -> quarantine.
                with pytest.raises(PoisonRequest) as exc_info:
                    pool.call({"id": "p1", **poison})
                assert exc_info.value.deaths == 2
                # Same work under a different id is rejected at submission,
                # without being allowed near another worker.
                with pytest.raises(PoisonRequest):
                    pool.submit({"id": "p2", **poison})
                # Healthy requests still flow.
                assert pool.call({"op": "range", "point_id": 1,
                                  "eps": 1.0})[0] == "echo"
            counters = obs.snapshot()["counters"]
            assert counters.get("serve.supervisor.quarantined") == 1
            assert counters.get("serve.supervisor.worker_deaths") == 2
        finally:
            obs.disable()
            obs.reset()

    def test_restart_storm_backoff_degradation_and_counters(
        self, workload_path
    ):
        """Satellite: the always-crashing worker under a VirtualClock.

        With ``max_restarts=3`` / ``base=0.1`` / ``cap=0.15`` the simulated
        history is exact arithmetic: deaths at attempts 0..3, restart
        delays 0.1 / 0.15 / 0.15 (capped exponential), then the slot's
        breaker (threshold 4) trips and the slot degrades.  Every counter
        must match that history, not merely be positive.
        """
        vc = VirtualClock()
        obs.reset()
        obs.enable()
        try:
            pool = _fake_pool(
                workload_path, lambda i: FakeWorker(born_dead=True), vc,
                processes=1, max_restarts=3,
                backoff_base_s=0.1, backoff_cap_s=0.15,
                restart_window_s=5.0,
            )
            try:
                slot = pool._slots[0]
                _wait(lambda: slot.state == "dead",
                      message="slot never degraded")
                # Capped exponential spacing on the virtual clock.
                assert [e["delay_s"] for e in pool.restart_log] == [
                    0.1, 0.15, 0.15,
                ]
                assert [e["t"] for e in pool.restart_log] == pytest.approx(
                    [0.1, 0.25, 0.40]
                )
                assert [e["attempt"] for e in pool.restart_log] == [1, 2, 3]
                # The storm circuit is the slot's breaker: 4 counted
                # failures, one trip, one rejection (the restart attempt
                # that found it open and degraded the slot).
                assert slot.breaker.trips == 1
                assert slot.breaker.rejections == 1
                # Fully degraded pool sheds at submission.
                with pytest.raises(Overloaded):
                    pool.submit({"op": "range", "point_id": 0, "eps": 1.0})
                counters = obs.snapshot()["counters"]
                assert counters.get("serve.supervisor.restarts") == 3
                assert counters.get("serve.supervisor.worker_deaths") == 4
                assert counters.get("serve.supervisor.degraded") == 1
                assert counters.get("breaker.failures") == 4
                assert counters.get("breaker.trips") == 1
                assert counters.get("breaker.rejections") == 1
                assert counters.get("serve.shed") == 1
                snapshot = pool.stats_snapshot()["supervisor"]
                assert snapshot["degraded"] == [0]
                assert snapshot["live"] == 0
            finally:
                assert pool.close()
        finally:
            obs.disable()
            obs.reset()

    def test_degraded_pool_serves_on_surviving_workers(self, workload_path):
        vc = VirtualClock()
        spawned = {"n": 0}

        def factory(slot_index):
            # Slot 0's workers are all stillborn; slot 1's are healthy.
            spawned["n"] += 1
            return FakeWorker(born_dead=(slot_index == 0))

        with _fake_pool(
            workload_path, factory, vc, processes=2, max_restarts=2,
        ) as pool:
            _wait(lambda: pool._slots[0].state == "dead",
                  message="slot 0 never degraded")
            # The pool still answers on the surviving worker.
            for i in range(3):
                assert pool.call({"op": "knn", "point_id": 0,
                                  "k": 1})[0] == "echo"
            assert pool.stats_snapshot()["supervisor"]["live"] == 1

    def test_gauges_track_live_state_across_worker_restart(
        self, workload_path
    ):
        """Satellite: gauge lifecycle across a worker replacement.

        The pool's gauges must read live state after a restart, and a
        rogue re-registration by another component must be taken back
        over on the next replacement (ownership-checked at close)."""
        vc = VirtualClock()
        budget = {"deaths": 1}

        def should_die(request):
            if request.get("boom") and budget["deaths"] > 0:
                budget["deaths"] -= 1
                return True
            return False

        pool = _fake_pool(
            workload_path, lambda i: FakeWorker(should_die), vc, processes=2,
        )
        try:
            def gauge_value(name):
                return REGISTRY.read_gauges().get(name)

            _wait(lambda: gauge_value("serve.workers_live") == 2,
                  message="workers never both ready")
            # Another component steals the gauge (registration replaces).
            REGISTRY.gauge("serve.workers_live", lambda: -99)
            assert gauge_value("serve.workers_live") == -99
            # A worker dies and is replaced: the pool re-asserts its
            # gauges, so the name reads pool state again.
            pool.call({"op": "range", "point_id": 0, "eps": 1.0,
                       "boom": True})
            _wait(lambda: gauge_value("serve.workers_live") == 2,
                  message="gauge not re-registered after restart")
            assert gauge_value("serve.inflight") == 0
        finally:
            assert pool.close()
        # close() unregistered the pool's (re-registered) gauges.
        assert "serve.workers_live" not in REGISTRY.read_gauges()

    def test_hang_detection_kills_and_fails_over(self, workload_path):
        hung = {"workers": 1}

        class AbsorbingWorker(FakeWorker):
            """Absorbs every request forever instead of answering.

            Only the first worker constructed hangs; its replacement (and
            every later worker) is healthy — so the one dispatched request
            must ride the hang-SIGKILL-failover path to come back."""

            def __init__(self):
                super().__init__()
                self._absorb = hung["workers"] > 0
                if self._absorb:
                    hung["workers"] -= 1

            def send(self, doc):
                if self._absorb and "request" in doc:
                    return  # swallow it: the supervisor sees only silence
                super().send(doc)

        obs.reset()
        obs.enable()
        try:
            # Real clock here: the monitor thread sleeps real time, and a
            # VirtualClock would never age `dispatched_at`.  One slot keeps
            # the dispatch -> hang -> kill -> failover order deterministic.
            pool = SupervisedPool(
                workload_path, processes=1,
                worker_factory=lambda i: AbsorbingWorker(),
                hang_timeout_s=0.05, monitor_interval_s=0.01,
                backoff_base_s=0.001, backoff_cap_s=0.002,
            )
            try:
                result = pool.call(
                    {"id": "h1", "op": "range", "point_id": 0, "eps": 1.0}
                )
                assert result[0] == "echo"  # failed over after the SIGKILL
                counters = obs.snapshot()["counters"]
                assert counters.get("serve.supervisor.hangs", 0) >= 1
                assert counters.get("serve.supervisor.failovers") == 1
            finally:
                assert pool.close()
        finally:
            obs.disable()
            obs.reset()

    def test_every_request_one_terminal_outcome_mixed_sweep(
        self, workload_path
    ):
        vc = VirtualClock()
        calls = {"n": 0}

        def should_die(request):
            calls["n"] += 1
            return calls["n"] % 5 == 0  # every 5th dispatched request kills

        with _fake_pool(
            workload_path, lambda i: FakeWorker(should_die), vc,
            processes=2, max_restarts=50, poison_threshold=3,
        ) as pool:
            fates = []
            for i in range(30):
                req = {"id": i, "op": "range", "point_id": i % 7,
                       "eps": 1.0 + i}
                try:
                    fates.append(pool.submit(req))
                except (Overloaded, PoisonRequest) as exc:
                    fates.append(exc)
            outcomes = []
            for fate in fates:
                if isinstance(fate, BaseException):
                    outcomes.append(error_name(fate))
                else:
                    try:
                        fate.result(30)
                        outcomes.append("ok")
                    except Exception as exc:
                        outcomes.append(error_name(exc))
            assert len(outcomes) == 30
            allowed = {"ok", "Overloaded", "WorkerCrashed", "PoisonRequest"}
            assert set(outcomes) <= allowed


# ----------------------------------------------------------------------
# Real subprocesses: SIGKILL chaos, oracle identity, orphan-free close
# ----------------------------------------------------------------------
def _assert_reaped(pids):
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        # PID may exist as an unreaped zombie of *another* process or be
        # recycled; give the scheduler a beat, then insist.
        time.sleep(0.2)
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        raise AssertionError(f"worker pid {pid} survived close()")


class TestProcessPool:
    def test_results_bit_identical_to_threaded_oracle(
        self, workload, workload_path
    ):
        net, pts = workload
        requests = []
        for i, p in enumerate(list(pts)[:6]):
            requests.append({"id": f"r{i}", "op": "range",
                             "point_id": p.point_id, "eps": 2.5})
            requests.append({"id": f"k{i}", "op": "knn",
                             "point_id": p.point_id, "k": 4})
        requests.append({"id": "c", "op": "cluster",
                         "algorithm": "eps-link", "eps": 1.5})
        requests.append({"id": "bad", "op": "range", "point_id": 10 ** 9,
                         "eps": 1.0})
        with SupervisedPool(workload_path, processes=2) as pool, \
                QueryService(net, pts, workers=2) as svc:
            for request in requests:
                fates = []
                for tier in (pool, svc):
                    try:
                        fates.append(("ok", tier.call(dict(request))))
                    except Exception as exc:
                        fates.append((error_name(exc), str(exc)))
                # Same JSON document both ways: results equal after a
                # round-trip, and error taxonomy names match exactly.
                a, b = fates
                assert a[0] == b[0], request
                if a[0] == "ok":
                    assert json.loads(json.dumps(a[1])) == \
                        json.loads(json.dumps(b[1])), request

    def test_worker_side_bad_request_keeps_wire_taxonomy(
        self, workload_path
    ):
        with SupervisedPool(workload_path, processes=1) as pool:
            with pytest.raises(RemoteRequestError) as exc_info:
                pool.call({"op": "range", "point_id": 10 ** 9, "eps": 1.0})
            assert error_name(exc_info.value) == "BadRequest"
            with pytest.raises(RemoteRequestError) as exc_info:
                pool.call({"op": "range", "point_id": 0})  # missing eps
            assert error_name(exc_info.value) == "BadRequest"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kill_chaos_deterministic_and_orphan_free(
        self, seed, workload, workload_path
    ):
        """The acceptance sweep: seeded SIGKILLs at a traversal site.

        One slot gives a strictly deterministic worker lineage: requests
        are dispatched sequentially to the sole worker, each fresh worker
        counts its fault hits from zero, so the request at which the
        ``after``-th ``queries.settle`` hit fires — and everything
        downstream of it — is exact.  Per seed: the outcome history is
        identical run-to-run, every request ends in exactly one terminal
        outcome, successful results are bit-identical to the threaded
        oracle, and close() reaps every worker process the run spawned."""
        net, pts = workload
        point_ids = [p.point_id for p in pts]

        def chaos_run():
            # The hit lands inside request id 7, 5 and 3 (seeds 0, 1,
            # 2); range requests charge one hit per node settle.
            rule = FaultRule("queries.settle", kind="kill",
                             after=(9, 12, 13)[seed], times=None)
            pool = SupervisedPool(
                workload_path, processes=1,
                fault_rules=(rule,), fault_seed=seed,
                backoff_base_s=0.01, backoff_cap_s=0.05, max_restarts=8,
            )
            history = []
            try:
                for i, pid in enumerate(point_ids[:15]):
                    request = {"id": i, "op": "range", "point_id": pid,
                               "eps": 3.0 + (seed % 3)}
                    try:
                        history.append(
                            (i, "ok", pool.call(request))
                        )
                    except Exception as exc:
                        history.append((i, error_name(exc), None))
                supervisor = pool.stats_snapshot()["supervisor"]
            finally:
                closed = pool.close()
            assert closed, "close() left a worker running"
            _assert_reaped(pool.spawned_pids)
            return history, supervisor

        first_history, first_sup = chaos_run()
        second_history, second_sup = chaos_run()
        # CI uploads the per-seed outcome history as the sweep artifact.
        artifact = os.environ.get("REPRO_SUPERVISION_HISTORY")
        if artifact:
            with open(f"{artifact}_seed{seed}.json", "w",
                      encoding="utf-8") as fh:
                json.dump(
                    {"seed": seed, "history": first_history,
                     "supervisor": first_sup},
                    fh, indent=1, sort_keys=True, default=str,
                )
        # Identical per-seed outcome history, including float payloads.
        assert first_history == second_history
        assert first_sup["worker_deaths"] == second_sup["worker_deaths"]
        assert len(first_history) == 15  # one terminal outcome each
        # The sweep actually exercised supervision.
        assert first_sup["worker_deaths"] >= 1, "no kill fired; dead sweep"
        # Survivor results match the in-process oracle bit-for-bit.
        with QueryService(net, pts, workers=1) as svc:
            for i, status, result in first_history:
                if status != "ok":
                    assert status in {"WorkerCrashed", "PoisonRequest"}
                    continue
                oracle = svc.call({"op": "range",
                                   "point_id": point_ids[i],
                                   "eps": 3.0 + (seed % 3)})
                assert json.loads(json.dumps(result)) == \
                    json.loads(json.dumps(oracle))

    def test_poison_request_quarantined_with_real_kills(
        self, workload, workload_path
    ):
        # after=20 is low enough that one whole-network range request
        # alone crosses it (it settles all 30 nodes): the executing
        # worker dies, the failover's fresh worker dies at the same
        # deterministic hit, and the fingerprint is quarantined.
        _, pts = workload
        anchor = next(iter(pts)).point_id
        rule = FaultRule("queries.settle", kind="kill", after=20, times=None)
        pool = SupervisedPool(
            workload_path, processes=2, fault_rules=(rule,), fault_seed=0,
            backoff_base_s=0.01, backoff_cap_s=0.05, max_restarts=8,
        )
        try:
            with pytest.raises(PoisonRequest) as exc_info:
                pool.call({"id": "big", "op": "range", "point_id": anchor,
                           "eps": 10 ** 6})
            assert exc_info.value.deaths == 2
            with pytest.raises(PoisonRequest):
                pool.submit({"id": "again", "op": "range",
                             "point_id": anchor, "eps": 10 ** 6})
        finally:
            assert pool.close()
        _assert_reaped(pool.spawned_pids)

    def test_close_is_orphan_free_with_idle_workers(
        self, workload, workload_path
    ):
        _, pts = workload
        anchor = next(iter(pts)).point_id
        pool = SupervisedPool(workload_path, processes=3)
        assert pool.call({"op": "knn", "point_id": anchor, "k": 1})
        assert pool.close()
        assert len(pool.spawned_pids) == 3
        _assert_reaped(pool.spawned_pids)


    def test_closed_pool_freed_without_cyclic_gc(
        self, workload, workload_path, tmp_path
    ):
        # A pool with a mutation log holds no reference cycle after
        # close(): with the cyclic collector off, the pool, its session
        # and the session's world go with the last reference.
        _, pts = workload
        anchor = next(iter(pts)).point_id
        gc.disable()
        try:
            pool = SupervisedPool(workload_path, processes=1,
                                  wal_path=str(tmp_path / "live.wal"),
                                  live_eps=2.0)
            assert pool.call({"op": "knn", "point_id": anchor, "k": 2})
            assert pool.close()
            session = pool.session
            refs = [weakref.ref(obj) for obj in (
                pool, session, session.points, session.network)]
            del pool, session
            assert [ref() for ref in refs] == [None] * 4
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# A replayed reweigh retires a built landmark index
# ----------------------------------------------------------------------
def _reweigh_first_edge(net) -> dict:
    u, v = min((a, b) for a, b, _w in net.edges())
    # Reweigh *up*, past the generator's 10.0 ceiling: guaranteed to
    # change distances and conflict-free whatever sits on the edge.
    return {"kind": "reweigh_edge", "u": u, "v": v, "weight": 11.0}


class TestReplayedReweighDegradesIndex:
    """A ``reweigh_edge`` already in the mutation log must degrade the
    landmark index a (re)started worker built: its bounds bind to the
    pre-replay edge weights, and a worker that kept them would serve
    stale range/knn answers.  Both tiers then report ``"degraded"``."""

    LANDMARKS = 4

    def make_wal_with_reweigh(self, workload_path: str,
                              wal_path: str) -> None:
        from repro.io import load_workload_file
        from repro.live import LiveSession, WriteAheadLog

        net, pts = load_workload_file(workload_path)
        writer = LiveSession(net, pts, eps=2.0, wal=WriteAheadLog(wal_path))
        writer.mutate(_reweigh_first_edge(net))
        writer.close()

    def oracle_answers(self, workload_path: str, wal_path: str,
                       requests: list) -> list:
        """Unaccelerated answers over the replayed (mutated) world."""
        from repro.io import load_workload_file
        from repro.live import LiveSession, WriteAheadLog
        from repro.network.augmented import AugmentedView
        from repro.serve.service import run_query

        net, pts = load_workload_file(workload_path)
        session = LiveSession(
            net, pts, eps=2.0,
            wal=WriteAheadLog(wal_path, read_only=True),
        )
        try:
            session.replay_wal()
            aug = AugmentedView(session.network, session.points)
            return [run_query(r, aug) for r in requests]
        finally:
            session.close()

    def test_restarted_worker_replays_reweigh_and_degrades(
        self, workload, workload_path, tmp_path
    ):
        """Drive one worker in-process over a log holding a reweigh: the
        ready frame must report ``degraded`` (not ``built``) and every
        answer must match the unaccelerated oracle on the reweighed
        network."""
        pytest.importorskip("numpy")
        from repro.serve.worker import worker_entry

        wal_path = str(tmp_path / "reweigh.wal")
        self.make_wal_with_reweigh(workload_path, wal_path)
        _net, pts = workload
        requests = [
            {"op": "knn", "point_id": p.point_id, "k": 4}
            for p in list(pts)[:6]
        ]
        stdin = io.BytesIO()
        for i, request in enumerate(requests):
            write_frame(stdin, {"seq": i, "request": request})
        stdin.seek(0)
        stdout = io.BytesIO()
        spec = {
            "workload": workload_path,
            "landmarks": self.LANDMARKS,
            "wal": wal_path,
            "epoch": 1,
            "live_eps": 2.0,
        }
        assert worker_entry(spec, stdin=stdin, stdout=stdout) == 0
        stdout.seek(0)
        ready = read_frame(stdout)
        assert ready["ready"] and ready["epoch"] == 1
        assert ready["index"] == "degraded"
        answers = []
        for _ in requests:
            frame = read_frame(stdout)
            assert frame["ok"], frame
            answers.append(frame["result"])
        assert answers == self.oracle_answers(
            workload_path, wal_path, requests
        )

    def test_pool_restart_with_reweigh_in_log_degrades(
        self, workload_path, tmp_path
    ):
        """Chaos acceptance: a pool acknowledges a reweigh, dies, and a
        replacement pool over the same log comes up with every worker
        degraded — no restarted worker ever serves the stale bounds — as
        the threaded tier reports after the same reweigh."""
        pytest.importorskip("numpy")
        from repro.io import load_workload_file
        from repro.serve.frontend import open_live_session

        net, pts = load_workload_file(workload_path)
        reweigh = _reweigh_first_edge(net)
        requests = [
            {"op": "knn", "point_id": p.point_id, "k": 4}
            for p in list(pts)[:6]
        ]
        wal_path = str(tmp_path / "pool_reweigh.wal")
        pool = SupervisedPool(
            workload_path, processes=2, landmarks=self.LANDMARKS,
            wal_path=wal_path, live_eps=2.0,
        )
        try:
            # Both workers must be up before the mutate, or a slow spawn
            # legitimately replays the reweigh and reports degraded.
            deadline = time.monotonic() + 30.0
            while pool.stats_snapshot()["supervisor"]["live"] < 2:
                assert time.monotonic() < deadline, "workers never came up"
                time.sleep(0.05)
            ack = pool.call({"op": "mutate", "mutation": reweigh})
            assert ack["epoch"] == 1
        finally:
            assert pool.close()
        # The acknowledged reweigh degraded both workers' entries.
        assert pool.index_sources == ["degraded", "degraded"]
        pool2 = SupervisedPool(
            workload_path, processes=2, landmarks=self.LANDMARKS,
            wal_path=wal_path, live_eps=2.0,
        )
        try:
            answers = [pool2.call(r) for r in requests]
        finally:
            assert pool2.close()
        assert set(pool2.index_sources) == {"degraded"}
        assert answers == self.oracle_answers(
            workload_path, wal_path, requests
        )
        # Tier parity: the threaded tier, after the same reweigh.
        session = open_live_session(
            net, pts, str(tmp_path / "threaded.wal"), eps=2.0
        )
        svc = QueryService(net, pts, workers=1, landmarks=self.LANDMARKS,
                           session=session)
        try:
            assert svc.index_source == "built"
            svc.call({"op": "mutate", "mutation": reweigh})
            assert {svc.index_source} == set(pool2.index_sources)
        finally:
            svc.close()
            session.close()
