"""One front end, two executors: the serve contract checked on both tiers.

Every test here runs against the threaded :class:`~repro.serve.QueryService`
and the supervised :class:`~repro.serve.SupervisedPool`.  The pool is
driven by in-process workers that run the real worker request code
(:func:`repro.serve.worker._serve_one`) on the supervisor's pipes-shaped
handle protocol, so no process is spawned and both tiers answer from the
same code.  Where the tiers deliberately differ — where ``stats`` and
``mutate`` run — the difference is pinned as a test case, not left as a
silent choice.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import queue
import random
import threading
import time

import pytest

from repro import obs
from repro.cli import main
from repro.exceptions import (
    Cancelled,
    DeadlineExceeded,
    Overloaded,
    ParameterError,
)
from repro.io import load_workload_file, workload_to_dict
from repro.network.augmented import AugmentedView
from repro.resilience import Deadline, TickingClock, VirtualClock
from repro.resilience import deadline as deadline_mod
from repro.serve import QueryService, SupervisedPool
from repro.serve import service as service_mod
from repro.serve import worker as worker_mod
from repro.serve.frames import read_frame, write_frame
from repro.serve.frontend import open_live_session
from repro.serve.protocol import error_name
from repro.serve.worker import _build_session, _serve_one, worker_entry
from tests.conftest import make_random_connected_network, scatter_points

TIERS = ("threaded", "supervised")
LIVE_EPS = 2.0


@pytest.fixture(scope="module")
def workload_path(tmp_path_factory):
    rng = random.Random(31)
    net = make_random_connected_network(rng, 24, extra_edges=8)
    pts = scatter_points(rng, net, 30)
    path = tmp_path_factory.mktemp("tiers") / "w.json"
    path.write_text(json.dumps(workload_to_dict(net, pts)))
    return str(path)


@pytest.fixture
def counters():
    """Observability on, counters from zero; yields a snapshot reader."""
    obs.reset()
    obs.enable()
    yield lambda: dict(obs.snapshot()["counters"])
    obs.disable()
    obs.reset()


class InProcessWorker:
    """A worker handle running the real worker request code in-process.

    ``gate`` (a :class:`threading.Event`) holds every request answer in
    :meth:`recv` until it is set, so a test can keep the worker busy and
    work queued.  With ``wal`` the worker replays the pool's log into an
    apply-only session, as a worker process does.
    """

    _pids = itertools.count(70_000)

    def __init__(self, workload_path, gate=None, wal=None, born_dead=False):
        self.pid = next(self._pids)
        self._gate = gate
        self._out: queue.Queue = queue.Queue()
        self._dead = born_dead
        self._session = None
        if born_dead:
            self._out.put(None)
            return
        network, points = load_workload_file(workload_path)
        self._aug = AugmentedView(network, points)
        ready = {"ready": True, "pid": self.pid, "index": "none"}
        if wal is not None:
            self._session = _build_session(
                {"wal": wal, "live_eps": LIVE_EPS}, self._aug, None
            )
            ready["epoch"] = self._session.epoch
        self._out.put(ready)

    def send(self, doc):
        if self._dead:
            raise OSError("broken pipe")
        self._out.put(_serve_one(doc, self._aug, None, self._session))

    def recv(self):
        doc = self._out.get()
        if self._gate is not None and doc is not None and "ok" in doc:
            self._gate.wait(30)
        return doc

    def close_stdin(self):
        self._dead = True
        self._out.put(None)

    kill = close_stdin

    def join(self, timeout_s=None):
        return True

    def alive(self):
        return not self._dead


def _gate_threaded(service, gate):
    execute = service._execute

    def gated(request, aug):
        gate.wait(30)
        return execute(request, aug)

    service._execute = gated


def open_tier(tier, workload_path, *, gate=None, wal=None, born_dead=False,
              **kw):
    """One service of ``tier`` over the workload, one executor wide."""
    if tier == "threaded":
        network, points = load_workload_file(workload_path)
        session = None
        if wal is not None:
            session = open_live_session(network, points, wal, eps=LIVE_EPS)
        service = QueryService(network, points, workers=1, session=session,
                               **kw)
        if gate is not None:
            _gate_threaded(service, gate)
        return service
    pool = SupervisedPool(
        workload_path, processes=1, wal_path=wal, live_eps=LIVE_EPS,
        max_restarts=0 if born_dead else 3,
        worker_factory=lambda i: InProcessWorker(
            workload_path, gate=gate, wal=wal, born_dead=born_dead
        ),
        **kw,
    )
    if not born_dead:
        _wait(lambda: pool.stats_snapshot()["supervisor"]["live"] == 1)
    return pool


def close_tier(service):
    assert service.close()
    if service.session is not None:
        service.session.close()  # idempotent; the threaded tier borrows it


def _wait(predicate, timeout=10.0):
    t0 = time.monotonic()
    while not predicate():
        if time.monotonic() - t0 > timeout:
            raise AssertionError("condition never held")
        time.sleep(0.002)


def _outcome(future):
    try:
        future.result(10)
    except Exception as exc:  # noqa: BLE001 - classifying outcomes
        return type(exc).__name__
    return "ok"


def _insert(workload_path):
    """A mutate request inserting a point mid-way along the first edge."""
    network, _points = load_workload_file(workload_path)
    u, v, w = next(iter(network.edges()))
    return {"op": "mutate", "mutation": {
        "kind": "insert_point", "u": u, "v": v, "offset": w / 2,
    }}


def _knn(i=0):
    return {"op": "knn", "point_id": i, "k": 3}


# ----------------------------------------------------------------------
# The shared front end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", TIERS)
class TestFrontEnd:
    @pytest.mark.parametrize("raw", ["abc", [5], True, -1, float("nan")])
    def test_bad_timeout_ms_refused_at_submit(self, tier, workload_path,
                                              counters, raw):
        service = open_tier(tier, workload_path)
        try:
            with pytest.raises(ParameterError) as exc_info:
                service.submit({**_knn(), "timeout_ms": raw})
            assert str(exc_info.value) == (
                f"timeout_ms must be a number >= 0, got {raw!r}"
            )
        finally:
            close_tier(service)
        assert "serve.submitted" not in counters()

    def test_submit_after_close_raises(self, tier, workload_path):
        service = open_tier(tier, workload_path)
        close_tier(service)
        with pytest.raises(RuntimeError, match="is closed"):
            service.submit(_knn())
        assert service.close()  # a second close is a no-op

    def test_hard_close_cancels_queued_and_counts_what_clients_saw(
        self, tier, workload_path, counters
    ):
        gate = threading.Event()
        service = open_tier(tier, workload_path, queue_depth=4, gate=gate)
        try:
            futures = [service.submit(_knn(i)) for i in range(4)]
            # Either executor holds one request; the rest stay queued.
            queued = 3
            _wait(lambda: service._queue.qsize() == queued)
            withdrawn = futures[-1]
            assert withdrawn.cancel()  # its client gives up on it
            closer = threading.Thread(
                target=lambda: service.close(drain=False), daemon=True
            )
            closer.start()
            with pytest.raises(Cancelled):
                futures[-2].result(10)
            gate.set()
            closer.join(10)
            outcomes = [_outcome(f) for f in futures[:-1]]
        finally:
            gate.set()
            close_tier(service)
        assert withdrawn.cancelled()
        # Only what sat in the admission queue is cancelled; the rest ran.
        ok = outcomes.count("ok")
        assert outcomes.count("Cancelled") == queued - 1
        assert ok == 3 - (queued - 1)
        seen = counters()
        assert seen["serve.submitted"] == 4
        assert seen.get("serve.completed", 0) == ok
        # Neither the sweep's Cancelled nor the client's own cancel is an
        # error: nobody ran those requests.
        assert "serve.errors" not in seen

    def test_graceful_close_drains_admitted_work(self, tier, workload_path):
        gate = threading.Event()
        service = open_tier(tier, workload_path, queue_depth=4, gate=gate)
        try:
            futures = [service.submit(_knn(i)) for i in range(4)]
            closer = threading.Thread(target=service.close, daemon=True)
            closer.start()
            gate.set()
            closer.join(10)
            assert [len(f.result(0)) for f in futures] == [3] * 4
        finally:
            gate.set()
            close_tier(service)

    def test_counters_equal_wire_outcomes(self, tier, workload_path,
                                          counters):
        vc = VirtualClock()
        gate = threading.Event()
        service = open_tier(tier, workload_path, queue_depth=2, gate=gate,
                            clock=vc.monotonic)
        fates = []
        try:
            fates.append(service.submit(_knn(0)))
            _wait(lambda: service._queue.empty())  # the executor holds it
            fates.append(service.submit({**_knn(2), "timeout_ms": 100}))
            fates.append(service.submit({"op": "range", "point_id": 3}))
            for _ in range(2):  # queue full: shed
                try:
                    fates.append(service.submit(_knn(4)))
                except Overloaded as exc:
                    fates.append(exc)
            vc.advance(0.2)  # ages out the 100 ms request in the queue
            gate.set()
            wire = [
                type(f).__name__ if isinstance(f, Exception) else _outcome(f)
                for f in fates
            ]
        finally:
            gate.set()
            close_tier(service)
        seen = counters()
        shed = wire.count("Overloaded")
        expired = wire.count("DeadlineExceeded")
        failed = sum(o not in ("ok", "Overloaded") for o in wire)
        assert (shed, expired) == (2, 1)
        assert failed == 2  # the expired one and the range without eps
        assert seen["serve.shed"] == shed
        assert seen["serve.submitted"] == len(wire) - shed
        assert seen["serve.completed"] == wire.count("ok")
        assert seen["serve.errors"] == failed
        assert seen["serve.deadline_exceeded"] == expired

    def test_stats_document_keys(self, tier, workload_path, tmp_path,
                                 counters):
        service = open_tier(tier, workload_path,
                            wal=str(tmp_path / "m.wal"))
        try:
            doc = service.call({"op": "stats"})
        finally:
            close_tier(service)
        json.dumps(doc)
        tier_keys = {"threaded": set(), "supervised": {"supervisor"}}[tier]
        assert set(doc) == {
            "uptime_s", "counters", "histograms", "gauges", "epoch", "wal",
        } | tier_keys
        assert {"serve.latency", "serve.queue_wait", "serve.exec"} <= set(
            doc["histograms"]
        )
        gauges = {"serve.queue_depth", "serve.workers_live",
                  "serve.inflight", "serve.epoch"}
        # breaker.state (and perf.cache.hit_ratio with a cache) sample
        # this process; only the threaded tier runs requests here.
        tier_gauges = {"threaded": {"breaker.state"}, "supervised": set()}
        assert set(doc["gauges"]) == gauges | tier_gauges[tier]

    def test_live_op_without_session_refused_uncounted(
        self, tier, workload_path, counters
    ):
        service = open_tier(tier, workload_path)
        try:
            for op in ("mutate", "subscribe_epoch", "snapshot"):
                with pytest.raises(ParameterError, match="requires live"):
                    service.submit({"op": op})
        finally:
            close_tier(service)
        seen = counters()
        assert "serve.submitted" not in seen
        assert "serve.errors" not in seen

    def test_expired_mutate_does_no_work(self, tier, workload_path,
                                         tmp_path, counters):
        wal = str(tmp_path / "m.wal")
        service = open_tier(tier, workload_path, wal=wal)
        try:
            size = os.path.getsize(wal)
            with pytest.raises(DeadlineExceeded):
                service.call({**_insert(workload_path), "timeout_ms": 0})
            assert service.session.epoch == 0
            assert os.path.getsize(wal) == size
            with pytest.raises(DeadlineExceeded):
                service.call({"op": "subscribe_epoch", "timeout_ms": 0})
        finally:
            close_tier(service)
        seen = counters()
        assert seen["serve.errors"] == seen["serve.deadline_exceeded"] == 2
        assert "serve.completed" not in seen

    def test_close_cancels_parked_subscriber(self, tier, workload_path,
                                             tmp_path):
        service = open_tier(tier, workload_path,
                            wal=str(tmp_path / "m.wal"))
        future = service.submit({"op": "subscribe_epoch", "from_epoch": 0})
        close_tier(service)
        with pytest.raises(Cancelled):
            future.result(10)

    def test_csr_backend_refuses_live_mutations(self, tier, workload_path,
                                                tmp_path):
        wal = tmp_path / "m.wal"
        with pytest.raises(ParameterError, match="cannot serve live"):
            if tier == "threaded":
                network, points = load_workload_file(workload_path)
                QueryService(network, points, session=object(),
                             backend="csr")
            else:
                SupervisedPool(workload_path, wal_path=str(wal),
                               backend="csr")
        assert not wal.exists()  # refused before the log is opened

    def test_cli_refuses_csr_with_wal(self, tier, workload_path, tmp_path):
        wal = tmp_path / "m.wal"
        processes = {"threaded": "0", "supervised": "1"}[tier]
        with pytest.raises(SystemExit, match="cannot serve live"):
            main(["serve", workload_path, "--backend", "csr",
                  "--wal", str(wal), "--processes", processes])
        assert not wal.exists()


# ----------------------------------------------------------------------
# The differences the tiers keep on purpose
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", TIERS)
def test_where_stats_and_mutate_run(tier, workload_path, tmp_path):
    """Threaded: both queue behind the busy worker.  Supervised: both are
    answered on the submitting thread while the worker is still busy."""
    gate = threading.Event()
    service = open_tier(tier, workload_path, gate=gate,
                        wal=str(tmp_path / "m.wal"))
    try:
        busy = service.submit(_knn())
        _wait(lambda: service._queue.empty())
        stats = service.submit({"op": "stats"})
        mutate = service.submit(_insert(workload_path))
        inline = tier == "supervised"
        assert stats.done() is inline
        assert mutate.done() is inline
        gate.set()
        assert busy.result(10)
        assert mutate.result(10)["epoch"] == 1
        assert stats.result(10)["epoch"] == 0  # submitted before the mutate
    finally:
        gate.set()
        close_tier(service)


def test_worker_frames_carry_only_finite_deadlines(workload_path):
    """No ``timeout_ms``: the frame has no ``deadline_s`` key (not
    ``Infinity``) and is strict JSON; with one, a finite remaining budget
    is shipped."""
    frames = []

    class Recording(InProcessWorker):
        def send(self, doc):
            frames.append(doc)
            super().send(doc)

    pool = SupervisedPool(
        workload_path, processes=1,
        worker_factory=lambda i: Recording(workload_path),
    )
    try:
        _wait(lambda: pool.stats_snapshot()["supervisor"]["live"] == 1)
        pool.call(_knn(0))
        pool.call({**_knn(1), "timeout_ms": 5000})
    finally:
        assert pool.close()
    unbounded, bounded = [f for f in frames if "request" in f]
    assert "deadline_s" not in unbounded
    json.dumps(unbounded, allow_nan=False)
    assert 0 < bounded["deadline_s"] <= 5.0
    json.dumps(bounded, allow_nan=False)


def test_acknowledged_reweigh_degrades_built_index_sources(workload_path,
                                                          tmp_path):
    """Once the pool acknowledges a reweigh, every ``"built"`` entry of
    ``index_sources`` reads ``"degraded"`` (its workers retire the index
    when they apply it) and the list keeps one entry per ready worker; a
    worker readying afterwards is entered as ``"degraded"`` too, and
    other mutations leave the entries alone."""

    class Indexed(InProcessWorker):
        """Reports a built index in its ready frame."""

        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            ready = self._out.get_nowait()
            self._out.put({**ready, "index": "built"})

    wal = str(tmp_path / "sources.wal")
    network, _ = load_workload_file(workload_path)
    u, v, _w = min(network.edges())
    pool = SupervisedPool(
        workload_path, processes=1, wal_path=wal, live_eps=LIVE_EPS,
        worker_factory=lambda i: Indexed(workload_path, wal=wal),
    )
    try:
        _wait(lambda: pool.stats_snapshot()["supervisor"]["live"] == 1)
        pool.call({"op": "mutate",
                   "mutation": {"kind": "remove_point", "point_id": 0}})
        assert pool.index_sources == ["built"]
        pool.call({"op": "mutate", "mutation": {
            "kind": "reweigh_edge", "u": u, "v": v, "weight": 11.0}})
        assert pool.stats_snapshot()["supervisor"]["index_sources"] == [
            "degraded"
        ]
        pool._slots[0].handle.kill()
        _wait(lambda: len(pool.index_sources) == 2
              and pool.stats_snapshot()["supervisor"]["live"] == 1)
        assert pool.index_sources == ["degraded", "degraded"]
    finally:
        assert pool.close()


def test_degraded_pool_still_answers_stats(workload_path, counters):
    """Every slot's restart circuit open: queries shed, stats answers."""
    pool = open_tier("supervised", workload_path, born_dead=True)
    try:
        _wait(lambda: pool._slots[0].state == "dead")
        stats = pool.call({"op": "stats"})
        assert stats["supervisor"]["degraded"] == [0]
        assert stats["supervisor"]["live"] == 0
        with pytest.raises(Overloaded):
            pool.submit(_knn())
    finally:
        assert pool.close()
    seen = counters()
    assert seen["serve.submitted"] == seen["serve.completed"] == 1
    assert seen["serve.shed"] == 1


def test_pool_degrading_under_queued_work_sheds_it(workload_path, counters):
    """Work admitted while the last slot was still starting is resolved
    with Overloaded by the dispatcher once that slot degrades."""
    release = threading.Event()

    class Stillborn(InProcessWorker):
        def recv(self):
            release.wait(10)
            return super().recv()

    pool = SupervisedPool(
        workload_path, processes=1, max_restarts=0,
        worker_factory=lambda i: Stillborn(workload_path, born_dead=True),
    )
    try:
        queued = pool.submit(_knn())
        release.set()
        with pytest.raises(Overloaded):
            queued.result(10)
    finally:
        assert pool.close()
    seen = counters()
    assert seen["serve.submitted"] == seen["serve.errors"] == 1


# ----------------------------------------------------------------------
# Untimed requests run with no deadline machinery; timed ones keep it
# ----------------------------------------------------------------------
def _range(i=0):
    return {"op": "range", "point_id": i, "eps": LIVE_EPS}


def _observe_ranges(monkeypatch):
    """Wrap the range primitive of the shared execution path; each call
    records ``(engaged count, active deadline)`` as seen inside it."""
    seen = []
    plain = service_mod.range_query

    def observed(*args, **kwargs):
        seen.append((deadline_mod.STATE.engaged, deadline_mod.current()))
        return plain(*args, **kwargs)

    monkeypatch.setattr(service_mod, "range_query", observed)
    return seen


def _expired_at(exc: BaseException) -> str:
    """The checkpoint site of a ``DeadlineExceeded``, also when it crossed
    a worker pipe as a wire name and message."""
    assert error_name(exc) == "DeadlineExceeded", exc
    if isinstance(exc, DeadlineExceeded):
        return exc.site
    return str(exc).split("deadline exceeded at ", 1)[1].split(":", 1)[0]


@pytest.mark.parametrize("tier", TIERS)
class TestUntimedRequests:
    def test_untimed_request_runs_disarmed(self, tier, workload_path,
                                           monkeypatch):
        seen = _observe_ranges(monkeypatch)
        service = open_tier(tier, workload_path)
        try:
            service.call(_range(0))
            service.call({**_range(1), "timeout_ms": 60_000})
        finally:
            close_tier(service)
        untimed, timed = seen
        assert untimed == (0, None)
        assert timed[0] == 1 and timed[1] is not None

    def test_untimed_request_builds_no_deadline(self, tier, workload_path,
                                                monkeypatch):
        built = []
        init = Deadline.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Deadline, "__init__", counted)
        service = open_tier(tier, workload_path)
        try:
            service.call(_knn(0))
            service.call(_range(0))
            service.call({"op": "stats"})
            assert built == []
            service.call({**_knn(1), "timeout_ms": 60_000})
            assert built  # a timed request still builds its deadline
        finally:
            close_tier(service)

    def test_timed_request_still_checked_per_settle(self, tier, workload_path,
                                                    monkeypatch):
        """Each cooperative check reads the ticking clock once: the
        ``serve.dequeue`` (threaded) or ``serve.worker.dispatch``
        (supervised) check passes, the first settle passes, the second
        settle is past the budget.  The timed kNN asks for k = 10, which
        settles three nodes here (k = 3 settles one)."""
        if tier == "threaded":
            service = open_tier(tier, workload_path,
                                clock=TickingClock(1.0).monotonic)
            timeout_ms = 2_500
        else:
            clock = TickingClock(25.0)
            monkeypatch.setattr(
                worker_mod, "Deadline",
                lambda timeout_s: Deadline(timeout_s, clock=clock.monotonic),
            )
            service = open_tier(tier, workload_path)
            timeout_ms = 60_000
        try:
            with pytest.raises(Exception) as exc_info:
                service.call({**_knn(0), "k": 10, "timeout_ms": timeout_ms})
            assert _expired_at(exc_info.value) == "queries.settle"
            assert len(service.call(_knn(0))) == 3
        finally:
            close_tier(service)

    def test_timed_request_aged_out_in_queue(self, tier, workload_path):
        vc = VirtualClock()
        gate = threading.Event()
        service = open_tier(tier, workload_path, gate=gate,
                            clock=vc.monotonic)
        try:
            busy = service.submit(_knn())
            _wait(lambda: service._queue.empty())
            aged = service.submit({**_knn(1), "timeout_ms": 100})
            untimed = service.submit(_knn(2))
            vc.advance(0.2)  # the timed one's whole budget burns queued
            gate.set()
            assert busy.result(10)
            with pytest.raises(DeadlineExceeded) as exc_info:
                aged.result(10)
            assert exc_info.value.site == "serve.dequeue"
            assert len(untimed.result(10)) == 3  # no budget to burn
        finally:
            gate.set()
            close_tier(service)

    def test_untimed_answer_same_bytes_beside_a_timed_request(
            self, tier, workload_path):
        """A timed request active on another thread engages the
        checkpoints process-wide; an untimed one run meanwhile takes the
        guarded loops with no deadline of its own and answers the same
        bytes."""
        requests = [op(i) for i in range(8) for op in (_knn, _range)]
        service = open_tier(tier, workload_path)
        active, release = threading.Event(), threading.Event()

        def timed_elsewhere():
            with Deadline(3600.0).activate():
                active.set()
                release.wait(30)

        try:
            alone = [json.dumps(service.call(r)) for r in requests]
            other = threading.Thread(target=timed_elsewhere)
            other.start()
            try:
                assert active.wait(10)
                assert deadline_mod.STATE.engaged == 1
                beside = [json.dumps(service.call(r)) for r in requests]
            finally:
                release.set()
                other.join(10)
        finally:
            close_tier(service)
        assert not other.is_alive()
        assert beside == alone


def test_untimed_request_not_run_under_the_waiters_deadline(workload_path):
    """A waiter with an expired deadline of its own leaves an untimed
    request to a worker thread, which runs it with no deadline; a timed
    request still runs on the waiter, under its own deadline."""
    service = open_tier("threaded", workload_path)
    try:
        expected = service.call(_knn(0))
        with Deadline(0.0).activate():
            assert service.call(_knn(0)) == expected
            assert service.call({**_knn(0), "timeout_ms": 60_000}) == expected
    finally:
        close_tier(service)


def test_worker_arms_only_timed_frames(workload_path, monkeypatch):
    """The worker process's loop, in process over injected pipes: a frame
    without ``deadline_s`` runs with no deadline armed; one with it is
    activated, and an expired one is refused at ``serve.worker.dispatch``
    before any work."""
    seen = _observe_ranges(monkeypatch)
    stdin = io.BytesIO()
    write_frame(stdin, {"seq": 1, "request": _range(0)})
    write_frame(stdin, {"seq": 2, "request": _range(0), "deadline_s": 60.0})
    write_frame(stdin, {"seq": 3, "request": _range(0), "deadline_s": 0.0})
    stdin.seek(0)
    stdout = io.BytesIO()
    assert worker_entry({"workload": workload_path},
                        stdin=stdin, stdout=stdout) == 0
    stdout.seek(0)
    assert read_frame(stdout)["ready"]
    untimed, timed, expired = (read_frame(stdout) for _ in range(3))
    assert untimed["ok"] and untimed["result"] == timed["result"]
    assert expired["error"] == "DeadlineExceeded"
    assert "at serve.worker.dispatch:" in expired["message"]
    assert len(seen) == 2
    assert seen[0] == (0, None)
    assert seen[1][0] == 1 and seen[1][1] is not None
    assert deadline_mod.STATE.engaged == 0
