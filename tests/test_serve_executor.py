"""Who runs a request in the threaded tier, and how many run at once.

:class:`~repro.serve.QueryService` runs a queued request on the thread
that waits for it when an execution context is free, and on a worker
thread otherwise.  A gated ``_execute`` blocks whichever thread runs it,
so these tests wait on futures from helper threads.  ``Parked`` services
keep their worker threads off the queue until released, so which thread
claims an item is deterministic.
"""

from __future__ import annotations

import concurrent.futures
import random
import threading
import time

import pytest

from repro.exceptions import Cancelled, Overloaded
from repro.network.augmented import AugmentedView
from repro.network.queries import knn_query
from repro.serve import QueryService
from tests.conftest import make_random_connected_network, scatter_points


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(41)
    net = make_random_connected_network(rng, 24, extra_edges=8)
    pts = scatter_points(rng, net, 30)
    return net, pts


class Parked(QueryService):
    """A service whose worker threads wait for :attr:`park` before they
    take anything off the admission queue."""

    park: threading.Event

    def _worker(self) -> None:
        self.park.wait(30)
        super()._worker()


def _parked(workload, **kw):
    Parked.park = threading.Event()
    net, pts = workload
    return Parked(net, pts, **kw)


class Recorder:
    """Wraps ``service._execute``: records the thread that ran each
    request and the peak concurrency, and optionally holds every
    execution at ``gate``."""

    def __init__(self, service, gate=None):
        self.threads: dict = {}
        self.entered = threading.Semaphore(0)
        self.running = 0
        self.peak = 0
        self._lock = threading.Lock()
        self._gate = gate
        execute = service._execute

        def recorded(request, ctx):
            with self._lock:
                self.threads[request["id"]] = threading.current_thread()
                self.running += 1
                self.peak = max(self.peak, self.running)
            self.entered.release()
            try:
                if self._gate is not None:
                    self._gate.wait(30)
                return execute(request, ctx)
            finally:
                with self._lock:
                    self.running -= 1

        service._execute = recorded

    def wait_entered(self, n=1, timeout=10.0):
        for _ in range(n):
            assert self.entered.acquire(timeout=timeout), "never executed"


def _knn(rid, point_id=0):
    return {"id": rid, "op": "knn", "point_id": point_id, "k": 3}


def _in_thread(fn):
    """Run ``fn`` on a helper thread; returns (thread, box) where box
    receives ``("ok", value)`` or ``("error", exc)``."""
    box = []

    def run():
        try:
            box.append(("ok", fn()))
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            box.append(("error", exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def _wait(predicate, timeout=10.0):
    t0 = time.monotonic()
    while not predicate():
        if time.monotonic() - t0 > timeout:
            raise AssertionError("condition never held")
        time.sleep(0.002)


def _expected(workload, point_id=0, k=3):
    net, pts = workload
    aug = AugmentedView(net, pts)
    return [[p.point_id, d] for p, d in knn_query(aug, pts.get(point_id), k)]


def test_waited_request_runs_on_the_waiting_thread(workload):
    service = _parked(workload, workers=1, queue_depth=4)
    rec = Recorder(service)
    try:
        assert service.submit(_knn("a")).result(5) == _expected(workload)
        assert rec.threads["a"] is threading.current_thread()
        # Nobody calls result() on this one: a worker runs it.
        future = service.submit(_knn("b"))
        Parked.park.set()
        done, _ = concurrent.futures.wait([future], timeout=10)
        assert done == {future}
        assert rec.threads["b"].name.startswith("repro-serve-")
        assert future.result(0) == _expected(workload)
    finally:
        Parked.park.set()
        assert service.close(timeout_s=10)


def test_at_most_workers_requests_run_at_once(workload):
    net, pts = workload
    gate = threading.Event()
    service = QueryService(net, pts, workers=2, queue_depth=8)
    rec = Recorder(service, gate)
    try:
        clients = [
            _in_thread(lambda i=i: service.submit(_knn(f"c{i}", i)).result(10))
            for i in range(4)
        ]
        rec.wait_entered(2)
        time.sleep(0.1)  # room for a third execution to (wrongly) start
        assert rec.running == 2
        gate.set()
        for thread, box in clients:
            thread.join(10)
            assert box and box[0][0] == "ok"
        assert rec.peak == 2
        assert len(rec.threads) == 4
    finally:
        gate.set()
        assert service.close(timeout_s=10)


def test_cancelled_queued_request_never_executes(workload):
    service = _parked(workload, workers=1, queue_depth=4)
    rec = Recorder(service)
    try:
        future = service.submit(_knn("gone"))
        assert future.cancel()
        with pytest.raises(concurrent.futures.CancelledError):
            future.result(5)
        Parked.park.set()
        assert service.submit(_knn("after")).result(10)
        assert set(rec.threads) == {"after"}
    finally:
        Parked.park.set()
        assert service.close(timeout_s=10)


def test_waiter_of_a_taken_request_just_waits(workload):
    net, pts = workload
    gate = threading.Event()
    service = QueryService(net, pts, workers=2, queue_depth=4)
    rec = Recorder(service, gate)
    try:
        future = service.submit(_knn("w"))
        rec.wait_entered()  # a worker took it; the other context is free
        waiter, box = _in_thread(lambda: future.result(10))
        time.sleep(0.05)
        assert not box  # still waiting: it did not run the request again
        gate.set()
        waiter.join(10)
        assert box == [("ok", _expected(workload))]
        assert rec.threads["w"].name.startswith("repro-serve-")
        assert set(rec.threads) == {"w"}
        _wait(lambda: service._contexts.qsize() == 2)
    finally:
        gate.set()
        assert service.close(timeout_s=10)


def test_withdrawn_item_frees_its_admission_slot(workload):
    gate = threading.Event()
    service = _parked(workload, workers=1, queue_depth=1)
    rec = Recorder(service, gate)
    try:
        first = service.submit(_knn("first"))
        with pytest.raises(Overloaded):
            service.submit(_knn("shed"))
        waiter, box = _in_thread(lambda: first.result(10))
        rec.wait_entered()  # the waiter took it off the queue and runs it
        assert rec.threads["first"] is waiter
        second = service.submit(_knn("second"))  # admitted, not shed
        gate.set()
        waiter.join(10)
        assert box == [("ok", _expected(workload))]
        Parked.park.set()
        assert second.result(10) == _expected(workload)
    finally:
        gate.set()
        Parked.park.set()
        assert service.close(timeout_s=10)


def test_drain_waits_for_a_waiter_run_request(workload):
    gate = threading.Event()
    service = _parked(workload, workers=1, queue_depth=4)
    rec = Recorder(service, gate)
    try:
        future = service.submit(_knn("drained"))
        waiter, box = _in_thread(lambda: future.result(10))
        rec.wait_entered()
        assert rec.threads["drained"] is waiter
        Parked.park.set()
        closer, closed = _in_thread(lambda: service.close(timeout_s=10))
        time.sleep(0.1)
        assert closer.is_alive()  # its context is still out
        gate.set()
        closer.join(10)
        assert closed == [("ok", True)]
        assert future.done()
        waiter.join(10)
        assert box == [("ok", _expected(workload))]
    finally:
        gate.set()
        Parked.park.set()
        service.close(timeout_s=10)


def test_hard_close_cancels_only_unclaimed_items(workload):
    gate = threading.Event()
    service = _parked(workload, workers=1, queue_depth=4)
    rec = Recorder(service, gate)
    try:
        claimed = service.submit(_knn("claimed"))
        queued = service.submit(_knn("queued", 1))
        waiter, box = _in_thread(lambda: claimed.result(10))
        rec.wait_entered()
        assert rec.threads["claimed"] is waiter
        closer, closed = _in_thread(
            lambda: service.close(drain=False, timeout_s=10)
        )
        with pytest.raises(Cancelled):
            queued.result(10)
        Parked.park.set()
        gate.set()
        closer.join(10)
        assert closed == [("ok", True)]
        waiter.join(10)
        assert box == [("ok", _expected(workload))]
        assert set(rec.threads) == {"claimed"}
    finally:
        gate.set()
        Parked.park.set()
        service.close(timeout_s=10)
