"""The serve front end both tiers share, and their shared set-up policies.

:class:`ServeFrontEnd` owns what a request meets whichever tier answers
it: deadline stamping at admission (only for a request that has an
expiry), ``timeout_ms`` parsing, the refusal of live ops without a
session, bounded admission and shedding, the one ``subscribe_epoch``
waiter, outcome counting (:func:`settle`), the ``serve.*`` histograms
and gauges, the base ``stats`` document, and close.
Its two subclasses are executors: :class:`~repro.serve.QueryService`
runs admitted work on threads in this process,
:class:`~repro.serve.SupervisedPool` on supervised worker processes.

The set-up policies both executors apply to the served workload live
here too: :func:`check_backend`, :func:`open_acceleration` and
:func:`open_live_session`.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Callable

from repro.exceptions import Cancelled, Overloaded, ParameterError
from repro.obs.core import STATE as _OBS
from repro.obs.core import add as _obs_add
from repro.obs.metrics import REGISTRY as _METRICS
from repro.resilience.deadline import Deadline
from repro.serve.protocol import error_name, timeout_ms_seconds

__all__ = ["LIVE_OPS", "ServeFrontEnd", "accelerator", "check_backend",
           "open_acceleration", "open_live_session", "settle"]

#: Wire ops that require a live-mutation session (``repro serve --wal``).
LIVE_OPS = frozenset({"mutate", "subscribe_epoch", "snapshot"})

STOP = object()  # queue sentinel that retires an executor thread
UNSET = object()  # submit(): use the request's own timeout_ms


# -- set-up policies ------------------------------------------------------

def check_backend(backend: str | None, *, live: bool) -> str:
    """The traversal backend to serve with: ``"dict"`` or ``"csr"``.

    Live mutations rewrite the network; a frozen CSR snapshot would go
    stale on the first reweigh, so ``csr`` with a session (or mutation
    log) is refused up front rather than failing mid-serve with
    ``StaleBackendError``.
    """
    if backend not in (None, "dict", "csr"):
        raise ParameterError(
            f"unknown network backend {backend!r} (expected 'dict' or 'csr')"
        )
    if backend == "csr" and live:
        raise ParameterError(
            "backend='csr' cannot serve live mutations; "
            "use the dict backend with a mutation log"
        )
    return backend or "dict"


def open_acceleration(network, *, landmarks: int = 0,
                      cache_mb: float = 0.0) -> tuple:
    """``(index, cache, source)``: the shared landmark index and distance
    cache (each may be None) and where the index came from.

    ``landmarks > 0`` builds an index in process (``"built"``), otherwise
    there is none (``"none"``); ``cache_mb > 0`` adds a cache either way.
    A reweigh later retires a built index, and the source then reads
    ``"degraded"`` on both tiers.
    """
    index = None
    source = "none"
    if landmarks > 0:
        from repro.perf.landmarks import LandmarkIndex

        index = LandmarkIndex(network, landmarks)
        source = "built"
    cache = None
    if cache_mb > 0:
        from repro.perf.cache import DistanceCache

        cache = DistanceCache(cache_mb)
    return index, cache, source


def accelerator(aug, index, cache):
    """A :class:`~repro.perf.DistanceAccelerator` over ``aug`` sharing
    ``index`` and ``cache``; None when both are None (plain primitives)."""
    if index is None and cache is None:
        return None
    from repro.perf.accel import DistanceAccelerator

    return DistanceAccelerator(aug, index=index, cache=cache)


def open_live_session(network, points, wal_path: str, *, eps: float,
                      min_sup: int = 1):
    """The :class:`~repro.live.LiveSession` writing ``wal_path``, opened
    (or created) as the log's single writer and replayed: whatever a
    previous incarnation acknowledged is served again before any request."""
    from repro.live import LiveSession, WriteAheadLog

    session = LiveSession(network, points, eps=eps, min_sup=min_sup,
                          wal=WriteAheadLog(wal_path))
    session.replay_wal()
    return session


# -- outcomes -------------------------------------------------------------

def start(future: Future) -> bool:
    """Move ``future`` to RUNNING (a no-op when it runs already); False
    when its client cancelled it first or it is already resolved."""
    if future.running():
        return True
    try:
        return future.set_running_or_notify_cancel()
    except RuntimeError:  # already resolved
        return False


def settle(future: Future, result: object = None,
           exc: BaseException | None = None) -> bool:
    """Resolve ``future`` with one outcome and count it — the only place
    ``serve.completed`` / ``serve.errors`` / ``serve.deadline_exceeded``
    move.  A future its client cancelled, or one already resolved, takes
    nothing and counts nothing (False).  Counters move first, so a client
    that sees the outcome also sees it counted."""
    if not start(future):
        return False
    if exc is None:
        _obs_add("serve.completed")
        future.set_result(result)
        return True
    _obs_add("serve.errors")
    if error_name(exc) == "DeadlineExceeded":
        _obs_add("serve.deadline_exceeded")
    future.set_exception(exc)
    return True


def _resolve(future: Future, answer: Callable[[], object]) -> None:
    """Settle ``future`` with what ``answer()`` returns or raises — unless
    its client cancelled it, in which case ``answer`` never runs."""
    if not start(future):
        return
    try:
        result = answer()
    except Exception as exc:
        settle(future, exc=exc)
    else:
        settle(future, result)


class AdmissionQueue(queue.Queue):
    """The bounded admission queue, from which a waiter may take back its
    own request."""

    def withdraw(self, item) -> bool:
        """Take ``item`` out of the queue; False when it is not there (a
        worker or the close sweep took it first).  Atomic against every
        other queue operation, and it frees the admission slot at once."""
        with self.mutex:
            try:
                self.queue.remove(item)
            except ValueError:
                return False
            self.not_full.notify()
            return True


class RequestFuture(Future):
    """The future :meth:`ServeFrontEnd.submit` returns.

    Before its first wait, :meth:`result` or :meth:`exception` offers the
    queued request to the executor's :meth:`ServeFrontEnd._run_waiting`,
    which may run it on the waiting thread."""

    def __init__(self, frontend: "ServeFrontEnd") -> None:
        super().__init__()
        self._frontend = frontend
        self._item = None

    def _offer(self) -> None:
        # Cleared first: the hook runs once, and the item's reference back
        # to this future is dropped.
        item, self._item = self._item, None
        if item is not None:
            self._frontend._run_waiting(item)

    def result(self, timeout=None):
        self._offer()
        return super().result(timeout)

    def exception(self, timeout=None):
        self._offer()
        return super().exception(timeout)


class Admitted:
    """One admitted request.  ``deadline`` is None for a request with no
    expiry, ``admitted_at`` None with observability off; ``retried`` /
    ``seq`` / ``dispatched_at`` are the supervised pool's dispatch
    bookkeeping."""

    __slots__ = ("request", "deadline", "future", "admitted_at", "retried",
                 "seq", "dispatched_at")

    def __init__(self, request, deadline, future, admitted_at) -> None:
        self.request = request
        self.deadline = deadline
        self.future = future
        self.admitted_at = admitted_at
        self.retried = False
        self.seq = -1
        self.dispatched_at = None


# -- the front end --------------------------------------------------------

class ServeFrontEnd:
    """Admission, deadlines, live-op routing, telemetry and shutdown.

    A subclass is an executor.  It sets :attr:`session`, calls
    :meth:`_register_gauges` once the gauge sources exist, and defines
    ``_live_workers()`` (the ``serve.workers_live`` gauge),
    ``_stop_executor(timeout_s)`` (retire the executor during
    :meth:`close`, sweeping what is still queued with
    :meth:`_cancel_queued`; True when it is all gone) and ``_joined()``.
    It may extend ``_admit`` (more refusals), set ``_inline_ops`` and
    define ``_mutate`` (ops answered on the submitting thread), define
    ``_dispatch`` (push queued work after an admission) and
    ``_run_waiting`` (run a request on the thread waiting for it), and add
    ``_extra_gauges`` and ``_executor_stats``.
    """

    #: Ops answered on the submitting thread rather than queued; the
    #: candidates are ``"stats"`` and ``"mutate"`` (see each executor).
    _inline_ops: frozenset = frozenset()

    def __init__(self, *, queue_depth: int, default_timeout_s: float | None,
                 clock: Callable[[], float]) -> None:
        if queue_depth < 1:
            raise ParameterError(f"queue_depth must be >= 1, got {queue_depth}")
        self.default_timeout_s = default_timeout_s
        #: The :class:`~repro.live.LiveSession` behind the live ops, or None.
        self.session = None
        self._clock = clock
        self._queue = AdmissionQueue(maxsize=queue_depth)
        # The closed check and the enqueue are one atomic step against
        # close(): otherwise a request could slip into the queue after
        # close() swept it, leaving its future unresolved forever.
        self._lock = threading.Lock()
        self._closed = False
        self._started_at = clock()
        self._inflight = 0
        # Shared instruments, created once so the per-request path does a
        # single flag check plus direct observe() calls — no dict lookups.
        self._h_latency = _METRICS.histogram("serve.latency")
        self._h_queue_wait = _METRICS.histogram("serve.queue_wait")
        self._h_exec = _METRICS.histogram("serve.exec")
        self._gauges: list = []

    def submit(self, request: dict, timeout_s: object = UNSET) -> Future:
        """Admit a request and return its future; the deadline starts now,
        so queue wait is part of the budget.  A request with no expiry
        (no ``timeout_ms`` and no ``default_timeout_s``) gets no
        :class:`~repro.resilience.Deadline` at all: nothing could cancel
        it, so nothing is armed on its account.  Refused here,
        uncounted: a bad ``timeout_ms`` or a live op without a session
        (``ParameterError``), and a closed service (``RuntimeError``).  A
        full admission queue sheds with ``Overloaded``."""
        if timeout_s is UNSET:
            raw = request.get("timeout_ms")
            timeout_s = (self.default_timeout_s if raw is None
                         else timeout_ms_seconds(raw))
        op = request.get("op")
        if op in LIVE_OPS and self.session is None:
            raise ParameterError(
                f"op {op!r} requires live mutations — start the "
                "service with a --wal mutation log"
            )
        # One flag check: with observability off no clock is read and the
        # item carries None, so the executor skips all histogram work.
        future = RequestFuture(self)
        deadline = (None if timeout_s is None
                    else Deadline(timeout_s, clock=self._clock))
        item = Admitted(request, deadline, future,
                        self._clock() if _OBS.enabled else None)
        central = op == "subscribe_epoch" or op in self._inline_ops
        if not central:
            future._item = item
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{type(self).__name__} is closed")
            if not central:
                self._admit(item)
        _obs_add("serve.submitted")
        if op == "subscribe_epoch":
            self._subscribe_epoch(item, timeout_s)
        elif central:
            _resolve(future, lambda: self._answer_inline(item))
        else:
            self._dispatch()
        return future

    def _admit(self, item: Admitted) -> None:
        """Queue ``item`` or shed it (the caller holds :attr:`_lock`)."""
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            _obs_add("serve.shed")
            raise Overloaded(self._queue.maxsize) from None

    def _dispatch(self) -> None:
        """Hand queued work to idle executors; runs on the submitting
        thread after each admission, outside :attr:`_lock`."""

    def _run_waiting(self, item: Admitted) -> None:
        """Offered, once, the queued ``item`` by the thread about to wait
        on its future; an executor may run it there."""

    def call(self, request: dict, timeout_s: object = UNSET) -> object:
        """Blocking convenience wrapper: submit and wait for the result."""
        return self.submit(request, timeout_s).result()

    def _answer_inline(self, item: Admitted) -> object:
        # A request expired on arrival does no work, exactly like one that
        # aged out in the queue: no mutation is logged or applied for it.
        if item.deadline is not None:
            item.deadline.check("serve.dequeue")
        if item.request.get("op") == "stats":
            return self.stats_snapshot()
        return self._mutate(item.request)

    def _subscribe_epoch(self, item: Admitted, timeout_s) -> None:
        """Park one ``subscribe_epoch`` on its own daemon thread, never on
        an executor worker: enough no-deadline subscribers parked there
        would starve out the very mutate that would wake them.  The
        waiter settles the future itself — result, typed error, or
        ``Cancelled`` when :meth:`close` shuts the session down."""
        session = self.session

        def wait() -> dict:
            if item.deadline is not None:
                item.deadline.check("serve.dequeue")
            from_epoch = item.request.get("from_epoch", 0)
            if isinstance(from_epoch, bool) or not isinstance(from_epoch, int):
                raise ParameterError(
                    f"from_epoch must be an integer, got {from_epoch!r}"
                )
            return session.wait_for_epoch(from_epoch, timeout_s=timeout_s)

        threading.Thread(
            target=_resolve, args=(item.future, wait),
            name="repro-serve-subscribe", daemon=True,
        ).start()

    # -- telemetry -------------------------------------------------------

    def _observe_done(self, item: Admitted, started: float | None) -> None:
        """``serve.exec`` since ``started`` (None: never ran) and
        ``serve.latency`` since admission, for one finished request."""
        if item.admitted_at is None:
            return  # observability was off at admission
        done = self._clock()
        if started is not None:
            self._h_exec.observe(done - started)
        self._h_latency.observe(done - item.admitted_at)

    def _extra_gauges(self) -> list:
        return []

    def _register_gauges(self) -> None:
        """(Re-)register this service's gauges.  They are sampled only when
        read, so they cost the request path nothing; :meth:`close` removes
        only those still owned here, leaving a successor's untouched."""
        fns = [
            ("serve.queue_depth", self._queue.qsize),
            ("serve.workers_live", self._live_workers),
            ("serve.inflight", lambda: self._inflight),
            *self._extra_gauges(),
        ]
        if self.session is not None:
            fns.append(("serve.epoch", lambda: self.session.epoch))
        self._gauges = [_METRICS.gauge(name, fn) for name, fn in fns]

    def _executor_stats(self) -> dict:
        return {}

    def stats_snapshot(self) -> dict:
        """The JSON-ready document of the ``stats`` wire op: uptime on the
        service clock, obs counters, histograms (with p50/p90/p99), gauges
        sampled now, the executor's block, and the session's epoch and WAL
        health.  With obs off the counters are empty, histograms zero."""
        from repro.obs.report import snapshot as _obs_snapshot

        metrics = _METRICS.snapshot()
        doc = {
            "uptime_s": max(self._clock() - self._started_at, 0.0),
            "counters": _obs_snapshot()["counters"],
            "histograms": metrics["histograms"],
            "gauges": metrics["gauges"],
            **self._executor_stats(),
        }
        if self.session is not None:
            doc.update(self.session.stats())
        return doc

    # -- lifecycle -------------------------------------------------------

    def close(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Stop admissions and retire the executor.

        ``drain=True`` lets admitted requests run to completion;
        ``drain=False`` fails queued ones with
        :class:`~repro.exceptions.Cancelled` (uncounted: nothing ran; an
        in-flight request still finishes — preemption happens only at its
        own cooperative checkpoints).  Returns True when every executor
        thread or process is gone within ``timeout_s``.
        """
        with self._lock:
            if self._closed:
                return self._joined()
            self._closed = True
        if self.session is not None:
            # Wake parked subscribe_epoch waiters (they raise Cancelled)
            # before anything below can block on them.
            self.session.shutdown()
        if not drain:
            self._cancel_queued()
        joined = self._stop_executor(timeout_s)
        # Gauges close over this service's queue and workers; left
        # registered, a later stats read would sample a dead pool.  Kept
        # in ``_gauges``, their callables would tie the closed service
        # into a reference cycle that only a cyclic GC pass frees.
        for gauge in self._gauges:
            _METRICS.unregister_gauge(gauge.name, owner=gauge)
        self._gauges.clear()
        return joined

    def _cancel_queued(self) -> int:
        """Fail every queued request with ``Cancelled``; returns how many
        stop sentinels the sweep took off the queue."""
        stops = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return stops
            if item is STOP:
                stops += 1
            elif start(item.future):
                item.future.set_exception(Cancelled("service shutdown"))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
