"""The threaded executor of the serve tier, and the request execution path.

:class:`QueryService` answers ε-range / kNN / clustering requests over one
served workload inside this process, behind the admission, deadline,
live-op, telemetry and drain rules of
:class:`~repro.serve.frontend.ServeFrontEnd`.  It keeps one execution
context per worker — an :class:`~repro.network.augmented.AugmentedView`
and its accelerator facade over the shared landmark index and distance
cache, built once — and one thread at a time runs a request on a context.
The thread that calls ``result()`` (or ``exception()``) on a
still-queued request runs it itself when a context is free, which saves
the two thread handoffs of a queued request; worker threads drain the
requests nobody is waiting on.  Whichever thread claims a timed request
activates its deadline for its scope, so the cooperative checkpoints
inside the traversals enforce it; an untimed request carries no
deadline, so nothing is activated and, unless timed work elsewhere in
the process engages the checkpoints, its traversals run the plain
loops.  The thread catches every ``Exception`` a request raises, so a
poisoned request fails alone.  With a live session each context's view
is attached to it, so every mutation reaches the accelerator through
the view's invalidation hooks.  Requests run in this
process, so an installed :class:`~repro.recovery.RetryPolicy` or
:class:`~repro.resilience.CircuitBreaker` (the ``breaker.state`` gauge)
applies to them as is, and a request carrying ``"trace": true`` runs under
a trace-sampled ``serve.request`` span stamped with its ``request_id``
(``obs.enable(sample_requests=True)``): the root of its trace on a worker
thread, a child of the waiting thread's open span, if any, otherwise.

:func:`run_query` is the one execution path of ``range`` / ``knn`` /
``cluster``, shared with the supervised pool's worker processes.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from contextlib import nullcontext
from typing import Callable

from repro.exceptions import ParameterError, PointNotFoundError
from repro.network.augmented import AugmentedView
from repro.network.interface import resolve_backend
from repro.network.queries import knn_query, range_query
from repro.obs.core import STATE as _OBS
from repro.obs.core import sampled as _obs_sampled
from repro.obs.core import span as _obs_span
from repro.resilience.breaker import installed_state_code as _breaker_state
from repro.resilience.deadline import current as _deadline_current
from repro.serve.frontend import (
    LIVE_OPS,
    STOP,
    Admitted,
    ServeFrontEnd,
    accelerator,
    check_backend,
    open_acceleration,
    settle,
)
from repro.serve.protocol import OPS

__all__ = ["LIVE_OPS", "QueryService", "build_algorithm", "run_query"]

#: fallback request ids for traced requests that carry no client ``id``
_REQUEST_IDS = itertools.count(1)


def _field(request: dict, key: str, conv: Callable):
    """Extract + convert one request field, mapping any failure — missing
    key, wrong type, unconvertible value — to :class:`ParameterError` so it
    reaches the wire as ``BadRequest`` rather than an internal error."""
    if key not in request:
        raise ParameterError(f"missing required field {key!r}")
    try:
        return conv(request[key])
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"field {key!r}: {exc}") from None


def build_algorithm(spec: dict, network, points, *, budget=None, backend=None):
    """A clustering algorithm from a ``cluster`` request's parameters.

    The one factory behind the CLI's ``--algorithm`` flags and the wire's
    ``cluster`` op, with the same defaults.  ``budget`` and ``backend``
    go to every algorithm.  Raises :class:`ParameterError` (wire name
    ``BadRequest``) on unknown names, missing required parameters, or
    unconvertible parameter values.
    """
    try:
        return _build_algorithm(spec, network, points, budget=budget, backend=backend)
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # Construction only touches request fields; a conversion failure
        # here is the client's malformed request, not an internal bug.
        raise ParameterError(f"cluster request: {exc}") from None


def _build_algorithm(spec: dict, network, points, **common):
    from repro.core import (
        EpsLink,
        NetworkDBSCAN,
        NetworkKMedoids,
        NetworkOPTICS,
        SingleLink,
    )

    name = spec.get("algorithm")
    if name in ("eps-link", "dbscan", "optics") and spec.get("eps") is None:
        raise ParameterError(f"algorithm {name!r} requires eps")
    if name == "k-medoids":
        return NetworkKMedoids(
            network, points, k=int(spec.get("k", 10)),
            seed=int(spec.get("seed", 0)),
            n_restarts=int(spec.get("restarts", 1)), **common,
        )
    if name == "eps-link":
        return EpsLink(network, points, eps=float(spec["eps"]),
                       min_sup=int(spec.get("min_pts", 2)), **common)
    if name == "dbscan":
        return NetworkDBSCAN(network, points, eps=float(spec["eps"]),
                             min_pts=int(spec.get("min_pts", 2)), **common)
    if name == "optics":
        return NetworkOPTICS(network, points, max_eps=float(spec["eps"]),
                             min_pts=int(spec.get("min_pts", 2)), **common)
    if name == "single-link":
        stop_k = spec.get("k")
        return SingleLink(network, points,
                          delta=float(spec.get("delta", 0.0)),
                          stop_k=int(stop_k) if stop_k is not None else None,
                          stop_distance=spec.get("stop_distance"), **common)
    raise ParameterError(f"unknown algorithm {name!r}")


def _request_point(request: dict, points):
    """The anchor point of a range/knn request, as :class:`ParameterError`
    (wire ``BadRequest``) when the id is missing, unconvertible, or absent
    from the served point set."""
    point_id = _field(request, "point_id", int)
    try:
        return points.get(point_id)
    except PointNotFoundError:
        raise ParameterError(f"unknown point_id {point_id}") from None


def run_query(request: dict, aug: AugmentedView, *, accel=None):
    """Execute one ``range`` / ``knn`` / ``cluster`` request over ``aug``.

    The single execution path shared by the threaded
    :class:`QueryService` workers and the supervised pool's worker
    *processes* — sharing it is what makes the multi-process tier's
    results bit-identical to the threaded oracle by construction.  The
    ``stats`` op is not handled here: it reads service-local telemetry,
    so each tier answers it from its own state.
    """
    op = request.get("op")
    if op == "range":
        point = _request_point(request, aug.points)
        eps = _field(request, "eps", float)
        if accel is not None:
            hits = accel.range_query(point, eps)
        else:
            hits = range_query(aug, point, eps)
        return [[p.point_id, d] for p, d in hits]
    if op == "knn":
        point = _request_point(request, aug.points)
        k = _field(request, "k", int)
        if accel is not None:
            hits = accel.knn_query(point, k)
        else:
            hits = knn_query(aug, point, k)
        return [[p.point_id, d] for p, d in hits]
    if op == "cluster":
        result = build_algorithm(request, aug.network, aug.points).run()
        return {
            "algorithm": result.algorithm,
            "num_clusters": result.num_clusters,
            "outliers": len(result.outliers()),
            "assignment": {str(k): v for k, v in result.assignment.items()},
        }
    raise ParameterError(f"op must be one of {list(OPS)}, got {op!r}")


class QueryService(ServeFrontEnd):
    """The threaded executor: a bounded worker pool answering queries over
    one workload.

    Parameters
    ----------
    network / points:
        The served workload; any traversal-protocol backend works, so a
        disk-backed :class:`~repro.storage.NetworkStore` with its
        :class:`~repro.storage.StoredPointSet` serves as well as the
        in-memory pair.
    workers:
        Worker threads, and execution contexts: at most this many
        requests run at once, each on its own :class:`AugmentedView`, so
        the lazily built adjacency memo is never shared hot.
    queue_depth:
        Admission-queue bound; a full queue sheds with
        :class:`~repro.exceptions.Overloaded`.
    default_timeout_s:
        Per-request deadline applied when a request does not carry its own
        (``None`` disables).
    clock:
        Monotonic clock used for every request deadline; tests inject a
        :class:`~repro.resilience.VirtualClock` for determinism.
    landmarks / distance_cache_mb:
        Distance acceleration (both default off).  ``landmarks`` builds one
        shared :class:`~repro.perf.LandmarkIndex` (range/kNN expansions
        prune against its bounds); ``distance_cache_mb`` allocates one
        shared :class:`~repro.perf.DistanceCache` so repeated queries are
        answered from memory across all workers.  Results are bit-identical
        either way; with both at zero the request path runs the plain,
        uninstrumented primitives.
    session:
        A :class:`~repro.live.LiveSession` (borrowed: the caller closes
        it) enabling the ``mutate`` / ``subscribe_epoch`` / ``snapshot``
        wire ops.  Queries and mutations are then serialized on the
        session lock (the threaded tier trades mutation-window
        parallelism for a consistent world; the supervised pool keeps
        full parallelism because each worker process applies between
        requests).  A reweigh degrades the landmark acceleration: every
        context's accelerator drops the index through its view, and the
        service retires it (:attr:`index_source` reads ``"degraded"``,
        the cause is in :attr:`index_degrade_reason`).
    backend:
        ``None``/``"dict"`` serve the network as given;  ``"csr"``
        freezes it once into a :class:`~repro.network.CSRNetwork` before
        the contexts are built, so every context traverses the shared
        frozen arrays.  Responses are bit-identical either way.  Incompatible
        with ``session`` (live mutations would stale the snapshot).
    """

    def __init__(
        self,
        network,
        points,
        *,
        workers: int = 2,
        queue_depth: int = 8,
        default_timeout_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        landmarks: int = 0,
        distance_cache_mb: float = 0.0,
        session=None,
        backend: str | None = None,
    ) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if landmarks < 0:
            raise ParameterError(f"landmarks must be >= 0, got {landmarks}")
        if distance_cache_mb < 0:
            raise ParameterError(
                f"distance_cache_mb must be >= 0, got {distance_cache_mb}"
            )
        #: ``"dict"`` or ``"csr"`` — which traversal backend serves.
        self.backend = check_backend(backend, live=session is not None)
        super().__init__(
            queue_depth=queue_depth, default_timeout_s=default_timeout_s,
            clock=clock,
        )
        # Frozen once, before the contexts are built: every context's
        # AugmentedView then traverses the same shared arrays, and the
        # landmark build below reuses the frozen kernels.
        self.network = network = resolve_backend(network, self.backend)
        self.points = points
        # The shared acceleration state is opened *before* the contexts
        # are built: each context's accelerator is made from it, and the
        # landmark Dijkstras must not race admission.
        # ``index_source`` ("built" / "none", then "degraded" once a
        # reweigh retired the index) is what worker processes report in
        # their ready frames: both tiers audit identically.
        (self._landmark_index, self._distance_cache,
         self.index_source) = open_acceleration(
            network, landmarks=landmarks, cache_mb=distance_cache_mb,
        )
        #: why the index was retired, once a reweigh did
        self.index_degrade_reason: str | None = None
        self.session = session
        if session is not None:
            session.add_reweigh_hook(self._on_reweigh)
        # One execution context per worker, free ones in this queue: at
        # most ``workers`` requests run at once, on worker threads or on
        # the threads waiting for them.
        self._contexts: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(workers):
            self._contexts.put(self._context())
        self._register_gauges()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- executor hooks ----------------------------------------------------

    # ``stats`` and ``mutate`` are queued and run like any query
    # (``_inline_ops`` stays empty): every thread here sees this process's
    # telemetry and session directly, and queueing them keeps them behind
    # the admission queue and its deadline check.  ``serve.inflight``
    # therefore counts a stats request itself.

    def _live_workers(self) -> int:
        return sum(t.is_alive() for t in self._threads)

    def _extra_gauges(self) -> list:
        # Requests run in this process, so the installed circuit breaker
        # and the shared distance cache are the ones they use.
        gauges = [("breaker.state", _breaker_state)]
        if self._distance_cache is not None:
            gauges.append(
                ("perf.cache.hit_ratio", self._distance_cache.hit_ratio)
            )
        return gauges

    # -- execution -------------------------------------------------------

    def _on_reweigh(self, u: int, v: int) -> None:
        """Session reweigh hook: retire the shared landmark index, whose
        node tables bind to edge weights; never a silent rebuild.

        Runs under the session lock, with queries serialized out, after
        the session invalidated every context's view — so every
        context's accelerator has already dropped the index."""
        if self._landmark_index is None:
            return
        self.index_degrade_reason = (
            f"edge ({u}, {v}) reweighed under the landmark index"
        )
        self._landmark_index = None
        self.index_source = "degraded"

    def _context(self) -> _Context:
        """A view and its accelerator, built once, over the shared index
        and cache; mutations reach the accelerator only through the view's
        invalidation hooks.  Built and attached under the session lock, so
        no reweigh can close the index in between."""
        aug = AugmentedView(self.network, self.points)
        session = self.session
        with session.lock if session is not None else nullcontext():
            accel = accelerator(aug, self._landmark_index,
                                self._distance_cache)
            if session is not None:
                session.attach(aug)
        return _Context(aug, accel)

    def _worker(self) -> None:
        """Drain the requests nobody is waiting on yet."""
        while True:
            item = self._queue.get()
            if item is STOP:
                return
            ctx = self._contexts.get()
            try:
                self._run(item, ctx)
            finally:
                self._contexts.put(ctx)

    def _run_waiting(self, item: Admitted) -> None:
        """Run ``item`` on the thread about to wait for it, when a context
        is free and no worker has taken the item yet; otherwise the
        caller just waits.  This saves the two thread handoffs of a queued
        request, which cost more than a range or kNN query itself.  An
        untimed request is left to a worker thread when the caller has a
        deadline of its own active: it activates none that would shadow
        the caller's, and it must not run under someone else's."""
        if item.deadline is None and _deadline_current() is not None:
            return
        try:
            ctx = self._contexts.get_nowait()
        except queue.Empty:
            return
        try:
            if self._queue.withdraw(item):
                self._run(item, ctx)
        finally:
            self._contexts.put(ctx)

    def _run(self, item: Admitted, ctx: _Context) -> None:
        """Claim and execute one request; whichever thread took it off
        the queue runs this."""
        future = item.future
        # Never ``frontend.start``: it accepts a running future.
        if not future.set_running_or_notify_cancel():
            return
        request = item.request
        exec_start = None
        if item.admitted_at is not None:
            exec_start = self._clock()
            self._h_queue_wait.observe(exec_start - item.admitted_at)
        self._inflight += 1
        try:
            deadline = item.deadline
            # An untimed request has no deadline: nothing to activate or
            # check, so it does not engage the traversals' checkpoints.
            with nullcontext() if deadline is None else deadline.activate():
                # Sheds requests that aged out while queued before any
                # work happens on their behalf.
                if deadline is not None:
                    deadline.check("serve.dequeue")
                if request.get("trace") and (_OBS.enabled or _OBS.sampling):
                    result = self._execute_traced(request, ctx)
                else:
                    result = self._execute(request, ctx)
        except Exception as exc:
            # Per-request isolation: whatever a request raises — injected
            # crash, corrupt page, bad parameters — is its own failure; the
            # thread that ran it and every other request live on.
            settle(future, exc=exc)
        else:
            settle(future, result)
        finally:
            self._inflight -= 1
        self._observe_done(item, exec_start)

    def _execute_traced(self, request: dict, ctx: _Context) -> object:
        """Run one request inside a trace-sampled ``serve.request`` root
        span stamped with its request id, so its whole span tree lands in
        the trace file even when only sampled requests are being traced."""
        request_id = request.get("id")
        if request_id is None:
            request_id = f"req-{next(_REQUEST_IDS)}"
        with _obs_sampled(), _obs_span(
            "serve.request", request_id=request_id, op=request.get("op")
        ):
            return self._execute(request, ctx)

    def _execute(self, request: dict, ctx: _Context) -> object:
        # ``stats`` reads *this* service's telemetry, so it is answered
        # here; everything else runs through the shared module-level
        # executor — the same code path the supervised pool's worker
        # processes run, which is what keeps the two tiers bit-identical.
        # (The front end refused live ops without a session at submit.)
        op = request.get("op")
        if op == "stats":
            return self.stats_snapshot()
        session = self.session
        if session is None:
            return run_query(request, ctx.aug, accel=ctx.accel)
        if op == "mutate":
            return session.mutate(request.get("mutation"))
        if op == "snapshot":
            return session.snapshot()
        # Queries run under the session lock: a mutation on another
        # thread must not change the world mid-traversal.
        with session.lock:
            return run_query(request, ctx.aug, accel=ctx.accel)

    # -- lifecycle -------------------------------------------------------

    def _stop_executor(self, timeout_s: float) -> bool:
        deadline = time.monotonic() + timeout_s
        for _ in self._threads:
            self._queue.put(STOP)
        for thread in self._threads:
            thread.join(max(deadline - time.monotonic(), 0.0))
        # A request a waiting thread runs holds a context, not a thread:
        # the close is over once every context is back.
        held = []
        try:
            for _ in self._threads:
                held.append(self._contexts.get(
                    timeout=max(deadline - time.monotonic(), 0.0)
                ))
        except queue.Empty:
            pass
        for ctx in held:
            self._contexts.put(ctx)
        # Workers that exited cleanly leave nothing behind; if any timed
        # out or died, fail whatever is still queued so no caller blocks
        # on a future nobody will ever resolve.
        stops_swept = self._cancel_queued()
        joined = self._joined() and len(held) == len(self._threads)
        if not joined:
            # Straggling workers still need their stop sentinels back so
            # they exit if they ever come unstuck (best-effort: they are
            # daemons, so a stuck pool cannot block process exit either).
            for _ in range(stops_swept):
                try:
                    self._queue.put_nowait(STOP)
                except queue.Full:  # pragma: no cover - depth < stragglers
                    break
        return joined

    def _joined(self) -> bool:
        return all(not t.is_alive() for t in self._threads)


class _Context:
    """One execution context: a view and its accelerator, used by one
    thread at a time."""

    __slots__ = ("aug", "accel")

    def __init__(self, aug: AugmentedView, accel) -> None:
        self.aug = aug
        self.accel = accel
