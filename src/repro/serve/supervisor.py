"""Supervised multi-process worker pool for the serve tier.

:class:`SupervisedPool` is the process executor behind the serve front
end (:class:`~repro.serve.frontend.ServeFrontEnd`, shared with the
threaded :class:`~repro.serve.QueryService`): the same admission,
deadline and live-op surface, but each worker is a separate OS
process (:mod:`repro.serve.worker`) that opens the served workload
itself, read-only, and speaks length-prefixed JSON frames
(:mod:`repro.serve.frames`) over its stdin/stdout.  A worker can
therefore die at *any instruction* — SIGKILL, OOM, segfault-class bug —
without corrupting anything shared, and the supervisor turns that death
into typed, bounded behaviour:

* **Death detection.**  Each slot's supervising thread blocks on the
  worker's pipe; EOF (``read_frame`` → ``None``) *is* the death signal,
  with no polling lag.  A monitor thread SIGKILLs workers that sit on
  one request past ``hang_timeout_s``, converting hangs into the same
  EOF path.
* **Restart with backoff, storm-circuited.**  A dead worker is restarted
  after ``min(backoff_cap_s, backoff_base_s * 2**(k-1))`` for its k-th
  consecutive failure.  Each slot gates restarts through its own
  :class:`~repro.resilience.CircuitBreaker` (``failure_threshold =
  max_restarts + 1``, ``reset_timeout_s = restart_window_s``): a slot
  whose worker keeps dying trips the breaker and *degrades* — the pool
  runs on the surviving slots, shedding overflow with the existing
  :class:`~repro.exceptions.Overloaded`.  Degradation is sticky until
  :meth:`close`; the breaker's ``breaker.*`` counters are the storm's
  audit trail, and :attr:`restart_log` records every restart's timing.
* **In-flight failover.**  A request that was on a dead worker is
  retried once on another worker when idempotent-safe (``range`` /
  ``knn`` / ``snapshot`` — read-only by construction); a ``cluster``
  request, or a second failure, surfaces as a typed
  :class:`~repro.exceptions.WorkerCrashed`.
* **Poison quarantine.**  Every in-flight request at a death is
  fingerprinted (canonical JSON, ``id``/``trace`` stripped).  A
  fingerprint that kills workers ``poison_threshold`` times (default 2)
  is quarantined: resolved — and thereafter rejected at submission —
  with :class:`~repro.exceptions.PoisonRequest`, so one poisonous
  request cannot cycle the whole pool through crash/restart.
* **Inline dispatch.**  There is no dispatcher thread.  The thread that
  makes a hand-off possible runs it: the one that queues a request, or
  the slot thread that frees, readies or loses a worker, sends queued
  requests to idle workers until either runs out.

* **Durable live mutations.**  With ``wal_path`` set the supervisor owns
  the pool's :class:`~repro.live.LiveSession` and its single-writer
  write-ahead log: a ``mutate`` request is conflict-checked, fsynced,
  applied to the supervisor's oracle state, and *broadcast* as an apply
  frame to every live worker — all under the session lock, so every
  worker sees mutations in epoch order, and all before the request's
  future resolves, so a query submitted after the ack is pipe-ordered
  behind the apply on whichever worker serves it.  A restarted or
  replacement worker replays the log before its ready frame (which
  carries its ``epoch``) and is caught up to the pool epoch before it is
  marked idle — failover never answers from a stale world.
  ``subscribe_epoch`` is answered from the supervisor's session;
  ``snapshot`` is dispatched to workers (and is how the convergence
  tests cross-check worker state against the oracle).

Determinism: the clock, the backoff sleep, and the worker factory are
injectable.  Chaos tests drive the pool with in-process fake workers
under a :class:`~repro.resilience.VirtualClock` (restart spacing becomes
exact arithmetic), and with real subprocesses whose ``kill``-fault plans
(:meth:`~repro.faults.FaultRule.to_dict`, shipped in the worker spec)
SIGKILL them at seeded execution sites — every worker installs the same
plan and counts hits from zero, so the k-th request a fresh worker
executes is deterministic across runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Callable

from repro.exceptions import (
    DeadlineExceeded,
    Overloaded,
    ParameterError,
    PoisonRequest,
    WorkerCrashed,
)
from repro.obs.core import add as _obs_add
from repro.resilience.breaker import CircuitBreaker
from repro.serve.frames import read_frame, write_frame
from repro.serve.frontend import (
    Admitted,
    ServeFrontEnd,
    check_backend,
    open_live_session,
    settle,
    start,
)

__all__ = ["ProcessWorker", "SupervisedPool"]

#: Ops that are safe to replay on another worker after a death: read-only
#: queries whose single execution cannot have had side effects a retry
#: would double.  ``cluster`` is excluded not because it mutates (workers
#: are read-only) but because replaying a long run doubles its cost and a
#: crash mid-cluster is the poison signature worth surfacing eagerly.
#: ``snapshot`` reads the worker's maintained clustering — pure, cheap,
#: retry-safe.  ``stats`` and ``mutate`` are absent: the supervisor
#: answers them itself and they never ride the dispatch queue at all.
IDEMPOTENT_OPS = frozenset({"range", "knn", "snapshot"})

# Slot states.
_STARTING = "starting"
_IDLE = "idle"
_BUSY = "busy"
_DEAD = "dead"


def request_fingerprint(request: dict) -> str:
    """Canonical fingerprint of a request's *work*, for poison tracking.

    ``id`` and ``trace`` are stripped: two submissions of the same query
    under different client ids are the same poison.
    """
    work = {k: v for k, v in request.items() if k not in ("id", "trace")}
    blob = json.dumps(work, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class ProcessWorker:
    """Frame-pipe handle over one worker subprocess.

    The protocol a worker handle implements (``pid`` / ``send`` /
    ``recv`` / ``close_stdin`` / ``kill`` / ``join`` / ``alive``) is what
    the pool's ``worker_factory`` must return; chaos tests substitute
    in-process fakes with scripted death.
    """

    def __init__(self, proc: subprocess.Popen) -> None:
        self._proc = proc
        self.pid = proc.pid

    def send(self, doc: dict) -> None:
        write_frame(self._proc.stdin, doc)

    def recv(self) -> dict | None:
        return read_frame(self._proc.stdout)

    def close_stdin(self) -> None:
        try:
            self._proc.stdin.close()
        except OSError:
            pass

    def kill(self) -> None:
        try:
            self._proc.kill()
        except OSError:  # pragma: no cover - already reaped
            pass

    def join(self, timeout_s: float | None = None) -> bool:
        try:
            self._proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            return False
        return True

    def alive(self) -> bool:
        return self._proc.poll() is None


class _Slot:
    """One supervised worker position: handle + breaker + restart state."""

    __slots__ = (
        "index", "state", "handle", "breaker", "busy", "send_lock",
        "consecutive_failures", "seq", "thread",
        "applied_epoch",
    )

    def __init__(self, index: int, breaker: CircuitBreaker) -> None:
        self.index = index
        self.state = _STARTING
        self.handle = None
        self.breaker = breaker
        self.busy: Admitted | None = None
        self.send_lock = threading.Lock()
        self.consecutive_failures = 0
        self.seq = 0
        self.thread: threading.Thread | None = None
        #: Epoch of the worker's last acknowledged apply frame — lag
        #: telemetry only; correctness rests on pipe FIFO ordering.
        self.applied_epoch = 0


class SupervisedPool(ServeFrontEnd):
    """The process executor: a multi-process query pool with restart,
    failover, and quarantine.

    Parameters
    ----------
    workload:
        Path to the served workload JSON; every worker process opens it
        itself, read-only.
    processes / queue_depth / default_timeout_s / landmarks /
    distance_cache_mb / backend:
        As on :class:`~repro.serve.QueryService`, but per *process*:
        each worker (restarts included) opens its own accelerator state
        and freezes its own CSR arrays.  Each worker's ready frame
        reports its index source, collected in :attr:`index_sources`.
    max_restarts / restart_window_s:
        The restart-storm circuit: a slot may be restarted at most
        ``max_restarts`` times in a row before its breaker
        (``failure_threshold = max_restarts + 1``) trips and the slot
        degrades; a completed request resets the run of failures, and
        ``restart_window_s`` is the breaker's cool-down bookkeeping.
    backoff_base_s / backoff_cap_s:
        Capped exponential restart spacing for consecutive failures.
    hang_timeout_s:
        When set, a worker holding one request longer than this is
        SIGKILLed by the monitor (the death then follows the normal
        failover path).  ``None`` disables hang detection.
    monitor_interval_s:
        How often the monitor thread checks for hung workers.  The
        monitor only runs when ``hang_timeout_s`` is set.
    poison_threshold:
        Worker deaths a request fingerprint may cause before quarantine.
    fault_rules / fault_seed:
        A :class:`~repro.faults.FaultRule` plan shipped to every worker
        (each installs it fresh, seeded identically, ``kill_real``
        armed) — the chaos-test lever.
    wal_path / live_eps / live_min_sup:
        ``wal_path`` enables the live-mutation ops: the supervisor opens
        (or creates) the write-ahead log there as its single writer,
        replays it into the pool's oracle :class:`~repro.live.LiveSession`
        before any worker starts, and ships the path in every worker
        spec so workers replay it read-only.  ``live_eps`` /
        ``live_min_sup`` are the maintained ε-Link clustering's
        parameters and must match across restarts of the same log.
    clock / sleep / worker_factory:
        Injectables for deterministic tests: the pool's monotonic clock,
        the backoff sleep, and a ``worker_factory(slot_index)`` that
        returns a worker handle (defaults to spawning
        ``python -m repro.serve.worker``).
    """

    def __init__(
        self,
        workload: str,
        *,
        processes: int = 2,
        queue_depth: int = 8,
        default_timeout_s: float | None = None,
        landmarks: int = 0,
        distance_cache_mb: float = 0.0,
        max_restarts: int = 3,
        restart_window_s: float = 5.0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        hang_timeout_s: float | None = None,
        monitor_interval_s: float = 0.05,
        poison_threshold: int = 2,
        fault_rules: tuple = (),
        fault_seed: int = 0,
        wal_path: str | None = None,
        live_eps: float = 1.0,
        live_min_sup: int = 1,
        backend: str | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        worker_factory: Callable[[int], object] | None = None,
    ) -> None:
        if processes < 1:
            raise ParameterError(f"processes must be >= 1, got {processes}")
        if max_restarts < 0:
            raise ParameterError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        if poison_threshold < 1:
            raise ParameterError(
                f"poison_threshold must be >= 1, got {poison_threshold}"
            )
        # Workers freeze the workload at startup under ``csr``.
        backend = check_backend(backend, live=wal_path is not None)
        super().__init__(
            queue_depth=queue_depth, default_timeout_s=default_timeout_s,
            clock=clock,
        )
        #: Every worker's spec; each spawn pins the pool epoch in it.
        self._spec = {"workload": workload, "landmarks": landmarks,
                      "distance_cache_mb": distance_cache_mb}
        if backend != "dict":
            self._spec["backend"] = backend
        if wal_path is not None:
            self._spec.update(wal=wal_path, epoch=0, live_eps=live_eps,
                              live_min_sup=live_min_sup)
        if fault_rules:
            self._spec["faults"] = {
                "seed": fault_seed, "kill_real": True,
                "rules": [rule.to_dict() for rule in fault_rules],
            }
        self.max_restarts = max_restarts
        self.restart_window_s = restart_window_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.hang_timeout_s = hang_timeout_s
        self.monitor_interval_s = monitor_interval_s
        self.poison_threshold = poison_threshold
        if wal_path is not None:
            from repro.io import load_workload_file

            # The pool's oracle live state: the supervisor applies every
            # mutation here first, and worker convergence is always
            # measured against this session.  Crash-consistent startup:
            # whatever a previous incarnation acknowledged is in the log,
            # replayed before any worker can be spawned (their specs pin
            # this epoch).
            network, points = load_workload_file(workload)
            self.session = open_live_session(
                network, points, wal_path, eps=live_eps, min_sup=live_min_sup,
            )
        self._sleep = sleep
        # None means _spawn_process_worker, looked up at each spawn: a
        # stored bound method would tie the pool to itself in a cycle.
        self._worker_factory = worker_factory
        self._cond = threading.Condition(self._lock)
        self._stopping = False
        #: fingerprint -> worker deaths it was in flight for
        self._death_counts: dict[str, int] = {}
        self._quarantined: set[str] = set()
        #: every restart attempt: {"t", "slot", "attempt", "delay_s"} on
        #: the pool clock — the audit trail the storm tests assert against.
        self.restart_log: list[dict] = []
        #: pid of every worker that reached readiness, in spawn order; the
        #: no-orphans tests assert every one is gone after close().
        self.spawned_pids: list[int] = []
        #: index source each ready worker reported ("built" / "degraded" /
        #: "none"), in spawn order, restarts included: a worker whose
        #: replayed log reweighed an edge under its index reads
        #: "degraded", as the threaded tier's ``index_source`` does.
        self.index_sources: list[str] = []
        self._slots = [
            _Slot(i, CircuitBreaker(
                failure_threshold=max_restarts + 1,
                reset_timeout_s=restart_window_s,
                clock=clock,
                name=f"serve.slot{i}",
            ))
            for i in range(processes)
        ]
        self._register_gauges()
        for slot in self._slots:
            slot.thread = threading.Thread(
                target=self._slot_loop, args=(slot,),
                name=f"repro-supervise-{slot.index}", daemon=True,
            )
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        if hang_timeout_s is not None:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-monitor", daemon=True
            )
        for slot in self._slots:
            slot.thread.start()
        if self._monitor is not None:
            self._monitor.start()

    # -- executor hooks ----------------------------------------------------

    # ``stats`` and ``mutate`` are answered on the submitting thread, never
    # dispatched: worker processes have no view of pool telemetry (and
    # stats must work even mid-storm, with every slot degraded), and the
    # supervisor is the mutation log's single writer — it appends, applies
    # and broadcasts, so no worker process ever holds the log for write.
    _inline_ops = frozenset({"stats", "mutate"})

    def _admit(self, item: Admitted) -> None:
        """Refuse quarantined work and shed when fully degraded, else
        queue it (caller holds the pool lock); :meth:`_dispatch` follows
        outside the lock."""
        # Fingerprinting is a JSON encode under the pool lock: skip it
        # until something has been quarantined.
        if self._quarantined:
            fingerprint = request_fingerprint(item.request)
            if fingerprint in self._quarantined:
                raise PoisonRequest(
                    fingerprint, self._death_counts.get(fingerprint, 0)
                )
        if not any(s.state != _DEAD for s in self._slots):
            # Fully degraded: every slot's restart circuit is open.
            _obs_add("serve.shed")
            raise Overloaded(self._queue.maxsize)
        super()._admit(item)

    # -- dispatch --------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand queued requests to idle slots until one or the other runs
        out; once no slot is left alive, shed what is queued with
        ``Overloaded``.

        Runs on the thread that made a hand-off possible: the one that
        queued a request, the slot thread that freed or readied a worker,
        failed a request over, or degraded its slot.  There is no
        dispatcher thread to wake.
        """
        while True:
            with self._cond:
                if self._stopping:
                    return
                slot = next(
                    (s for s in self._slots if s.state == _IDLE), None
                )
                if slot is None and any(
                    s.state != _DEAD for s in self._slots
                ):
                    return  # every live worker is busy or starting
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    if self._closed:
                        self._cond.notify_all()  # a draining close waits
                    return
                if not start(item.future):
                    continue
                failure = None
                if slot is None:
                    # Fully degraded: nobody will ever run it.
                    failure = Overloaded(self._queue.maxsize)
                elif item.deadline is not None:
                    try:
                        item.deadline.check("serve.dequeue")
                    except DeadlineExceeded as exc:
                        failure = exc
                if failure is None:
                    slot.state = _BUSY
                    slot.busy = item
                    slot.seq += 1
                    item.seq = slot.seq
                    item.dispatched_at = self._clock()
                    self._inflight += 1
                    if item.admitted_at is not None:
                        self._h_queue_wait.observe(
                            item.dispatched_at - item.admitted_at
                        )
                    handle = slot.handle
            if failure is not None:
                self._resolve_error(item, failure)
                continue
            frame = {"seq": item.seq, "request": item.request}
            deadline = item.deadline
            remaining = math.inf if deadline is None else deadline.remaining()
            if math.isfinite(remaining):
                # No key means "no limit" to the worker; ``inf`` would
                # encode as the non-standard JSON token ``Infinity``.
                frame["deadline_s"] = remaining
            try:
                with slot.send_lock:
                    handle.send(frame)
            except (OSError, ValueError):
                # Worker died between readiness and dispatch; its slot
                # thread will observe the EOF and run the death path,
                # which fails over / resolves this very item.
                pass

    # -- live mutations --------------------------------------------------

    def _mutate(self, request: dict) -> dict:
        """Append, apply, broadcast, then answer — in that order.

        The session lock is held from the conflict check through the
        broadcast: mutations reach every worker pipe in epoch order, and
        the ack is returned only after the last send, so any query the
        client submits after seeing it is FIFO-ordered behind the apply
        frame on whichever worker pipe carries it.  Worker acks are *not*
        awaited — they only feed lag telemetry.
        """
        session = self.session
        with session.lock:
            ack = session.mutate(request.get("mutation"))
            self._broadcast_apply(session.last_mutation, session.epoch)
        return ack

    def _broadcast_apply(self, mutation: dict, epoch: int) -> None:
        """Send one apply frame to every live worker (caller holds the
        session lock).  A send failure is deliberately ignored: the pipe
        is breaking because the worker is dying, and the restart path
        replays the durable log past this very mutation."""
        with self._cond:
            targets = []
            for slot in self._slots:
                if slot.state in (_IDLE, _BUSY) and slot.handle is not None:
                    slot.seq += 1
                    targets.append((slot, slot.handle, {
                        "seq": slot.seq, "apply": mutation, "epoch": epoch,
                    }))
        for slot, handle, frame in targets:
            try:
                with slot.send_lock:
                    handle.send(frame)
            except (OSError, ValueError):
                pass

    def _catch_up(self, slot: _Slot, handle, worker_epoch: int) -> bool:
        """Bring a freshly-ready worker to the pool epoch, then mark it
        idle — atomically against broadcasts.

        The worker replayed the log before its ready frame, but mutations
        acknowledged between its spawn and now were only broadcast to
        workers that were live then.  Catch-up frames (flagged
        ``"replay"`` — they re-deliver durably-logged records, so the
        ``live.apply`` chaos site must not fire) are sent and
        acknowledged synchronously on this slot's thread.  The
        idle-marking runs under the pool condition: a concurrent mutate
        broadcasts under the same condition, so every mutation is either
        seen by the final epoch comparison here or broadcast to the slot
        after it turns idle — never neither.  Without a session there is
        nothing to catch up: the worker is marked idle at once.
        """
        session = self.session
        while not self._stopping:
            with self._cond:
                if session is None or session.epoch <= worker_epoch:
                    slot.handle = handle
                    slot.state = _IDLE
                    slot.applied_epoch = worker_epoch
                    self._cond.notify_all()
                    return True
            for seq, mutation in session.mutations_since(worker_epoch):
                slot.seq += 1
                frame = {
                    "seq": slot.seq, "apply": mutation, "epoch": seq,
                    "replay": True,
                }
                try:
                    handle.send(frame)
                    ack = handle.recv()
                except (OSError, ValueError):
                    return False
                if ack is None or int(ack.get("applied", -1)) < seq:
                    return False
                worker_epoch = int(ack.get("applied"))
        return False

    def _on_applied(self, slot: _Slot, doc: dict) -> None:
        """Route one broadcast-apply ack.

        A successful ack updates the slot's lag telemetry and counts as
        proof of life for its storm breaker.  A failed apply (sequence
        gap — a broadcast was lost) means the worker's world can no
        longer be trusted: SIGKILL it and let the ordinary death path
        restart it through replay + catch-up.
        """
        applied = doc.get("applied", -1)
        if isinstance(applied, int) and not isinstance(applied, bool) \
                and applied >= 0:
            with self._cond:
                slot.applied_epoch = max(slot.applied_epoch, applied)
            slot.consecutive_failures = 0
            slot.breaker.record_success()
            return
        handle = slot.handle
        if handle is not None:
            handle.kill()

    # -- slot supervision ------------------------------------------------

    def _slot_loop(self, slot: _Slot) -> None:
        while not self._stopping:
            if slot.handle is None:
                if not self._start_worker(slot):
                    return  # degraded: the slot retires until close()
                continue
            doc = slot.handle.recv()
            if self._stopping:
                return
            if doc is None:
                self._on_worker_death(slot)
                continue
            if "applied" in doc:
                self._on_applied(slot, doc)
                continue
            self._on_answer(slot, doc)

    def _start_worker(self, slot: _Slot) -> bool:
        """(Re)start ``slot``'s worker, gated by its storm breaker.

        Returns False when the breaker is open: the slot degrades.
        """
        while not self._stopping:
            try:
                slot.breaker.allow("serve.supervisor.restart")
            except Exception:
                with self._cond:
                    slot.state = _DEAD
                    self._cond.notify_all()
                _obs_add("serve.supervisor.degraded")
                # Once no slot is left, what is queued is shed.
                self._dispatch()
                return False
            attempt = slot.consecutive_failures
            if attempt > 0:
                # Capped exponential spacing for the k-th consecutive
                # failure, logged as an *attempt* (a worker that never even
                # reaches readiness still leaves the storm's audit trail).
                delay = min(
                    self.backoff_cap_s,
                    self.backoff_base_s * (2 ** (attempt - 1)),
                )
                self._sleep(delay)
                if self._stopping:
                    return False
                self.restart_log.append({
                    "t": self._clock(), "slot": slot.index,
                    "attempt": attempt, "delay_s": delay,
                })
                _obs_add("serve.supervisor.restarts")
            handle = (self._worker_factory
                      or self._spawn_process_worker)(slot.index)
            ready = handle.recv()
            if ready is None or not ready.get("ready"):
                self._reap_failed(slot, handle)
                continue
            if handle.pid is not None:
                self.spawned_pids.append(handle.pid)
            self.index_sources.append(str(ready.get("index", "none")))
            if attempt > 0:
                # Gauges registered at construction may have been replaced
                # by another component since; re-assert them on every
                # worker replacement so `serve.workers_live` and friends
                # reflect the pool that actually owns the workers now.
                self._register_gauges()
            # The ready frame's epoch is how far the worker's own WAL
            # replay got; close the gap to the pool epoch before any
            # request can be dispatched to it (idle-marking happens inside
            # _catch_up, atomically against broadcasts).
            if self._catch_up(slot, handle, int(ready.get("epoch", 0))):
                self._dispatch()
                return True
            if self._stopping:
                # The pool is closing and this worker was never registered
                # on the slot: reap it here or nobody will (close() only
                # walks slot handles).
                handle.kill()
                handle.join(5.0)
                return False
            self._reap_failed(slot, handle)
        return False

    def _reap_failed(self, slot: _Slot, handle) -> None:
        """Kill and reap a failed worker; charge its slot's storm breaker."""
        handle.kill()  # idempotent: ensures hung-but-writable dies too
        handle.join(5.0)
        slot.consecutive_failures += 1
        slot.breaker.record_failure()
        _obs_add("serve.supervisor.worker_deaths")

    def _on_worker_death(self, slot: _Slot) -> None:
        with self._cond:
            item, slot.busy = slot.busy, None
            handle, slot.handle = slot.handle, None
            slot.state = _STARTING
            if item is not None:
                self._inflight -= 1
            self._cond.notify_all()
        pid = getattr(handle, "pid", None)
        self._reap_failed(slot, handle)
        if item is None:
            return
        fingerprint = request_fingerprint(item.request)
        with self._lock:
            deaths = self._death_counts.get(fingerprint, 0) + 1
            self._death_counts[fingerprint] = deaths
            if deaths >= self.poison_threshold:
                self._quarantined.add(fingerprint)
                quarantine = True
            else:
                quarantine = False
        if quarantine:
            _obs_add("serve.supervisor.quarantined")
            self._resolve_error(item, PoisonRequest(fingerprint, deaths))
            return
        if item.request.get("op") in IDEMPOTENT_OPS and not item.retried:
            item.retried = True
            requeued = False
            with self._lock:
                if not self._closed:
                    try:
                        self._queue.put_nowait(item)
                        requeued = True
                    except queue.Full:
                        pass
            if requeued:
                _obs_add("serve.supervisor.failovers")
                self._dispatch()
                return
        self._resolve_error(
            item,
            WorkerCrashed(
                f"pid {pid} died at seq {item.seq}",
                request_id=item.request.get("id"),
                pid=pid,
            ),
        )

    def _on_answer(self, slot: _Slot, doc: dict) -> None:
        with self._cond:
            item = slot.busy
            if item is None or doc.get("seq") != item.seq:
                return  # stale frame: never match it to newer work
            slot.busy = None
            slot.state = _IDLE
            self._inflight -= 1
            self._cond.notify_all()
        slot.consecutive_failures = 0
        slot.breaker.record_success()
        self._dispatch()
        if doc.get("ok"):
            settle(item.future, doc.get("result"))
        else:
            from repro.serve.remote import RemoteRequestError

            settle(item.future, exc=RemoteRequestError(
                doc.get("error", "InternalError"), doc.get("message", "")
            ))
        self._observe_done(item, item.dispatched_at)

    def _resolve_error(self, item: Admitted, exc: Exception) -> None:
        if settle(item.future, exc=exc):
            self._observe_done(item, item.dispatched_at)

    # -- monitor ---------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self.monitor_interval_s):
            now = self._clock()
            for slot in self._slots:
                with self._cond:
                    state = slot.state
                    handle = slot.handle
                    item = slot.busy
                if handle is None:
                    continue
                if (
                    state == _BUSY
                    and item is not None
                    and item.dispatched_at is not None
                    and now - item.dispatched_at > self.hang_timeout_s
                ):
                    # Hung worker: SIGKILL converts the hang into the
                    # ordinary EOF death path (failover, poison, restart).
                    _obs_add("serve.supervisor.hangs")
                    handle.kill()

    # -- telemetry -------------------------------------------------------

    def _live_workers(self) -> int:
        return sum(1 for s in self._slots if s.state in (_IDLE, _BUSY))

    def _executor_stats(self) -> dict:
        with self._lock:
            supervisor = {
                "processes": len(self._slots),
                "live": self._live_workers(),
                "degraded": [
                    s.index for s in self._slots if s.state == _DEAD
                ],
                "restarts": len(self.restart_log),
                "restart_log": [dict(e) for e in self.restart_log],
                "quarantined": len(self._quarantined),
                "worker_deaths": sum(self._death_counts.values()),
                "index_sources": list(self.index_sources),
            }
            if self.session is not None:
                supervisor["worker_epochs"] = [
                    s.applied_epoch for s in self._slots
                ]
        return {"supervisor": supervisor}

    # -- worker spawning -------------------------------------------------

    def _spawn_process_worker(self, slot_index: int) -> ProcessWorker:
        spec = self._spec
        if self.session is not None:
            # Pin the pool epoch at spawn time: the worker must replay at
            # least this far before reporting ready (mutations landing
            # after the snapshot of this field are closed by catch-up).
            spec = dict(spec, epoch=self.session.epoch)
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + existing if existing else "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.worker", json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        return ProcessWorker(proc)

    # -- lifecycle -------------------------------------------------------

    def _stop_executor(self, timeout_s: float) -> bool:
        """Reap every worker process.  Returns True when no worker
        survived — the no-orphans guarantee the chaos CI job asserts with
        a ``ps`` delta."""
        deadline = time.monotonic() + timeout_s
        # Every request admitted before the close is handed to a worker
        # and answered first (or shed, once no slot is left); only then
        # may stopping be set, or queued work would be cancelled, not
        # drained.
        with self._cond:
            self._cond.wait_for(
                lambda: (
                    self._queue.empty()
                    or all(s.state == _DEAD for s in self._slots)
                ) and all(s.busy is None for s in self._slots),
                timeout=max(deadline - time.monotonic(), 0.0),
            )
            self._stopping = True
            self._cond.notify_all()
        self._monitor_stop.set()
        # EOF on stdin is the workers' clean-retirement signal; the slot
        # threads see the mirrored stdout EOF and exit (stopping is set).
        for slot in self._slots:
            if slot.handle is not None:
                slot.handle.close_stdin()
        for slot in self._slots:
            if slot.thread is not None:
                slot.thread.join(max(deadline - time.monotonic(), 0.1))
        if self._monitor is not None:
            self._monitor.join(max(deadline - time.monotonic(), 0.1))
        for slot in self._slots:
            handle = slot.handle
            if handle is None:
                continue
            if not handle.join(max(deadline - time.monotonic(), 0.1)):
                handle.kill()  # no worker outlives its supervisor
                handle.join(5.0)
        # Whatever is still queued (racing submissions, failovers that
        # crossed the close) must not leave futures unresolved forever.
        self._cancel_queued()
        if self.session is not None:
            self.session.close()  # releases the single-writer WAL handle
        return self._joined()

    def _joined(self) -> bool:
        return all(
            slot.handle is None or not slot.handle.alive()
            for slot in self._slots
        )
