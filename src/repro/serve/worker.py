"""Worker process entry point for the supervised serve pool.

Each worker is a separate OS process launched by
:class:`repro.serve.SupervisedPool` as ``python -m repro.serve.worker
'<spec-json>'``.  It opens the served workload itself (read-only — a
worker can die at any instruction without corrupting shared state),
arms any fault-injection plan shipped in the spec, then answers framed
requests over its stdin/stdout pipes until EOF.

Frames (see :mod:`repro.serve.frames`) are supervisor→worker::

    {"seq": 7, "request": {...}, "deadline_s": 0.25}

and worker→supervisor::

    {"seq": 7, "ok": true, "result": ...}
    {"seq": 7, "ok": false, "error": "BadRequest", "message": "..."}

``seq`` is the supervisor's per-worker sequence number; the worker
echoes it verbatim so answers can never be mis-matched across a
restart (a fresh worker starts a fresh pipe).  ``deadline_s`` is the
request's *remaining* budget at dispatch time — the supervisor already
charged queue wait against it — enforced here with a local
:class:`~repro.resilience.Deadline` on the real monotonic clock.  A
request without a deadline carries no ``deadline_s`` key and runs with
no deadline armed.

When the pool serves live mutations the spec also carries ``wal`` (the
supervisor's mutation-log path), ``epoch`` (the pool epoch at spawn
time), and the clustering parameters.  The worker opens the log
*read-only*, replays it into an apply-only
:class:`~repro.live.LiveSession`, and must reach at least the spec's
epoch before the ready frame (which then carries ``"epoch"``) goes out
— a restarted or replacement worker never answers from a stale world.
After that, mutations arrive as broadcast apply frames::

    {"seq": 9, "apply": {"kind": ...}, "epoch": 42}

answered with ``{"seq": 9, "applied": 42}`` (idempotent: a frame at or
below the worker's epoch acks without re-applying; a sequence *gap*
answers ``"applied": -1`` with the error, and the supervisor restarts
the worker rather than let it drift).


With ``"backend": "csr"`` in the spec the worker freezes the loaded
workload into a :class:`~repro.network.CSRNetwork` before building its
view, serving every traversal off flat arrays (bit-identical responses;
the supervisor never combines this with a mutation log).

The spec also carries the fault plan: rule dicts
(:meth:`~repro.faults.FaultRule.to_dict`), the deterministic seed, and
``kill_real`` — which arms :data:`repro.faults.STATE.kill_real` so a
fired ``kill`` fault delivers a *real* ``SIGKILL`` to this process,
exercising the supervisor's death detection with genuine worker death
rather than a simulated one.
"""

from __future__ import annotations

import json
import os
import sys

from repro.exceptions import ParameterError
from repro.faults import FaultRule, STATE, WorkerKilled, clear, install, reseed
from repro.io import load_workload_file
from repro.network.augmented import AugmentedView
from repro.network.interface import resolve_backend
from repro.resilience.deadline import Deadline
from repro.serve.frames import read_frame, write_frame
from repro.serve.frontend import LIVE_OPS, accelerator, open_acceleration
from repro.serve.protocol import error_name
from repro.serve.service import run_query

__all__ = ["worker_entry"]


def _arm_faults(spec: dict) -> None:
    fault_spec = spec.get("faults")
    if not fault_spec:
        return
    clear()
    reseed(int(fault_spec.get("seed", 0)))
    if fault_spec.get("kill_real"):
        STATE.kill_real = True
    for rule in fault_spec.get("rules", ()):
        install(FaultRule.from_dict(rule))


def _build_view(spec: dict):
    """The workload view, its (optional) accelerator, and the index source.

    The returned source string lands in the ready frame so the supervisor
    can audit how every worker got its acceleration: ``"built"`` (landmark
    Dijkstras ran in-process) or ``"none"`` — the policy of
    :func:`~repro.serve.frontend.open_acceleration`, which the threaded
    tier applies too.  A reweigh replayed from the mutation log turns
    ``"built"`` into ``"degraded"`` (:func:`worker_entry`).
    """
    network, points = load_workload_file(spec["workload"])
    # Frozen once at startup (also on every restart) under ``csr``: the
    # landmark paths below run against the frozen kernels, and the
    # supervisor refuses csr + wal, so no mutation can stale the arrays.
    network = resolve_backend(network, spec.get("backend"))
    aug = AugmentedView(network, points)
    index, cache, source = open_acceleration(
        network,
        landmarks=int(spec.get("landmarks", 0)),
        cache_mb=float(spec.get("distance_cache_mb", 0.0)),
    )
    return aug, accelerator(aug, index, cache), source


def _build_session(spec: dict, aug, accel):
    """The worker's apply-only live session, replayed from the WAL.

    Opens the supervisor's mutation log read-only, replays *every*
    acknowledged record (the log never runs ahead of the pool epoch —
    the supervisor is the single writer and fsyncs before advancing),
    and refuses to come up stale: if the log cannot reach the epoch
    pinned in the spec the :class:`~repro.exceptions.ReplayError`
    propagates, the process exits nonzero, and the supervisor's
    failed-ready path takes over.  The log is closed after replay —
    later mutations arrive as broadcast apply frames, and idempotent
    :meth:`~repro.live.LiveSession.apply` absorbs any overlap between
    what was replayed and what the supervisor re-sends as catch-up.
    """
    from repro.exceptions import ReplayError
    from repro.live import LiveSession, WriteAheadLog

    wal = WriteAheadLog(spec["wal"], read_only=True)
    session = LiveSession(
        aug.network,
        aug.points,
        eps=float(spec.get("live_eps", 1.0)),
        min_sup=int(spec.get("live_min_sup", 1)),
        wal=wal,
    )
    session.attach(aug)
    # The index this worker built.  A reweigh invalidates the view
    # first, so the accelerator has dropped it — never silently rebuilt —
    # and serves the plain bit-identical primitives; the hook below
    # reports it, once.
    index = None if accel is None else accel.index

    def _degrade_on_reweigh(u: int, v: int) -> None:
        nonlocal index
        if index is None:
            return
        index = None
        print(f"landmark index degraded: edge ({u}, {v}) reweighed under "
              f"the landmark index", file=sys.stderr)

    # Registered *before* replay: _build_view built the index over the
    # pre-replay network, so a reweigh_edge record already in the log
    # must degrade the index exactly as a live one would — otherwise a
    # restarted or replacement worker serves landmark bounds bound to
    # stale edge weights.
    session.add_reweigh_hook(_degrade_on_reweigh)
    session.replay_wal()
    target = int(spec.get("epoch", 0))
    if session.epoch < target:
        raise ReplayError(
            f"mutation log replayed to epoch {session.epoch}, cannot "
            f"reach the pool epoch {target}"
        )
    wal.close()
    session.wal = None
    return session


def _apply_frame(doc: dict, session) -> dict:
    """Apply one broadcast mutation; always answers with ``"applied"``.

    ``applied`` is the worker's epoch after the frame — the supervisor's
    lag telemetry — or ``-1`` with the error when the frame cannot be
    applied (a sequence gap means a broadcast was lost and this worker
    must be restarted, not allowed to drift).  A ``WorkerKilled`` from
    the ``live.apply`` fault site propagates: the worker dies without
    answering, exactly like a real mid-apply SIGKILL, and replay of the
    durable log makes the restarted worker whole.
    """
    seq = doc.get("seq")
    if session is None:
        return {
            "seq": seq,
            "applied": -1,
            "error": "BadRequest",
            "message": "worker has no live session for apply frames",
        }
    try:
        # Catch-up frames are flagged ``replay``: they re-deliver records
        # already durable in the log, so the ``live.apply`` chaos site
        # must not fire for them (mirroring WAL replay) — otherwise a
        # kill-mid-apply plan would re-kill every restarted worker during
        # its catch-up and no restart could ever succeed.
        session.apply(
            int(doc.get("epoch")), doc["apply"],
            replaying=bool(doc.get("replay")),
        )
    except Exception as exc:
        return {
            "seq": seq,
            "applied": -1,
            "error": error_name(exc),
            "message": str(exc),
        }
    return {"seq": seq, "applied": session.epoch}


def _run_request(request: dict, aug, accel, session):
    op = request.get("op")
    if op == "snapshot" and session is not None:
        return session.snapshot()
    if op in LIVE_OPS:
        # The supervisor answers mutate / subscribe_epoch itself, and the
        # front end refuses every live op without a session: reaching
        # here is a routing bug upstream.
        raise ParameterError(f"op {op!r} is not answered by a worker")
    return run_query(request, aug, accel=accel)


def _serve_one(doc: dict, aug, accel, session=None) -> dict:
    seq = doc.get("seq")
    if "apply" in doc:
        return _apply_frame(doc, session)
    request = doc.get("request")
    if not isinstance(request, dict):
        return {
            "seq": seq,
            "ok": False,
            "error": "BadRequest",
            "message": f"malformed worker frame: {doc!r}",
        }
    deadline_s = doc.get("deadline_s")
    try:
        if deadline_s is None:
            # Untimed: nothing can cancel it, so no deadline is armed.
            result = _run_request(request, aug, accel, session)
        else:
            deadline = Deadline(float(deadline_s))
            with deadline.activate():
                deadline.check("serve.worker.dispatch")
                result = _run_request(request, aug, accel, session)
    except Exception as exc:
        return {
            "seq": seq,
            "ok": False,
            "error": error_name(exc),
            "message": str(exc),
        }
    return {"seq": seq, "ok": True, "result": result}


def worker_entry(spec: dict, stdin=None, stdout=None) -> int:
    """Run the worker loop until the supervisor closes the pipe.

    Returns the intended process exit code.  Kept importable (pipes are
    injectable) so tests can drive a worker in-process without forking.
    """
    in_fh = stdin if stdin is not None else sys.stdin.buffer
    out_fh = stdout if stdout is not None else sys.stdout.buffer
    _arm_faults(spec)
    aug, accel, index_source = _build_view(spec)
    indexed = accel is not None and accel.index is not None
    session = _build_session(spec, aug, accel) if spec.get("wal") else None
    if indexed and accel.index is None:
        # A reweigh replayed from the mutation log retired the index
        # before the ready frame went out; report it as the threaded
        # tier's index_source does, so the supervisor's index_sources
        # audit trail reflects what this worker actually serves with.
        index_source = "degraded"
    # Ready handshake: the supervisor waits for this frame, so a worker
    # that dies during workload load is detected before it is dispatched
    # any request.  ``index`` reports where the acceleration state came
    # from ("built" / "degraded" / "none") — the supervisor logs it,
    # and the replayed-reweigh tests assert on it.  With a live session
    # the frame also carries the replayed ``epoch``: the supervisor
    # catches the worker up to the pool epoch before dispatching to it.
    ready = {"ready": True, "pid": os.getpid(), "index": index_source}
    if session is not None:
        ready["epoch"] = session.epoch
    write_frame(out_fh, ready)
    while True:
        doc = read_frame(in_fh)
        if doc is None:  # supervisor closed the pipe: clean retirement
            return 0
        try:
            answer = _serve_one(doc, aug, accel, session)
        except WorkerKilled:
            # Simulated kill (kill_real unarmed): die like SIGKILL would,
            # without flushing an answer — the supervisor must see EOF.
            os._exit(137)
        try:
            write_frame(out_fh, answer)
        except (OSError, ValueError):
            return 0  # supervisor is gone; nothing left to serve
    return 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m repro.serve.worker '<spec-json>'",
              file=sys.stderr)
        return 2
    spec = json.loads(args[0])
    return worker_entry(spec)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
