"""One process's live, mutable view of a served workload.

A :class:`LiveSession` owns the mutable world the serve tier answers
queries from: the network, the served :class:`PointSet`, and an
:class:`~repro.core.incremental.IncrementalEpsLink` that maintains the
clustering under mutations.  It ties the durability and staleness pieces
together:

* :meth:`mutate` — validate, conflict-check, append to the write-ahead
  log (the fsync inside :meth:`WriteAheadLog.append` is the
  acknowledgement point), then apply.  A mutation that fails validation
  or conflicts is *never logged*; a crash after the append is recovered
  by replay.
* :meth:`apply` — idempotent, gap-checked application of one sequenced
  mutation; used by the live path, by WAL replay, and by the apply
  frames a supervisor broadcasts to worker processes.  Each apply
  advances :attr:`epoch` to the mutation's sequence number and tells
  every attached view (:meth:`attach`) what changed through its one
  invalidation path, ``AugmentedView.invalidate``: the inserted or
  removed object, or a reweigh.  Objects carry no weight, so an insert
  or a remove changes no distance between two other objects; a reweigh
  changes distances globally, and additionally fires the registered
  reweigh hooks so index-backed consumers can retire the index.
* :meth:`snapshot` — the current epoch and full cluster assignment, in a
  canonical shape that is bit-comparable across processes: a supervisor,
  each of its workers, and a single-threaded oracle applying the same
  mutation sequence all produce identical documents.
* :meth:`wait_for_epoch` — the blocking half of the ``subscribe_epoch``
  wire op.
"""

from __future__ import annotations

import threading
import time

from repro.core.incremental import IncrementalEpsLink
from repro.exceptions import (
    Cancelled,
    DeadlineExceeded,
    MutationConflict,
    ParameterError,
    ReplayError,
)
from repro.faults.core import fire as _fault
from repro.live.mutate import check_conflict, validate_mutation
from repro.obs.core import add as _obs_add

__all__ = ["LiveSession"]


class LiveSession:
    """Durable, incrementally clustered mutation state for one process.

    Parameters
    ----------
    network / points:
        The served world.  ``points`` is *adopted* — queries and the
        incremental clustering run against the same live objects.
    eps / min_sup:
        Clustering parameters for the maintained ε-Link result.
    wal:
        An open :class:`~repro.live.WriteAheadLog`, or ``None`` for an
        apply-only session (worker processes receiving broadcast frames
        after their initial replay, and unit tests).  Sessions holding a
        read-only log can replay but not mutate.

    Thread safety: every public method takes :attr:`lock` (an RLock);
    callers that need multi-step atomicity (e.g. a supervisor appending
    and broadcasting in epoch order) may hold it across calls.
    """

    def __init__(self, network, points=None, *, eps: float = 1.0,
                 min_sup: int = 1, wal=None) -> None:
        self.network = network
        self.live = IncrementalEpsLink(
            network, eps, min_sup=min_sup, points=points
        )
        self.points = self.live.points
        self.wal = wal
        self.epoch = 0
        self.lock = threading.RLock()
        self._cond = threading.Condition(self.lock)
        self._views: list = []
        self._reweigh_hooks: list = []
        self._shutdown = False
        #: Canonical form of the most recently applied mutation (what a
        #: supervisor broadcasts to its workers).
        self.last_mutation: dict | None = None

    # -- staleness wiring ----------------------------------------------
    def attach(self, aug) -> None:
        """Register a view to be invalidated on every apply.

        Each apply calls ``aug.invalidate`` with what changed; whatever
        hangs off the view (an accelerator's cache, point vectors and
        landmark index) hears it through the view's hooks.
        """
        with self.lock:
            self._views.append(aug)

    def add_reweigh_hook(self, hook) -> None:
        """Register ``hook(u, v)`` to run after every applied reweigh.

        Hooks run after every attached view was invalidated, so the
        accelerators over those views have already dropped their landmark
        index.  This is where the index's owner retires it and records
        why — never silently rebuilds — because the landmark node tables
        bind to edge weights.
        """
        with self.lock:
            self._reweigh_hooks.append(hook)

    # -- mutation path -------------------------------------------------
    def check(self, mutation) -> dict:
        """Validate shape and conflicts; returns the canonical mutation."""
        with self.lock:
            canonical = validate_mutation(mutation)
            try:
                check_conflict(canonical, self.network, self.points)
            except MutationConflict:
                _obs_add("live.conflicts")
                raise
            return canonical

    def mutate(self, mutation) -> dict:
        """Durably log and apply one mutation; returns the ack document.

        The returned ``{"epoch": seq, ...}`` is only produced after the
        WAL fsync — the durability acknowledgement point.  Conflicting or
        malformed mutations raise before anything reaches the log.
        """
        with self.lock:
            canonical = self.check(mutation)
            if self.wal is not None:
                if self.wal.read_only:
                    raise ParameterError(
                        "this session's mutation log is read-only"
                    )
                seq = self.wal.append(canonical)
            else:
                seq = self.epoch + 1
            _obs_add("live.mutations")
            return self.apply(seq, canonical)

    def apply(self, seq: int, mutation: dict, *,
              replaying: bool = False) -> dict:
        """Apply one sequenced mutation; idempotent and gap-checked.

        ``seq <= epoch`` is a no-op ack (the mutation is already in the
        state — the replay-after-kill path); ``seq > epoch + 1`` is a
        :class:`ReplayError` (a record was lost or delivered out of
        order).  The ``live.apply`` fault site fires on live applies
        (not replays), *after* the idempotency check and *before* any
        state changes — a kill here loses only in-memory state that the
        durable log rebuilds.
        """
        with self.lock:
            if seq <= self.epoch:
                return {"epoch": self.epoch, "applied": False}
            if seq != self.epoch + 1:
                raise ReplayError(
                    f"mutation sequence gap: applying {seq} at epoch "
                    f"{self.epoch}"
                )
            if not replaying:
                _fault("live.apply")
            kind = mutation["kind"]
            ack: dict = {"epoch": seq, "applied": True, "kind": kind}
            if kind == "insert_point":
                point = self.live.insert(
                    mutation["u"], mutation["v"], mutation["offset"],
                    point_id=mutation.get("point_id"),
                    label=mutation.get("label"),
                )
                ack["point_id"] = point.point_id
            elif kind == "remove_point":
                self.live.remove(mutation["point_id"])
                ack["point_id"] = mutation["point_id"]
            else:
                self.live.reweigh(
                    mutation["u"], mutation["v"], mutation["weight"]
                )
                ack.update(
                    u=mutation["u"], v=mutation["v"],
                    weight=mutation["weight"],
                )
            self.epoch = seq
            self.last_mutation = dict(mutation)
            reweigh = kind == "reweigh_edge"
            changed = None if reweigh else (ack["point_id"],)
            for aug in self._views:
                aug.invalidate(changed, reweigh=reweigh)
            if reweigh:
                for hook in self._reweigh_hooks:
                    hook(mutation["u"], mutation["v"])
            _obs_add("live.applied")
            self._cond.notify_all()
            return ack

    def replay_wal(self, to_seq: int | None = None) -> int:
        """Apply every logged mutation past the current epoch.

        Returns the number of records applied.  Raises
        :class:`ReplayError` when ``to_seq`` demands an epoch the log
        cannot reach — a worker told to match the pool's epoch must not
        report ready from a stale world.
        """
        if self.wal is None:
            raise ParameterError("session has no mutation log to replay")
        with self.lock:
            delivered = self.wal.replay(
                self._apply_replayed, from_seq=self.epoch, to_seq=to_seq
            )
            if to_seq is not None and self.epoch < to_seq:
                raise ReplayError(
                    f"mutation log ends at sequence {self.wal.last_seq}, "
                    f"cannot reach required epoch {to_seq}"
                )
            return delivered

    def _apply_replayed(self, seq: int, mutation: dict) -> None:
        self.apply(seq, mutation, replaying=True)

    # -- read side -------------------------------------------------------
    def snapshot(self) -> dict:
        """Epoch + full cluster assignment, bit-comparable across
        processes that applied the same mutation sequence."""
        with self.lock:
            result = self.live.result()
            assignment = {
                str(pid): int(label)
                for pid, label in sorted(result.assignment.items())
            }
            return {
                "epoch": self.epoch,
                "num_points": len(self.points),
                "num_clusters": len(set(assignment.values())),
                "assignment": assignment,
            }

    def mutations_since(self, epoch: int) -> list:
        """``(seq, mutation)`` pairs a lagging consumer needs to catch up."""
        if self.wal is None:
            return []
        with self.lock:
            return list(self.wal.records(epoch))

    def wait_for_epoch(self, from_epoch: int,
                       timeout_s: float | None = None) -> dict:
        """Block until :attr:`epoch` exceeds ``from_epoch``.

        Returns ``{"epoch": current, "changed": bool}``; raises
        :class:`~repro.exceptions.DeadlineExceeded` when ``timeout_s``
        elapses first and :class:`~repro.exceptions.Cancelled` when the
        session shuts down while waiting.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        checks = 0
        with self._cond:
            while self.epoch <= from_epoch:
                if self._shutdown:
                    raise Cancelled("session shutdown", site="live.subscribe")
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise DeadlineExceeded(
                            "live.subscribe", timeout_s,
                            timeout_s - remaining, checks=checks,
                        )
                checks += 1
                self._cond.wait(
                    0.05 if remaining is None else min(remaining, 0.05)
                )
            return {"epoch": self.epoch, "changed": True}

    def stats(self) -> dict:
        """The ``epoch`` / WAL-health sub-document for stats surfaces."""
        with self.lock:
            doc: dict = {"epoch": self.epoch}
            if self.wal is not None:
                doc["wal"] = {
                    "path": self.wal.path,
                    "last_seq": self.wal.last_seq,
                    "appended": self.wal.appended,
                    "replayed": self.wal.replayed,
                    "last_fsync_s": self.wal.last_fsync_s,
                }
            return doc

    def shutdown(self) -> None:
        """Wake every epoch waiter with :class:`Cancelled`; idempotent."""
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()

    def close(self) -> None:
        self.shutdown()
        if self.wal is not None:
            self.wal.close()
