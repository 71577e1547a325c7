"""Deadlines and cooperative cancellation for long-running traversals.

The paper's algorithms all reduce to long graph traversals; a single slow
Dijkstra expansion can only be bounded by coarse operation budgets
(:class:`repro.faults.OpBudget`).  This module adds the wall-clock
equivalent: a :class:`Deadline` carries a monotonic-clock budget plus an
optional external :class:`CancelToken`, and the hot loops call a *cheap
cooperative checkpoint* (:func:`check`) that raises a typed
:class:`~repro.exceptions.DeadlineExceeded` / :class:`~repro.exceptions.Cancelled`
the moment the budget is spent or the token trips.  Traversal loops make
one call per settle, :func:`settle_checkpoint`, which also fires the
loop's fault site and charges the active operation budget.

Zero overhead while disarmed
----------------------------
The same discipline as :mod:`repro.faults` and :mod:`repro.obs`: a
process-global :data:`STATE` holds an ``engaged`` count of active
deadlines.  Hot loops read ``STATE.engaged`` once on entry (dijkstra's
plain/instrumented dispatch) or per iteration behind an existing guard; while no
deadline is active anywhere in the process this costs one attribute check
and the traversal bytecode is otherwise unchanged.

Propagation
-----------
The *active* deadline is tracked in a :mod:`contextvars` ``ContextVar``, so
it flows naturally into nested calls (clustering -> range query ->
Dijkstra -> pager) and is isolated per thread: each thread of
:class:`repro.serve.QueryService` activates its timed request's deadline
without seeing its neighbours'.  Cooperative checkpoints observe whichever
deadline is active in their context — traversal code never threads
deadline arguments through its signatures.  The serve tiers build and
activate a deadline only for a request that has an expiry (its own
``timeout_ms`` or the service default): an untimed request, which nothing
could cancel, runs with no deadline active, so while no timed work runs
anywhere in the process its traversals take the disarmed path.

Interrupts compose with checkpoint/resume: a timed-out clustering run
leaves its periodic snapshot in place (the interrupt is raised *between*
state mutations, at the same sites the crash-injection sweep exercises),
so ``--resume`` completes it identically to an uninterrupted run.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Callable

from repro.exceptions import Cancelled, DeadlineExceeded, ParameterError
from repro.faults.core import STATE as _FAULTS, fire as _fault
from repro.obs.core import add as _obs_add

__all__ = [
    "CancelToken",
    "Deadline",
    "ResilienceState",
    "STATE",
    "check",
    "current",
    "settle_checkpoint",
]


class ResilienceState:
    """Process-global armed/disarmed switch for cooperative checkpoints.

    ``engaged`` counts deadlines currently active in *any* context; hot
    loops treat it as a boolean.  Mutated only under :data:`_ENGAGE_LOCK`
    (activation is rare), read lock-free (it is a single int).
    """

    __slots__ = ("engaged",)

    def __init__(self) -> None:
        self.engaged = 0


STATE = ResilienceState()

_ENGAGE_LOCK = threading.Lock()

# Serializes every token's first cancel; cancels are rare, so one lock
# for all tokens costs nothing and keeps a token as cheap as two slots.
_CANCEL_LOCK = threading.Lock()

_ACTIVE: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_resilience_deadline", default=None
)


class CancelToken:
    """A thread-safe, one-shot cancellation flag.

    The first :meth:`cancel` wins and records its ``reason``; later calls
    are no-ops.  Checking is a single attribute read of ``cancelled`` —
    cheap enough for traversal inner loops.  Nothing ever waits on a
    token, so it holds a plain flag rather than a ``threading.Event``.
    """

    __slots__ = ("cancelled", "reason")

    def __init__(self) -> None:
        self.cancelled = False
        self.reason: str | None = None

    def cancel(self, reason: str = "cancelled") -> bool:
        """Trip the token.  Returns True iff this call did the tripping."""
        with _CANCEL_LOCK:
            if self.cancelled:
                return False
            # Publish the reason before the flag so a concurrent reader
            # that sees ``cancelled`` also sees a reason.
            self.reason = reason
            self.cancelled = True
            return True

    def raise_if_cancelled(
        self, site: str = "", partial: object | None = None
    ) -> None:
        if self.cancelled:
            _obs_add("resilience.cancelled")
            raise Cancelled(self.reason or "cancelled", site=site, partial=partial)


class Deadline:
    """A monotonic-clock budget plus an optional external cancel switch.

    Parameters
    ----------
    timeout_s:
        Wall-clock budget in seconds, measured from construction.  ``None``
        means no time limit (the deadline then only propagates its token).
        ``0`` is legal and expires at the first cooperative check — the
        canonical "unmeetable deadline".
    token:
        External :class:`CancelToken`; one is created when not supplied, so
        :meth:`cancel` always works.
    clock:
        Injectable monotonic clock (seconds).  Tests substitute
        :class:`~repro.resilience.clock.VirtualClock` /
        :class:`~repro.resilience.clock.TickingClock` for determinism.
    """

    __slots__ = ("timeout_s", "token", "checks", "_clock", "_started_at", "_expires_at")

    def __init__(
        self,
        timeout_s: float | None = None,
        *,
        token: CancelToken | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if timeout_s is not None and timeout_s < 0:
            raise ParameterError(f"timeout_s must be >= 0, got {timeout_s}")
        self.timeout_s = timeout_s
        self.token = token if token is not None else CancelToken()
        self.checks = 0
        self._clock = clock
        self._started_at = clock()
        self._expires_at = (
            None if timeout_s is None else self._started_at + timeout_s
        )

    def elapsed(self) -> float:
        return self._clock() - self._started_at

    def remaining(self) -> float:
        """Seconds left in the budget; ``inf`` when there is no time limit."""
        if self._expires_at is None:
            return float("inf")
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        return self._expires_at is not None and self._clock() >= self._expires_at

    def cancel(self, reason: str = "cancelled") -> bool:
        return self.token.cancel(reason)

    def check(self, site: str, partial: object | None = None) -> None:
        """Cooperative checkpoint: raise if cancelled or out of budget.

        ``partial`` is attached to the raised interrupt as best-effort
        partial progress (e.g. the settled-distance map of an interrupted
        Dijkstra).  Deterministic: the check count, not wall time, is what
        tests drive via an injected clock.
        """
        self.checks += 1
        token = self.token
        if token.cancelled:
            _obs_add("resilience.cancelled")
            raise Cancelled(
                token.reason or "cancelled", site=site, partial=partial
            )
        expires_at = self._expires_at
        if expires_at is not None:
            now = self._clock()
            if now >= expires_at:
                _obs_add("resilience.deadline_exceeded")
                raise DeadlineExceeded(
                    site,
                    self.timeout_s,
                    now - self._started_at,
                    checks=self.checks,
                    partial=partial,
                )

    @contextmanager
    def activate(self) -> Iterator[Deadline]:
        """Install as the context's active deadline and arm the checkpoints."""
        saved = _ACTIVE.set(self)
        with _ENGAGE_LOCK:
            STATE.engaged += 1
        try:
            yield self
        finally:
            with _ENGAGE_LOCK:
                STATE.engaged -= 1
            _ACTIVE.reset(saved)


def current() -> Deadline | None:
    """The deadline active in this context, if any."""
    return _ACTIVE.get()


def check(site: str, partial: object | None = None) -> None:
    """Module-level cooperative checkpoint.

    The one call traversal code makes.  Disarmed (no active deadline
    anywhere) it is an attribute check and a return; armed, it defers to
    the context's active deadline — a deadline activated in thread A is
    invisible to thread B's checkpoints.
    """
    if not STATE.engaged:
        return
    deadline = _ACTIVE.get()
    if deadline is not None:
        deadline.check(site, partial)


def settle_checkpoint(site: str, partial: object) -> None:
    """The per-settle guard of every traversal loop.

    Fires the fault ``site``, runs the deadline checkpoint and spends one
    expansion from the active :class:`~repro.faults.OpBudget`, in that
    order, with ``partial`` as the interrupt's partial result.  Loops
    call it only behind ``guard = _FAULTS.engaged or STATE.engaged``,
    read once on entry, so the disarmed path pays nothing.
    """
    if _FAULTS.engaged:
        _fault(site)
    check(site, partial)
    budget = _FAULTS.budget
    if budget is not None:
        budget.spend_expansions(1, partial=partial)
