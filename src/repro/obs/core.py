"""Core of the observability subsystem: state, counters, and span tracing.

One process-global :class:`ObsState` holds everything the subsystem knows:
an ``enabled`` flag, the unified counter namespace, per-span-name timing
aggregates, and an optional JSONL trace writer.  Instrumented code interacts
with it through two primitives only:

* :func:`add` — bump a namespaced counter (``"dijkstra.heap_pops"``,
  ``"storage.physical_reads"``, ...).  A no-op while disabled.
* :func:`span` — open a hierarchical timing span as a context manager.
  While disabled it returns a shared singleton whose ``__enter__`` /
  ``__exit__`` do nothing, so the disabled path costs one attribute check
  and allocates nothing beyond that no-op object (which already exists).

The active span is tracked in a :mod:`contextvars` ``ContextVar``, so
nesting is correct across threads and asyncio tasks: each thread/task sees
its own span stack while all aggregates land in the shared registry.
Aggregate mutation (counter adds, span fold-in) happens under one process
lock: the multi-worker serve pool increments the same names concurrently,
and an unguarded ``c[name] = c.get(name, 0) + value`` silently drops
updates when two workers interleave between the read and the write.  The
disabled path never touches the lock.

Request-scoped trace sampling: when :func:`enable` is called with
``sample_requests=True``, the trace writer records only spans opened
inside a :func:`sampled` scope (a ``ContextVar`` flag, so it follows the
request into whatever thread executes it).  The query service uses this to
trace individual requests that carry a ``trace`` flag without paying the
trace cost for — or flooding the file with — every other request.

Hot loops that cannot afford even a per-operation function call (the
Dijkstra inner loops) instead check ``STATE.enabled`` once on entry and run
the instrumented variant of the loop only when observability is on — the
disabled path executes the exact pre-instrumentation bytecode.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time

__all__ = [
    "ObsState",
    "STATE",
    "Span",
    "TraceWriter",
    "add",
    "current_span",
    "disable",
    "enable",
    "is_enabled",
    "is_sampled",
    "reset",
    "sampled",
    "span",
]


class ObsState:
    """Process-global observability state (use the module-level ``STATE``)."""

    __slots__ = (
        "enabled",
        "sampling",
        "counters",
        "span_count",
        "span_total",
        "writer",
        "epoch",
        "lock",
    )

    def __init__(self) -> None:
        self.enabled = False
        #: when True, the trace writer records only spans opened inside a
        #: :func:`sampled` scope (request-scoped tracing)
        self.sampling = False
        #: name -> cumulative integer count
        self.counters: dict[str, int] = {}
        #: span name -> number of completed spans
        self.span_count: dict[str, int] = {}
        #: span name -> cumulative duration in seconds
        self.span_total: dict[str, float] = {}
        self.writer: TraceWriter | None = None
        #: perf_counter value at the first / latest *fresh* :func:`enable`;
        #: span starts are relative to it
        self.epoch = 0.0
        #: guards every read-modify-write of the aggregate dicts
        self.lock = threading.Lock()


STATE = ObsState()

#: callbacks run by :func:`reset` (the metrics registry hooks in here so
#: ``obs.reset()`` zeroes histograms too, without a circular import)
_RESET_HOOKS: list = []


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def add(name: str, value: int = 1) -> None:
    """Add ``value`` to counter ``name`` (no-op while disabled).

    Thread-safe: the read-modify-write runs under ``STATE.lock``, so
    concurrent serve workers incrementing the same name never lose an
    update.  The disabled path stays one flag check and allocation-free.
    """
    st = STATE
    if st.enabled:
        with st.lock:
            c = st.counters
            c[name] = c.get(name, 0) + value


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
_SPAN_IDS = itertools.count(1)
_ACTIVE: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro.obs.active_span", default=None
)
_SAMPLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro.obs.sampled", default=False
)


class Span:
    """One timed, hierarchical region of execution.

    Entering the span records the current active span as its parent and
    installs itself as active; exiting restores the parent, folds the
    duration into the per-name aggregates, and emits a JSONL record when a
    trace writer is configured.
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "start_s",
        "duration_s",
        "_token",
        "_t0",
    )

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.span_id = next(_SPAN_IDS)
        self.parent_id: int | None = None
        self.start_s = 0.0
        self.duration_s: float | None = None
        self._token: contextvars.Token | None = None
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (rendered into its trace record)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        parent = _ACTIVE.get()
        self.parent_id = parent.span_id if parent is not None else None
        self._token = _ACTIVE.set(self)
        self._t0 = time.perf_counter()
        self.start_s = self._t0 - STATE.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        st = STATE
        with st.lock:
            st.span_count[self.name] = st.span_count.get(self.name, 0) + 1
            st.span_total[self.name] = (
                st.span_total.get(self.name, 0.0) + self.duration_s
            )
        writer = st.writer
        if writer is not None and (not st.sampling or _SAMPLED.get()):
            writer.write_span(self, error=exc_type is not None)
        return False

    def __repr__(self) -> str:
        return f"Span(name={self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _NoopSpan:
    """The shared do-nothing span returned while observability is disabled."""

    __slots__ = ()

    span_id = None
    parent_id = None
    name = ""
    duration_s = None

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs):
    """A timing span context manager (the no-op singleton while disabled).

    Spans are live when observability is fully enabled, or — with
    request-scoped sampling on — inside a :func:`sampled` scope.  The
    fully-disabled path is two attribute checks and allocates nothing.
    """
    st = STATE
    if st.enabled or (st.sampling and _SAMPLED.get()):
        return Span(name, attrs)
    return NOOP_SPAN


def current_span() -> Span | None:
    """The innermost active span of the calling thread/task, if any."""
    return _ACTIVE.get()


class _SampledScope:
    """Context manager marking the current context as trace-sampled."""

    __slots__ = ("_token",)

    def __enter__(self) -> "_SampledScope":
        self._token = _SAMPLED.set(True)
        return self

    def __exit__(self, *exc) -> bool:
        _SAMPLED.reset(self._token)
        return False


def sampled() -> _SampledScope:
    """Mark the calling context as trace-sampled for the ``with`` body.

    Under ``enable(sample_requests=True)``, spans opened inside this scope
    are recorded to the trace file; spans outside it are not.  The flag is
    a ``ContextVar``, so it is per-thread/per-task and nests safely.
    """
    return _SampledScope()


def is_sampled() -> bool:
    """Whether the calling context is inside a :func:`sampled` scope."""
    return _SAMPLED.get()


# ----------------------------------------------------------------------
# Trace export
# ----------------------------------------------------------------------
class TraceWriter:
    """Appends one JSON object per completed span to a JSONL file.

    Records carry ``name``, ``span_id``, ``parent_id``, ``start_s`` (seconds
    since :func:`enable`), ``dur_s``, ``thread``, ``attrs`` and an ``error``
    flag.  Writes are serialised by a lock so spans from worker threads
    interleave without tearing lines.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.records_written = 0

    def write_span(self, sp: Span, error: bool = False) -> None:
        record = {
            "name": sp.name,
            "span_id": sp.span_id,
            "parent_id": sp.parent_id,
            "start_s": round(sp.start_s, 9),
            "dur_s": round(sp.duration_s or 0.0, 9),
            "thread": threading.get_ident(),
        }
        if sp.attrs:
            record["attrs"] = sp.attrs
        if error:
            record["error"] = True
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            if not self._fh.closed:
                self._fh.write(line)
                self.records_written += 1

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def is_enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return STATE.enabled


def enable(
    trace_path: str | None = None,
    fresh: bool = True,
    sample_requests: bool = False,
) -> None:
    """Turn observability on.

    Parameters
    ----------
    trace_path:
        When given, completed spans are appended to this JSONL file until
        :func:`disable` closes it.
    fresh:
        Clear previously accumulated counters and span aggregates (the
        default); pass ``False`` to accumulate across enable/disable pairs.
    sample_requests:
        Record to the trace file only spans opened inside a
        :func:`sampled` scope.  Aggregates (counters, span totals) are
        unaffected — only trace *export* is sampled.
    """
    if fresh:
        reset()
        STATE.epoch = time.perf_counter()
    elif STATE.epoch == 0.0:
        # First enable ever: there is no earlier epoch to accumulate onto.
        STATE.epoch = time.perf_counter()
    # Accumulating re-enables keep the original epoch so span ``start_s``
    # values stay monotone across enable/disable cycles instead of jumping
    # backwards to a rebased zero.
    if STATE.writer is not None:
        STATE.writer.close()
    STATE.writer = TraceWriter(trace_path) if trace_path else None
    STATE.sampling = sample_requests
    STATE.enabled = True


def disable() -> None:
    """Turn observability off and close the trace file (aggregates remain
    readable until the next ``enable(fresh=True)``)."""
    STATE.enabled = False
    STATE.sampling = False
    writer = STATE.writer
    STATE.writer = None
    if writer is not None:
        writer.close()


def reset() -> None:
    """Zero all counters, span aggregates, and registered metric state."""
    with STATE.lock:
        STATE.counters.clear()
        STATE.span_count.clear()
        STATE.span_total.clear()
    for hook in _RESET_HOOKS:
        hook()
