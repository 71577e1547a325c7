"""Line-delimited JSON request/response protocol for the query service.

One request per line, one response per line, matched by the caller-chosen
``id``.  Requests are plain JSON objects::

    {"id": "r1", "op": "range", "point_id": 3, "eps": 2.0, "timeout_ms": 50}
    {"id": "r2", "op": "knn", "point_id": 3, "k": 5}
    {"id": "r3", "op": "cluster", "algorithm": "eps-link", "eps": 1.0}
    {"id": "r4", "op": "stats"}
    {"id": "r5", "op": "mutate",
     "mutation": {"kind": "insert_point", "u": 1, "v": 2, "offset": 0.5}}
    {"id": "r6", "op": "subscribe_epoch", "from_epoch": 41}
    {"id": "r7", "op": "snapshot"}

``op`` selects the work: ``range`` / ``knn`` anchor at an existing object
(``point_id``) of the served workload; ``cluster`` runs one of the paper's
algorithms over the whole workload (same parameter names as the CLI:
``eps``, ``k``, ``min_pts``, ``delta``, ``seed``, ``restarts``); ``stats``
returns the service's live telemetry snapshot — uptime, the ``serve.*``
counters, latency histograms with p50/p90/p99, and the queue-depth /
worker / breaker-state / cache-hit-ratio gauges (see
``docs/observability.md`` for the schema).

The three live ops require the service to have been started with a
mutation log (``repro serve --wal``) and otherwise fail with
``BadRequest``: ``mutate`` applies one typed mutation (``insert_point`` /
``remove_point`` / ``reweigh_edge`` — schema in ``docs/robustness.md``)
and answers ``{"epoch": n, ...}`` only after the write-ahead-log fsync;
``subscribe_epoch`` blocks until the served epoch exceeds ``from_epoch``
(bounded by the request deadline); ``snapshot`` returns the epoch and the
full maintained cluster assignment.
``timeout_ms`` overrides the service's default per-request deadline
(measured from *admission*, so queue wait counts against it).
Any request may also carry ``"trace": true`` to opt into request-scoped
tracing when the service has a trace file configured: that one request's
span tree is recorded, stamped with its ``request_id``.

Responses carry either a result or a typed error from the taxonomy in
``docs/resilience.md``::

    {"id": "r1", "ok": true, "result": [[7, 0.4], [2, 1.1]]}
    {"id": "r3", "ok": false, "error": "DeadlineExceeded", "message": "..."}

:func:`error_name` is the single mapping from Python exceptions to wire
error names, so the chaos tests and the CLI agree on the taxonomy.
"""

from __future__ import annotations

import json

from repro.exceptions import (
    BudgetExceededError,
    Cancelled,
    CircuitOpenError,
    DeadlineExceeded,
    Overloaded,
    ParameterError,
    ReproError,
    StorageError,
)

__all__ = [
    "OPS",
    "error_name",
    "error_response",
    "parse_request",
    "result_response",
    "timeout_ms_seconds",
]

OPS = ("range", "knn", "cluster", "stats", "mutate", "subscribe_epoch",
       "snapshot")


def parse_request(line: str, lineno: int = 0) -> dict:
    """Decode one request line, raising :class:`ParameterError` on garbage."""
    where = f"request line {lineno}" if lineno else "request"
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"{where}: expected a JSON object")
    op = doc.get("op")
    if op not in OPS:
        raise ParameterError(
            f"{where}: op must be one of {list(OPS)}, got {op!r}"
        )
    if doc.get("timeout_ms") is not None:
        timeout_ms_seconds(doc["timeout_ms"], where)
    return doc


def timeout_ms_seconds(raw: object, where: str = "") -> float:
    """A request's ``timeout_ms`` in seconds, or :class:`ParameterError`.

    The one validation of the field: the line parser and the front end's
    admission both call it, so a bad value is refused with the same words
    whichever door it comes through (``where`` prefixes the message).
    """
    if (
        isinstance(raw, bool)
        or not isinstance(raw, (int, float))
        or raw != raw  # NaN
        or raw < 0
    ):
        prefix = f"{where}: " if where else ""
        raise ParameterError(
            f"{prefix}timeout_ms must be a number >= 0, got {raw!r}"
        )
    return float(raw) / 1000.0


def error_name(exc: BaseException) -> str:
    """Wire name of an exception: the service's error taxonomy."""
    # Errors that already crossed a worker pipe carry their original wire
    # name; honouring it keeps the taxonomy transport-invariant (a
    # BadRequest inside a worker process is still a BadRequest here).
    wire_name = getattr(exc, "wire_name", None)
    if wire_name is not None:
        return wire_name
    if isinstance(exc, DeadlineExceeded):
        return "DeadlineExceeded"
    if isinstance(exc, Cancelled):
        return "Cancelled"
    if isinstance(exc, Overloaded):
        return "Overloaded"
    if isinstance(exc, CircuitOpenError):
        return "CircuitOpen"
    if isinstance(exc, BudgetExceededError):
        return "BudgetExceeded"
    # Only ParameterError maps to BadRequest: the service wraps every
    # request-field extraction/conversion failure in it, so a bare
    # KeyError/TypeError/ValueError can only be an internal bug and must
    # not be blamed on the client's request.
    if isinstance(exc, ParameterError):
        return "BadRequest"
    if isinstance(exc, StorageError):
        return "StorageError"
    if isinstance(exc, OSError):
        return "IOError"
    if isinstance(exc, ReproError):
        return type(exc).__name__
    return "InternalError"


def result_response(request: dict, result: object) -> dict:
    out = {"ok": True, "result": result}
    if "id" in request:
        out["id"] = request["id"]
    return out


def error_response(request: dict, exc: BaseException) -> dict:
    out = {"ok": False, "error": error_name(exc), "message": str(exc)}
    if isinstance(request, dict) and "id" in request:
        out["id"] = request["id"]
    return out
