"""Span recording around the calls into each layer, from outside ``src/``.

A traced run wraps the public functions through which each layer is
entered (module or class attributes, restored afterwards), so the
program itself runs unchanged.  A span is the list ``[pid, sid, parent,
name, t0, t1, rid, thread, acc, attrs]``.  ``parent`` is the ``sid`` of
the enclosing span of the same thread.  The request id ``rid`` joins
spans across threads and, through the frames, across processes:
``t0``/``t1`` come from ``time.perf_counter``, the system-wide monotonic
clock, so intervals of different processes compare.  Boundaries hit
once per settled vertex (the storage accessors) add a count and a time
to the enclosing span's ``acc`` instead of opening a span per call.

Spans are held in memory and written as JSONL, one span list per line,
when the workload ends; worker processes load the same wrappers through
``bootstrap/`` and write theirs at exit.  Event lines are objects.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
from time import perf_counter

#: environment variable naming the trace directory of worker processes
TRACE_ENV = "E2E_TRACE_DIR"
#: positions in a span list
PID, SID, PARENT, NAME, T0, T1, RID, THREAD, ACC, ATTRS = range(10)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list = []
        #: (kind, worker pid, seq, time, bytes) point events
        self.events: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ------------------------------------------------------
    def timed(self, name: str, fn, rid_of=None, attrs_of=None):
        """``fn`` wrapped to record one span per call.

        ``rid_of(args)`` names the request the call serves; without one
        the span inherits its parent's.  ``attrs_of(args)`` gives the
        span's attributes.
        """
        ids, spans, stack_of, pid = self._ids, self.spans, self._stack, self.pid

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            rid = rid_of(args) if rid_of is not None else None
            if rid is None and parent is not None:
                rid = parent[RID]
            attrs = attrs_of(args) if attrs_of is not None else None
            span = [pid, next(ids), parent[SID] if parent else None, name,
                    0.0, 0.0, rid, threading.get_ident(), None, attrs]
            stack.append(span)
            span[T0] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[T1] = perf_counter()
                stack.pop()
                spans.append(span)

        return wrapper

    def leaf(self, key: str, fn, materialize: bool = False):
        """``fn`` wrapped to add (count, time) to the enclosing span; a
        call outside any span is not recorded.

        Nested leaf calls (an accessor calling another) are charged once,
        to the outermost.  ``materialize`` drains a returned iterator
        inside the timed region and hands back an iterator over the list.
        """
        local, stack_of = self._local, self._stack

        def wrapper(*args, **kwargs):
            if getattr(local, "in_leaf", False):
                return fn(*args, **kwargs)
            local.in_leaf = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = iter(list(out))
                return out
            finally:
                dt = perf_counter() - t0
                local.in_leaf = False
                stack = stack_of()
                if stack:
                    span = stack[-1]
                    if span[ACC] is None:
                        span[ACC] = {}
                    count, total = span[ACC].get(key, (0, 0.0))
                    span[ACC][key] = (count + 1, total + dt)

        return wrapper

    def mark(self, **attrs) -> None:
        """Set attributes on the calling thread's innermost span, keeping
        any value already set."""
        stack = self._stack()
        if stack:
            span = stack[-1]
            if span[ATTRS] is None:
                span[ATTRS] = {}
            for key, value in attrs.items():
                span[ATTRS].setdefault(key, value)

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, rid_of=None,
             attrs_of=None) -> None:
        self.patch(owner, attr, self.timed(name, getattr(owner, attr),
                                           rid_of, attrs_of))

    def wrap_leaf(self, owner, attr: str, materialize: bool = False) -> None:
        self.patch(owner, attr, self.leaf("storage", getattr(owner, attr),
                                          materialize))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- export ---------------------------------------------------------
    def dump(self, directory: str) -> str:
        path = os.path.join(directory, f"spans-{self.pid}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for kind, worker, seq, t, nbytes in self.events:
                fh.write(json.dumps({"event": kind, "worker": worker,
                                     "seq": seq, "t": t, "bytes": nbytes})
                         + "\n")
        return path


def load(directory: str) -> tuple[list, list]:
    """(spans, events) written to ``directory`` by every process."""
    spans, events = [], []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("["):
                        spans.append(json.loads(line))
                    elif line.strip():
                        events.append(json.loads(line))
    return spans, events


def _request_id(args):
    request = args[0] if args else None
    return request.get("id") if isinstance(request, dict) else None


def _second_request_id(args):
    return _request_id(args[1:])


def _frame_bytes(doc) -> int:
    return len(json.dumps(doc, separators=(",", ":")))


def install_common(tracer: Tracer, apply_name: str) -> None:
    """Wrappers shared by the benchmark process and worker processes."""
    from repro.live.session import LiveSession
    from repro.serve import service

    tracer.wrap(service, "run_query", "service.run_query", _request_id)
    tracer.wrap(service, "range_query", "network.range")
    tracer.wrap(service, "knn_query", "network.knn")
    tracer.wrap(LiveSession, "apply", apply_name)


def install_bench(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark process crosses."""
    import repro.core.kmedoids as kmedoids_mod
    import repro.core.singlelink as singlelink_mod
    import runners
    import serving
    from repro.core import (EpsLink, NetworkDBSCAN, NetworkKMedoids,
                            NetworkOPTICS, SingleLink)
    from repro.live.session import LiveSession
    from repro.live.wal import WriteAheadLog
    from repro.network.csr import CSRNetwork
    from repro.perf import DistanceAccelerator, LandmarkIndex
    from repro.perf.cache import DistanceCache
    from repro.serve.service import QueryService
    from repro.serve.supervisor import ProcessWorker, SupervisedPool
    from repro.storage.netstore import NetworkStore, StoredPointSet

    install_common(tracer, "live.apply")
    tracer.wrap(serving, "roundtrip", "client.request", _second_request_id)
    tracer.wrap(serving, "decode", "protocol.decode")
    tracer.wrap(serving, "encode", "protocol.encode")
    tracer.wrap(QueryService, "submit", "service.submit", _second_request_id)
    tracer.wrap(SupervisedPool, "submit", "supervisor.submit",
                _second_request_id)
    tracer.wrap(DistanceAccelerator, "range_query", "perf.range")
    tracer.wrap(DistanceAccelerator, "knn_query", "perf.knn")
    tracer.wrap(LandmarkIndex, "__init__", "perf.index_build")
    tracer.wrap(LiveSession, "mutate", "live.mutate")
    tracer.wrap(WriteAheadLog, "append", "live.wal_append")
    for cls, alg in ((NetworkKMedoids, "kmedoids"), (EpsLink, "epslink"),
                     (NetworkDBSCAN, "dbscan"), (NetworkOPTICS, "optics"),
                     (SingleLink, "singlelink")):
        tracer.wrap(cls, "run", f"core.{alg}")
    tracer.wrap(kmedoids_mod, "multi_source", "network.multi_source")
    tracer.wrap(singlelink_mod, "multi_source", "network.multi_source")

    tracer.wrap(runners, "run_job", "client.job", lambda args: args[0]["id"])
    freeze = tracer.timed("network.freeze", CSRNetwork.freeze)
    tracer.patch(CSRNetwork, "freeze",
                 classmethod(lambda cls, network: freeze(network)))
    build = tracer.timed("storage.build", NetworkStore.build)
    tracer.patch(NetworkStore, "build",
                 classmethod(lambda cls, *args, **kw: build(*args, **kw)))

    get = DistanceCache.get

    def cache_get(cache, key, default=None):
        value = get(cache, key, default)
        tracer.mark(hit=value is not default)
        return value

    tracer.patch(DistanceCache, "get", cache_get)

    for attr in ("neighbors", "nodes", "edges"):
        tracer.wrap_leaf(NetworkStore, attr, materialize=True)
    for attr in ("degree", "has_edge", "edge_weight"):
        tracer.wrap_leaf(NetworkStore, attr)
    for attr in ("__iter__", "point_ids", "populated_edges"):
        tracer.wrap_leaf(StoredPointSet, attr, materialize=True)
    for attr in ("points_on_edge", "points_from", "get", "distance_to_node"):
        tracer.wrap_leaf(StoredPointSet, attr)

    def frame_rid(args):
        request = args[1].get("request")
        return request.get("id") if isinstance(request, dict) else None

    def frame_attrs(args):
        worker, doc = args
        kind = ("apply" if "apply" in doc else
                "request" if "request" in doc else "control")
        return {"worker": worker.pid, "seq": doc.get("seq"), "kind": kind,
                "bytes": _frame_bytes(doc)}

    tracer.wrap(ProcessWorker, "send", "supervisor.send", frame_rid,
                frame_attrs)
    recv = ProcessWorker.recv

    def traced_recv(worker):
        doc = recv(worker)
        if isinstance(doc, dict) and "ok" in doc:
            tracer.events.append(("recv", worker.pid, doc.get("seq"),
                                  perf_counter(), _frame_bytes(doc)))
        return doc

    tracer.patch(ProcessWorker, "recv", traced_recv)


def install_worker(directory: str) -> Tracer:
    """Worker-process tracing: wrap, and write the spans at exit.

    Inside a worker an apply comes from a broadcast frame, so it is
    recorded as ``live.worker_apply``.
    """
    tracer = Tracer()
    install_common(tracer, "live.worker_apply")
    atexit.register(tracer.dump, directory)
    return tracer
