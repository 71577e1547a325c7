"""Closed-loop clients driving the serve tiers through the wire codec.

Each request does the per-line work of ``repro serve``: the client's
``json.dumps``, :func:`decode` (``parse_request``), ``submit().result()``
and :func:`encode` (``result_response`` + ``json.dumps``).  The functions
are module attributes so a traced run can wrap them.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from time import perf_counter

import reference
from repro.serve.protocol import error_response, parse_request, result_response

#: client threads of every serve workload (and workers/processes serving)
CLIENTS = 2
#: a timed loop's slice: the reference kernel is timed between slices
SLICE_S = 0.5
#: how long a client waits for the others at the end of a slice
BARRIER_TIMEOUT_S = 60.0


def decode(line: str) -> dict:
    return parse_request(line)


def encode(request: dict, result) -> str:
    return json.dumps(result_response(request, result))


def roundtrip(submit, request: dict) -> tuple[str, bool]:
    """One request through the codec; returns (response line, ok)."""
    doc = decode(json.dumps(request))
    try:
        result = submit(doc).result()
    except Exception as exc:  # the request failed; the loop counts it
        return json.dumps(error_response(doc, exc)), False
    return encode(doc, result), True


@dataclass
class LoopResult:
    #: op -> latencies in seconds (client side, codec included)
    latency: dict = field(default_factory=dict)
    #: op -> requests that failed
    errors: dict = field(default_factory=dict)
    completed: int = 0
    failed: int = 0
    #: (start, end) of the loop on the perf_counter clock
    window: tuple = (0.0, 0.0)
    #: loop index -> (request, response line), for the indexes ``keep``
    #: selected
    kept: dict = field(default_factory=dict)
    response_bytes: int = 0
    #: a timed loop's slices: (seconds, requests answered), and the
    #: reference kernel's time before the first and after each
    slices: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.completed + self.failed

    def throughput(self, scaled: bool = True) -> float:
        """Requests answered per second of the timed slices; ``scaled``
        puts each slice on the reference machine."""
        busy = sum(
            reference.scale(s, self.kernel_s[i], self.kernel_s[i + 1])
            if scaled else s for i, (s, _n) in enumerate(self.slices))
        return sum(n for _s, n in self.slices) / busy


def closed_loop(submit, requests, *, count: int | None = None,
                seconds: float | None = None, gauge=None, keep=None,
                clients: int = CLIENTS) -> LoopResult:
    """Run requests taken from the iterator ``requests`` through
    ``clients`` closed-loop threads.

    Each client takes the next request as soon as its previous one
    completes, until ``count`` requests have been taken or, with
    ``seconds``, that much time has passed.  A timed loop runs in slices
    of SLICE_S: at the end of each, the clients wait for each other's
    last request and the reference kernel ``gauge`` is timed before they
    go on.  ``keep(i)`` selects the loop indexes (0 for the first request
    taken) whose response lines are kept.
    """
    out = LoopResult()
    lock = threading.Lock()
    taken = [0]
    n_slices = 0 if seconds is None else max(1, round(seconds / SLICE_S))
    #: requests answered in the current slice, one slot per client
    answered = [0] * clients
    if n_slices:
        out.kernel_s.append(gauge.seconds())
    t0 = perf_counter()
    #: start of the current slice and when it ends: never in an untimed
    #: loop, None once the last slice has ended
    bounds = [t0, t0 + SLICE_S if n_slices else math.inf]
    ends = []

    def next_slice() -> None:
        # Runs in the last client to reach the barrier, the others waiting.
        now = perf_counter()
        out.slices.append((now - bounds[0], sum(answered)))
        answered[:] = [0] * clients
        out.kernel_s.append(gauge.seconds())
        bounds[0] = perf_counter()
        bounds[1] = (bounds[0] + SLICE_S if len(out.slices) < n_slices
                     else None)

    barrier = threading.Barrier(clients, action=next_slice)

    def client(slot: int) -> None:
        latency: dict = {}
        errors: dict = {}
        kept: dict = {}
        nbytes = 0
        while True:
            if bounds[1] is None:
                break
            if perf_counter() >= bounds[1]:
                barrier.wait(BARRIER_TIMEOUT_S)
                continue
            with lock:
                i = taken[0]
                if count is not None and i >= count:
                    break
                taken[0] = i + 1
                request = next(requests)
            began = perf_counter()
            line, ok = roundtrip(submit, request)
            ended = perf_counter()
            op = request["op"]
            latency.setdefault(op, []).append(ended - began)
            nbytes += len(line)
            if ok:
                answered[slot] += 1
            else:
                errors[op] = errors.get(op, 0) + 1
            if keep is not None and keep(i):
                kept[i] = (request, line)
        with lock:
            for op, values in latency.items():
                out.latency.setdefault(op, []).extend(values)
            for op, n in errors.items():
                out.errors[op] = out.errors.get(op, 0) + n
            out.kept.update(kept)
            out.response_bytes += nbytes
            ends.append(perf_counter())

    threads = [threading.Thread(target=client, args=(n,),
                                name=f"e2e-client-{n}")
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.window = (t0, max(ends))
    out.failed = sum(out.errors.values())
    out.completed = sum(map(len, out.latency.values())) - out.failed
    return out
