"""Per-layer attribution of a traced run.

Spans of every process are joined into one tree per request (or job),
grouped by request id: a span's parent is the enclosing span of its
thread or, for a span that starts a thread's or a process's part of the
request, the smallest span of the request whose interval contains it.
A span's self time is its duration minus the part its children cover
and minus the storage accesses charged to it; a layer's self time is the
sum over its spans.  While a request frame waits for a worker that is
applying broadcast mutations, that apply time is charged to ``live``
rather than to the frame round-trip.  The request root's own self time
is the unattributed remainder: the client's code and every wait that no
layer span covers.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

import summary
from spans import ACC, ATTRS, NAME, PARENT, PID, RID, SID, T0, T1

LAYERS = ("protocol", "service", "supervisor", "perf", "network", "storage",
          "core", "live")
ROOTS = ("client.request", "client.job")
UNATTRIBUTED = "unattributed"
ALGORITHMS = ("kmedoids", "epslink", "dbscan", "optics", "singlelink")
#: the counter that measures each algorithm's own work
WORK_COUNTERS = {
    "kmedoids": "kmedoids.swap_iterations",
    "epslink": "epslink.expansions",
    "dbscan": "dbscan.range_queries",
    "singlelink": "singlelink.candidate_pairs",
    "optics": "optics.ordered_points",
}


#: counters of vertices settled by the network kernels and expansions
_SETTLED = ("dijkstra.nodes_settled", "queries.vertices_settled",
            "perf.range.vertices_settled", "perf.knn.vertices_settled",
            "epslink.vertices_visited")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _storage_s(span) -> float:
    return sum(t for _n, t in (span[ACC] or {}).values())


def _attrs(span) -> dict:
    return span[ATTRS] or {}


def _roundtrips(spans: list, events: list) -> list:
    """A ``supervisor.roundtrip`` span per request frame: from its send to
    the supervisor receiving the matching answer frame."""
    answers = {(e["worker"], e["seq"]): e for e in events
               if e["event"] == "recv"}
    out = []
    for span in spans:
        attrs = _attrs(span)
        if span[NAME] != "supervisor.send" or attrs.get("kind") != "request":
            continue
        answer = answers.get((attrs["worker"], attrs["seq"]))
        if answer is not None:
            out.append([span[PID], f"rt{len(out)}", None,
                        "supervisor.roundtrip", span[T0], answer["t"],
                        span[RID], None, None,
                        {"worker": attrs["worker"],
                         "bytes": attrs["bytes"] + answer["bytes"]}])
    return out


class Trace:
    """The joined span trees of one traced workload run."""

    def __init__(self, spans: list, events: list, window: tuple) -> None:
        spans = spans + _roundtrips(spans, events)
        self.spans = spans
        self.window = window
        lo, hi = window
        groups = defaultdict(list)
        for span in spans:
            if span[RID] is not None:
                groups[span[RID]].append(span)
        #: worker pid -> (starts, intervals) of its broadcast applies
        self._applies = {}
        for span in spans:
            if span[NAME] == "live.worker_apply":
                self._applies.setdefault(span[PID], []).append(
                    (span[T0], span[T1]))
        for pid, intervals in self._applies.items():
            intervals.sort()
            self._applies[pid] = ([a for a, _b in intervals], intervals)
        self.table = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
        self.table["wall"] = 0.0
        #: per request in the window: span name -> first span of that name
        self.trees: list = []
        for members in groups.values():
            roots = [s for s in members if s[NAME] in ROOTS]
            if len(roots) != 1 or not lo <= roots[0][T0] <= hi:
                continue
            self._attribute(roots[0], members)

    def _attribute(self, root, members: list) -> None:
        """Add one request's self times to the table."""
        by_sid = {(s[PID], s[SID]): s for s in members}
        children = defaultdict(list)
        for s in members:
            if s is root:
                continue
            if s[PARENT] is not None:
                parent = by_sid.get((s[PID], s[PARENT]))
            else:
                dur = s[T1] - s[T0]
                parent = min(
                    (c for c in members if c[T1] - c[T0] > dur
                     and c[T0] <= s[T0] and s[T1] <= c[T1]),
                    key=lambda c: c[T1] - c[T0], default=None,
                )
            if parent is not None:
                children[id(parent)].append(s)
        table = self.table
        named = {}
        for s in members:
            named.setdefault(s[NAME], s)
            kids = [(c[T0], c[T1]) for c in children.get(id(s), ())]
            if s[NAME] == "supervisor.roundtrip":
                busy = self._busy(s[ATTRS]["worker"], s[T0], s[T1])
                table["live"] += covered(busy, s[T0], s[T1])
                kids += busy
            storage = _storage_s(s)
            own = s[T1] - s[T0] - storage - covered(kids, s[T0], s[T1])
            layer = UNATTRIBUTED if s is root else layer_of(s[NAME])
            table[layer] += own
            table["storage"] += storage
        table["wall"] += root[T1] - root[T0]
        self.trees.append(named)

    def _busy(self, worker: int, lo: float, hi: float) -> list:
        """The broadcast applies of ``worker`` overlapping ``[lo, hi]``."""
        starts, intervals = self._applies.get(worker, ((), ()))
        i = max(0, bisect.bisect_right(starts, lo) - 1)
        out = []
        while i < len(intervals) and intervals[i][0] < hi:
            if intervals[i][1] > lo:
                out.append(intervals[i])
            i += 1
        return out

    def in_window(self, name: str) -> list:
        lo, hi = self.window
        return [s for s in self.spans if s[NAME] == name and lo <= s[T0] <= hi]

    def durations(self, name: str, window: bool = True) -> list:
        spans = self.in_window(name) if window else [
            s for s in self.spans if s[NAME] == name]
        return [s[T1] - s[T0] for s in spans]

    def share(self, layer: str) -> float:
        return _ratio(self.table[layer], self.table["wall"])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _us(values) -> list:
    return [1e6 * v for v in values]


def _dist(out: dict, name: str, values, unit: str = "us") -> None:
    """The median of ``values``, or the p99 when ``name`` ends in .p99."""
    values = list(values)
    n = len(values)
    if n and not name.endswith(".p99"):
        out[name] = {"value": statistics.median(values), "unit": unit, "n": n}
    elif n and summary.supports(n, 99):
        out[name] = {"value": summary.percentile(values, 99), "unit": unit,
                     "n": n}
    else:
        out[name] = {"value": None, "unit": unit, "n": n,
                     "reason": f"{n} samples do not support it"}


def _val(out: dict, name: str, value, unit: str) -> None:
    out[name] = {"value": value, "unit": unit}


def _dur(span) -> float:
    return span[T1] - span[T0]


def layer_metrics(workload: str, trace: Trace, extras: dict,
                  counts: dict | None) -> dict:
    """The per-layer metrics of ``workload`` by the names of the layer map
    (README), for the layers this workload enters."""
    out: dict = {}
    for layer in LAYERS + (UNATTRIBUTED,):
        _val(out, f"{layer}.self_share", trace.share(layer), "fraction")
    counts = counts or {}
    trees = trace.trees
    if workload.startswith("serve"):
        for step in ("decode", "encode"):
            _dist(out, f"protocol.{step}_us", _us(
                _dur(t[f"protocol.{step}"]) for t in trees
                if f"protocol.{step}" in t))
        _val(out, "protocol.response_bytes", extras["response_bytes"], "bytes")
    if workload in ("serve-scatter", "serve-hotspot"):
        _service_metrics(out, trees)
    if workload == "serve-hotspot":
        _perf_metrics(out, trace, counts)
    if workload in ("serve-scatter", "serve-live"):
        _dist(out, "network.range_us.p50", _us(trace.durations("network.range")))
        _dist(out, "network.knn_us.p50", _us(trace.durations("network.knn")))
        settled = counts.get("queries.vertices_settled", 0)
        _val(out, "network.settled_per_query", _ratio(
            settled, counts.get("queries.range_queries", 0)
            + counts.get("queries.knn_queries", 0)), "count")
        _val(out, "network.settled_per_hit",
             _ratio(settled, counts.get("bench.results_returned", 0)), "count")
    if workload in ("serve-hotspot", "cluster-batch"):
        _dist(out, "network.freeze_s",
              trace.durations("network.freeze", window=False), "s")
    if workload == "serve-live":
        _live_metrics(out, trace, extras)
    if workload == "cluster-batch":
        _cluster_metrics(out, trace, extras, counts)
    return out


def queue_wait(tree: dict) -> float | None:
    """From ``QueryService.submit`` returning to ``run_query`` starting."""
    if "service.submit" in tree and "service.run_query" in tree:
        return tree["service.run_query"][T0] - tree["service.submit"][T1]
    return None


def dispatch_wait(tree: dict) -> float | None:
    """From ``SupervisedPool.submit`` to the request frame's send."""
    send = tree.get("supervisor.send")
    if "supervisor.roundtrip" in tree and send is not None:
        return send[T0] - tree["supervisor.submit"][T0]
    return None


def _service_metrics(out: dict, trees: list) -> None:
    waits, execs, overheads = [], [], []
    for t in trees:
        wait = queue_wait(t)
        if wait is None:
            continue
        run = _dur(t["service.run_query"])
        codec = sum(_dur(t[n]) for n in ("protocol.decode", "protocol.encode")
                    if n in t)
        waits.append(wait)
        execs.append(run)
        overheads.append(_dur(t["client.request"]) - codec - wait - run)
    _dist(out, "service.queue_wait_us.p50", _us(waits))
    _dist(out, "service.queue_wait_us.p99", _us(waits))
    _dist(out, "service.exec_us.p50", _us(execs))
    _dist(out, "service.exec_us.p99", _us(execs))
    _dist(out, "service.overhead_us", _us(overheads))


def _perf_metrics(out: dict, trace: Trace, counts: dict) -> None:
    perf = [t[n] for t in trace.trees for n in ("perf.range", "perf.knn")
            if n in t]
    hits = [_dur(s) for s in perf if _attrs(s).get("hit")]
    misses = [_dur(s) for s in perf if not _attrs(s).get("hit")]
    _val(out, "perf.cache_hit_ratio", _ratio(len(hits), len(perf)), "fraction")
    _dist(out, "perf.hit_us.p50", _us(hits))
    _dist(out, "perf.miss_us.p50", _us(misses))
    _dist(out, "perf.miss_us.p99", _us(misses))
    candidates = counts.get("perf.range.candidates", 0)
    _val(out, "perf.range_candidates_per_query",
         _ratio(candidates, counts.get("perf.range.queries", 0)), "count")
    _val(out, "perf.candidate_yield",
         _ratio(counts.get("bench.range_miss_results", 0), candidates),
         "fraction")
    _val(out, "perf.settled_per_query", _ratio(
        counts.get("perf.range.vertices_settled", 0)
        + counts.get("perf.knn.vertices_settled", 0),
        counts.get("perf.range.queries", 0)
        + counts.get("perf.knn.queries", 0)), "count")
    _dist(out, "perf.index_build_s",
          trace.durations("perf.index_build", window=False), "s")


def _live_metrics(out: dict, trace: Trace, extras: dict) -> None:
    dispatch, roundtrips, frame_bytes, mutates, broadcasts = [], [], [], [], []
    for t in trace.trees:
        wait = dispatch_wait(t)
        if wait is not None:
            rt = t["supervisor.roundtrip"]
            worker = t.get("service.run_query")
            dispatch.append(wait)
            roundtrips.append(_dur(rt) - (_dur(worker) if worker else 0.0))
            frame_bytes.append(rt[ATTRS]["bytes"])
        if "live.mutate" in t and "supervisor.submit" in t:
            mutates.append(_dur(t["live.mutate"]))
            broadcasts.append(_dur(t["supervisor.submit"])
                              - _dur(t["live.mutate"]))
    _dist(out, "supervisor.dispatch_wait_us.p50", _us(dispatch))
    _dist(out, "supervisor.dispatch_wait_us.p99", _us(dispatch))
    _dist(out, "supervisor.roundtrip_us.p50", _us(roundtrips))
    _val(out, "supervisor.frame_bytes",
         statistics.fmean(frame_bytes) if frame_bytes else 0.0, "bytes")
    worker_exec = _us(trace.durations("service.run_query"))
    _dist(out, "supervisor.worker_exec_us.p50", worker_exec)
    _dist(out, "supervisor.worker_exec_us.p99", worker_exec)
    _val(out, "supervisor.apply_frames", sum(
        1 for s in trace.in_window("supervisor.send")
        if _attrs(s).get("kind") == "apply"), "count")
    _val(out, "supervisor.ready_s", extras["ready_s"], "s")
    _val(out, "supervisor.restarts", extras["restarts"], "count")
    _val(out, "supervisor.worker_deaths", extras["worker_deaths"], "count")
    _val(out, "supervisor.worker_peak_rss_mb", extras["worker_peak_rss_mb"],
         "MB")
    _dist(out, "live.mutate_us.p50", _us(mutates))
    _dist(out, "live.mutate_us.p99", _us(mutates))
    appends = _us(trace.durations("live.wal_append"))
    _dist(out, "live.wal_append_us.p50", appends)
    _dist(out, "live.wal_append_us.p99", appends)
    _dist(out, "live.apply_us.p50", _us(trace.durations("live.apply")))
    _dist(out, "live.broadcast_us.p50", _us(broadcasts))
    _dist(out, "live.worker_apply_us.p50",
          _us(trace.durations("live.worker_apply")))
    _val(out, "live.wal_bytes_per_mutation", extras["wal_bytes_per_mutation"],
         "bytes")


def _cluster_metrics(out: dict, trace: Trace, extras: dict,
                     counts: dict) -> None:
    rounds = max(1, extras["rounds"])
    lo, hi = trace.window
    _val(out, "network.multi_source_s",
         sum(trace.durations("network.multi_source")) / rounds, "s")
    _val(out, "storage.access_s", sum(
        _storage_s(s) for s in trace.spans if lo <= s[T0] <= hi) / rounds,
        "s")
    _dist(out, "storage.build_s",
          trace.durations("storage.build", window=False), "s")
    for alg in ALGORITHMS:
        job = counts.get(f"dict.{alg}", {})
        _val(out, f"network.nodes_settled.{alg}",
             sum(job.get(name, 0) for name in _SETTLED), "count")
        if "dijkstra.edges_relaxed" in job:
            _val(out, f"network.edges_relaxed.{alg}",
                 job["dijkstra.edges_relaxed"], "count")
        else:
            # ε-Link, DBSCAN and OPTICS expand through range queries,
            # which count settled vertices but not relaxed edges.
            out[f"network.edges_relaxed.{alg}"] = {
                "value": None, "unit": "count",
                "reason": "the program counts no relaxed edges here"}
        _val(out, f"core.{alg}.work", job.get(WORK_COUNTERS[alg], 0), "count")
        for backend in ("dict", "csr", "store"):
            seconds = extras["job_s"].get(f"{alg}.{backend}")
            if seconds is not None:
                _val(out, f"core.{alg}.{backend}_s", seconds, "s")
    for alg, stats in extras["store_stats"].items():
        _val(out, f"storage.physical_reads.{alg}", stats["physical_reads"],
             "count")
        _val(out, f"storage.buffer_hit_ratio.{alg}", _ratio(
            stats["buffer_hits"], stats["buffer_hits"] + stats["buffer_misses"]),
            "fraction")


#: the per-layer metrics every workload reports (BENCHMARK.json per_layer):
#: shares, ratios, counts and sizes, zero where a workload skips the layer
UNIVERSAL = {f"{layer}.self_share": "fraction"
             for layer in LAYERS + (UNATTRIBUTED,)}
UNIVERSAL.update({
    "service.queue_wait_share": "fraction",
    "supervisor.dispatch_wait_share": "fraction",
    "perf.cache_hit_ratio": "fraction",
    "perf.candidate_yield": "fraction",
    "perf.range_candidates_per_query": "count",
    "network.settled_per_op": "count",
    "network.edges_relaxed_per_op": "count",
    "storage.physical_reads_per_op": "count",
    "storage.buffer_hit_ratio": "fraction",
    "protocol.response_bytes": "bytes",
    "supervisor.frame_bytes": "bytes",
    "supervisor.restarts": "count",
    "supervisor.worker_deaths": "count",
    "live.wal_bytes_per_mutation": "bytes",
})
UNIVERSAL.update({f"core.{alg}.work": "count" for alg in ALGORITHMS})


def universal_metrics(workload: str, trace: Trace, detail: dict,
                      counts: dict | None) -> dict:
    """The BENCHMARK.json per-layer metrics of one traced run."""
    counts = counts or {}
    if workload == "cluster-batch":
        ops = list(counts.values())
        store = [c for k, c in counts.items() if k.startswith("store.")]
        n_ops = len(ops)
    else:
        ops, store = [counts], []
        n_ops = counts.get("bench.requests", 0)

    def total(name, among):
        return sum(c.get(name, 0) for c in among)

    values = {name: 0 for name in UNIVERSAL}
    for name in UNIVERSAL:
        if name in detail and detail[name]["value"] is not None:
            values[name] = detail[name]["value"]
    wall = trace.table["wall"]
    values["service.queue_wait_share"] = _ratio(sum(
        w for w in map(queue_wait, trace.trees) if w is not None), wall)
    values["supervisor.dispatch_wait_share"] = _ratio(sum(
        w for w in map(dispatch_wait, trace.trees) if w is not None), wall)
    values["network.settled_per_op"] = _ratio(
        sum(total(n, ops) for n in _SETTLED), n_ops)
    values["network.edges_relaxed_per_op"] = _ratio(
        total("dijkstra.edges_relaxed", ops), n_ops)
    values["storage.physical_reads_per_op"] = _ratio(
        total("storage.physical_reads", store), len(store))
    hits = total("storage.buffer_hits", store)
    values["storage.buffer_hit_ratio"] = _ratio(
        hits, hits + total("storage.buffer_misses", store))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNIVERSAL.items()}
