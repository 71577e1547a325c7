"""The four workloads: set-up, warm-up, measured phase, oracles, and the
counting pass.

Every workload goes through the program's public entry points
(``QueryService``, ``SupervisedPool``, the five algorithm classes and
``NetworkStore``) and reads the workload file back with
``load_workload_file``, as ``repro serve`` and ``repro cluster`` do.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from time import perf_counter

import inputs
import reference
import serving
import summary
from repro import obs
from repro.core import (EpsLink, NetworkDBSCAN, NetworkKMedoids,
                        NetworkOPTICS, SingleLink)
from repro.io import load_workload_file
from repro.live import LiveSession, WriteAheadLog
from repro.network.augmented import AugmentedView
from repro.network.csr import CSRNetwork
from repro.network.queries import knn_query, range_query
from repro.serve.service import QueryService
from repro.serve.supervisor import SupervisedPool
from repro.storage import NetworkStore

#: set-up is timed this many times; the last instance is the one measured
SETUP_CYCLES = 5
#: every n-th scatter response is checked against the oracle
SCATTER_CHECK_EVERY = 20
#: the counting pass replays the warm-up plus this many measured requests
COUNT_REQUESTS = 2000
#: The configuration docs/performance.md recommends for repeated anchors,
#: with a 0.2 MB cache (1,048 entries) instead of 16 MB.  A cache that
#: never evicts keeps gaining hits over the whole Zipf stream (0.46 of
#: the first 1,000 requests, 0.88 by 24,000), so a timed run would
#: measure how far it got into warming the cache.  An LRU cache smaller
#: than the hot set holds a steady hit ratio (~0.65) by the end of the
#: warm-up, and every miss still pays the landmark prefilter.
HOTSPOT_CONFIG = {"backend": "csr", "landmarks": 8, "distance_cache_mb": 0.2}
#: the store's page buffer: 16 pages of 4 KB
STORE_BUFFER_BYTES = 16 * 4096
KMEDOIDS_SEED = 0
#: k-medoids makes exactly this many swap attempts (``max_swaps`` and
#: ``max_bad_swaps`` both).  Stopping at 15 failed swaps in a row, it
#: made 27-105 over seeds 0-9, so the seed alone moved the batch's cost.
KMEDOIDS_SWAPS = 30
#: Single-Link's δ as a share of ε (full dendrogram: no stop criterion)
SINGLELINK_DELTA = 0.7
MIN_PTS = 2
ALGORITHMS = ("kmedoids", "epslink", "dbscan", "optics", "singlelink")
#: DBSCAN and OPTICS take ~17 s each off the 64 KB store, so they are off it
STORE_ALGORITHMS = ("kmedoids", "epslink", "singlelink")
JOBS = ([("dict", a) for a in ALGORITHMS] + [("csr", a) for a in ALGORITHMS]
        + [("store", a) for a in STORE_ALGORITHMS])
#: counters the counting pass keeps, by namespace
COUNTED = ("dijkstra.", "queries.", "perf.", "storage.", "live.", "wal.",
           "kmedoids.", "epslink.", "dbscan.", "optics.", "singlelink.")


class Run:
    """One workload run: its inputs, and everything it measured."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 workdir: str, dataset) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.dataset = dataset
        self.metrics: dict = {}
        self.checks: list = []
        self.attempted = 0
        self.failed = 0
        #: measurements the per-layer report derives its numbers from
        self.extras: dict = {}
        self.counts: dict | None = None
        #: (start, end) of the measured phase on the perf_counter clock
        self.window = (0.0, 0.0)
        self.gauge = reference.Reference()

    def metric(self, name: str, value: float, unit: str,
               n: int | None = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if n is not None:
            self.metrics[name]["n"] = n

    def timing_ms(self, name: str, values_s, q: float) -> None:
        """Record the median (``q`` = 50) or the ``q``-th percentile in
        ms; a ``None`` value with the reason when too few samples lie
        beyond the percentile."""
        n = len(values_s)
        if q == 50:
            self.metric(name, 1000.0 * statistics.median(values_s), "ms", n)
        elif summary.supports(n, q):
            self.metric(name, 1000.0 * summary.percentile(values_s, q), "ms",
                        n)
        else:
            self.metrics[name] = {
                "value": None, "unit": "ms", "n": n,
                "reason": f"{n} samples do not support p{q:g}",
            }

    def check(self, name: str, problems: list) -> None:
        self.checks.append({"check": name, "ok": not problems,
                            "problems": problems[:5]})

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks)


def _setup(run: Run, build, close):
    """Time ``build`` over SETUP_CYCLES cycles; keep the last instance.

    Each cycle lies between two runs of the reference kernel and
    ``setup_s`` is the median of the scaled cycle times.
    """
    durations, scaled, instance = [], [], None
    before = run.gauge.seconds()
    for cycle in range(SETUP_CYCLES):
        if instance is not None:
            close(instance)
        t0 = perf_counter()
        instance = build(cycle)
        durations.append(perf_counter() - t0)
        after = run.gauge.seconds()
        scaled.append(reference.scale(durations[-1], before, after))
        before = after
    run.metric("setup_s", statistics.median(scaled), "s", len(scaled))
    run.extras["raw_setup_s"] = statistics.median(durations)
    return instance


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _record_loop(run: Run, loop: serving.LoopResult) -> None:
    run.attempted = loop.attempted
    run.failed = loop.failed
    run.window = loop.window
    reads = loop.latency.get("range", []) + loop.latency.get("knn", [])
    run.metric("throughput_rps", loop.throughput(), "req/s", loop.completed)
    run.extras.update(raw_throughput_rps=loop.throughput(scaled=False),
                      reference_s=statistics.median(loop.kernel_s),
                      slices=loop.slices, kernel_s=loop.kernel_s)
    run.timing_ms("read_p50_ms", reads, 50)
    run.timing_ms("read_p99_ms", reads, 99)
    run.metric("error_frac", loop.failed / max(1, loop.attempted),
               "fraction", loop.attempted)
    run.extras["response_bytes"] = loop.response_bytes / max(1, loop.attempted)


def _counters() -> dict:
    counters = obs.snapshot()["counters"]
    return {k: v for k, v in sorted(counters.items()) if k.startswith(COUNTED)}


def _count_serve(run: Run, build) -> dict:
    """Counting pass: the warm-up plus COUNT_REQUESTS measured requests,
    one client, in process, with ``repro.obs`` recording.

    ``build()`` returns the service and the objects to close after it.
    """
    requests = inputs.STREAMS[run.workload](run.dataset)
    n = inputs.WARMUP[run.workload] + COUNT_REQUESTS
    missed = []
    obs.enable(fresh=True)
    try:
        svc, closables = build()
        counters = obs.STATE.counters

        def submit(doc):
            # One client: the cache-miss counter moves only for this request.
            before = counters.get("perf.cache.misses", 0)
            future = svc.submit(doc)
            future.result()
            missed.append(counters.get("perf.cache.misses", 0) > before)
            return future

        loop = serving.closed_loop(submit, requests, count=n, clients=1,
                                   keep=lambda i: True)
        svc.close()
        for obj in closables:
            obj.close()
    finally:
        obs.disable()
    counts = _counters()
    obs.reset()
    results = miss_results = 0
    for i in range(n):
        request, line = loop.kept[i]
        if request["op"] == "mutate":
            continue
        found = len(json.loads(line)["result"])
        results += found
        if request["op"] == "range" and missed[i]:
            miss_results += found
    counts.update({"bench.requests": n, "bench.results_returned": results})
    if run.workload == "serve-hotspot":
        counts["bench.range_miss_results"] = miss_results
    return counts


# -- serve-scatter / serve-hotspot ------------------------------------------

def _threaded_config(run: Run) -> dict:
    return HOTSPOT_CONFIG if run.workload == "serve-hotspot" else {}


def _expected(aug, request: dict):
    point = aug.points.get(request["point_id"])
    if request["op"] == "range":
        hits = range_query(aug, point, request["eps"])
    else:
        hits = knn_query(aug, point, request["k"])
    return json.loads(json.dumps([[p.point_id, d] for p, d in hits]))


def check_reads(path: str, kept: dict) -> list:
    """Kept responses that differ from plain range/kNN on a fresh dict
    view, compared after the JSON round trip."""
    network, points = load_workload_file(path)
    aug = AugmentedView(network, points)
    memo: dict = {}
    problems = []
    for _i, (request, line) in sorted(kept.items()):
        key = (request["op"], request["point_id"])
        if key not in memo:
            memo[key] = _expected(aug, request)
        doc = json.loads(line)
        if not doc.get("ok") or doc.get("result") != memo[key] \
                or doc.get("id") != request["id"]:
            problems.append(f"request {request['id']}: {line[:120]}")
    return problems


def serve_threaded(run: Run) -> None:
    """serve-scatter and serve-hotspot: ``QueryService(workers=2)``."""
    ds = run.dataset
    requests = inputs.STREAMS[run.workload](ds)
    warmup = inputs.WARMUP[run.workload]

    def build(_cycle):
        network, points = load_workload_file(ds.path)
        return QueryService(network, points, workers=serving.CLIENTS,
                            **_threaded_config(run))

    svc = _setup(run, build, lambda s: s.close())
    serving.closed_loop(svc.submit, requests, count=warmup)
    every = 1 if run.workload == "serve-hotspot" else SCATTER_CHECK_EVERY
    loop = serving.closed_loop(svc.submit, requests, seconds=run.seconds,
                               gauge=run.gauge,
                               keep=lambda i: i % every == 0)
    svc.close()
    _record_loop(run, loop)
    run.metric("peak_rss_mb", _rss_mb(), "MB")
    run.check("responses equal plain range/knn on a dict view",
              check_reads(ds.path, loop.kept))


def count_threaded(run: Run) -> None:
    def build():
        network, points = load_workload_file(run.dataset.path)
        return QueryService(network, points, workers=serving.CLIENTS,
                            **_threaded_config(run)), ()

    run.counts = _count_serve(run, build)


# -- serve-live -------------------------------------------------------------

def _wait_ready(pool, processes: int, timeout_s: float = 60.0) -> None:
    deadline = perf_counter() + timeout_s
    while len(pool.stats_snapshot()["supervisor"]["index_sources"]) \
            < processes:
        if perf_counter() > deadline:
            raise RuntimeError("supervised workers did not become ready")
        time.sleep(0.002)


def _acked(loop: serving.LoopResult) -> int:
    return len(loop.latency.get("mutate", ())) - loop.errors.get("mutate", 0)


def serve_live(run: Run) -> None:
    """serve-live: ``SupervisedPool(processes=2)`` with a mutation log."""
    ds = run.dataset
    requests = inputs.STREAMS["serve-live"](ds)
    warmup = inputs.WARMUP["serve-live"]
    ready = []

    def wal_path(cycle: int) -> str:
        return os.path.join(run.workdir, f"live-{cycle}.wal")

    def build(cycle):
        pool = SupervisedPool(ds.path, processes=serving.CLIENTS,
                              wal_path=wal_path(cycle), live_eps=ds.eps)
        t0 = perf_counter()
        try:
            _wait_ready(pool, serving.CLIENTS)
        except RuntimeError:
            pool.close()
            raise
        ready.append(perf_counter() - t0)
        return pool

    pool = _setup(run, build, lambda p: p.close())
    wal = wal_path(SETUP_CYCLES - 1)
    wal_empty = os.path.getsize(wal)
    try:
        warm = serving.closed_loop(pool.submit, requests, count=warmup)
        loop = serving.closed_loop(pool.submit, requests, seconds=run.seconds,
                                   gauge=run.gauge)
        line, _ok = serving.roundtrip(
            pool.submit, {"id": "final-snapshot", "op": "snapshot"})
        pool_snapshot = json.loads(line).get("result")
        session_snapshot = json.loads(json.dumps(pool.session.snapshot()))
        supervisor = pool.stats_snapshot()["supervisor"]
        wal_bytes = os.path.getsize(wal) - wal_empty
    finally:
        pool.close()  # reaps the workers even when the run fails
    acked = _acked(warm) + _acked(loop)
    _record_loop(run, loop)
    mutates = loop.latency.get("mutate", [])
    run.timing_ms("mutate_p50_ms", mutates, 50)
    run.timing_ms("mutate_p99_ms", mutates, 99)
    worker_peak = _rss_mb(resource.RUSAGE_CHILDREN)
    run.metric("peak_rss_mb", _rss_mb() + serving.CLIENTS * worker_peak, "MB")
    run.extras.update(
        ready_s=statistics.median(ready),
        restarts=supervisor["restarts"],
        worker_deaths=supervisor["worker_deaths"],
        worker_peak_rss_mb=worker_peak,
        wal_bytes_per_mutation=wal_bytes / max(1, acked),
    )

    network, points = load_workload_file(ds.path)
    cold = LiveSession(network, points, eps=ds.eps,
                       wal=WriteAheadLog(wal, read_only=True))
    cold.replay_wal()
    cold_snapshot = json.loads(json.dumps(cold.snapshot()))
    cold.close()
    problems = []
    if pool_snapshot != session_snapshot:
        problems.append("the pool's snapshot op differs from pool.session")
    if pool_snapshot != cold_snapshot:
        problems.append("the pool's snapshot differs from a cold WAL replay")
    epoch = pool_snapshot.get("epoch") if pool_snapshot else None
    if epoch != acked:
        problems.append(f"epoch {epoch} != {acked} acknowledged mutations")
    run.check("live state equals pool.session and a cold WAL replay",
              problems)


def count_live(run: Run) -> None:
    """The counters are tier-invariant (the threaded-vs-supervised
    oracle), so serve-live is counted on ``QueryService`` with a session."""
    def build():
        network, points = load_workload_file(run.dataset.path)
        session = LiveSession(
            network, points, eps=run.dataset.eps,
            wal=WriteAheadLog(os.path.join(run.workdir, "count.wal")),
        )
        return QueryService(network, points, workers=serving.CLIENTS,
                            session=session), (session,)

    run.counts = _count_serve(run, build)


# -- cluster-batch ----------------------------------------------------------

def make_algorithm(alg: str, network, points, eps: float):
    """The job's algorithm, with ``repro cluster``'s parameters."""
    if alg == "kmedoids":
        return NetworkKMedoids(network, points, k=inputs.CLUSTERS,
                               seed=KMEDOIDS_SEED, max_swaps=KMEDOIDS_SWAPS,
                               max_bad_swaps=KMEDOIDS_SWAPS)
    if alg == "epslink":
        return EpsLink(network, points, eps=eps, min_sup=MIN_PTS)
    if alg == "dbscan":
        return NetworkDBSCAN(network, points, eps=eps, min_pts=MIN_PTS)
    if alg == "optics":
        return NetworkOPTICS(network, points, max_eps=eps, min_pts=MIN_PTS)
    return SingleLink(network, points, delta=SINGLELINK_DELTA * eps)


def run_job(job: dict):
    """One clustering job: construction plus ``run()``."""
    return make_algorithm(job["alg"], job["network"], job["points"],
                          job["eps"]).run()


class _Backends:
    """The three ways cluster-batch reads the workload."""

    def __init__(self, path: str, store_path: str) -> None:
        self.network, self.points = load_workload_file(path)
        self.csr = CSRNetwork.freeze(self.network)
        self.store = NetworkStore.build(store_path, self.network, self.points,
                                        buffer_bytes=STORE_BUFFER_BYTES)

    def job(self, backend: str, alg: str, eps: float, n: int) -> dict:
        if backend == "dict":
            network, points = self.network, self.points
        elif backend == "csr":
            network, points = self.csr, self.points
        else:
            # Cold buffer and fresh counters before every store job.
            self.store.drop_caches()
            self.store.reset_stats()
            network, points = self.store, self.store.points()
        return {"id": f"j{n}", "alg": alg, "network": network,
                "points": points, "eps": eps}

    def close(self) -> None:
        self.store.close()


def _store_path(run: Run) -> str:
    return os.path.join(run.workdir, "network.store")


def _outcome(result):
    """What a job must reproduce exactly: its clusters and noise, and the
    work statistics.  Cluster labels are left out (the store visits
    points in another order, so it numbers some clusters differently),
    and so are timings and float costs such as k-medoids' R, whose last
    bit depends on the backend's summation order."""
    work = {k: v for k, v in result.stats.items()
            if not k.endswith("_s") and not isinstance(v, float)}
    return result.as_partition(), result.outliers(), work


def cluster_batch(run: Run) -> None:
    """Rounds of the 13 jobs until the measured time is used up; a round
    in progress is finished.

    The reference kernel runs before every job and once after the last,
    and each job's time is scaled by the two kernel times around it.  The
    end-to-end metrics use the scaled times; the result file keeps the
    raw ones too.
    """
    ds = run.dataset
    backends = _setup(run, lambda _c: _Backends(ds.path, _store_path(run)),
                      lambda b: b.close())
    outcomes: dict = {}
    problems = []
    #: (job, seconds, index in kernel_s of the kernel run before it)
    timed = []
    kernel_s = []
    store_stats: dict = {}
    t_start = perf_counter()
    while True:
        for backend, alg in JOBS:
            job = backends.job(backend, alg, ds.eps, run.attempted)
            run.attempted += 1
            kernel_s.append(run.gauge.seconds())
            began = perf_counter()
            try:
                result = run_job(job)
            except Exception as exc:  # the job failed; counted, not fatal
                run.failed += 1
                problems.append(f"{backend} {alg}: {exc!r}")
                continue
            timed.append(((backend, alg), perf_counter() - began,
                          len(kernel_s) - 1))
            if backend == "store":
                store_stats[alg] = backends.store.stats()
            outcome = _outcome(result)
            if alg not in outcomes:
                outcomes[alg] = outcome
            elif outcome != outcomes[alg]:
                problems.append(f"{backend} {alg} job {job['id']} differs")
        if perf_counter() - t_start >= run.seconds:
            break
    t_end = perf_counter()
    kernel_s.append(run.gauge.seconds())
    backends.close()
    run.window = (t_start, t_end)
    times: dict = {job: [] for job in JOBS}
    scaled: dict = {job: [] for job in JOBS}
    for job, seconds, k in timed:
        times[job].append(seconds)
        scaled[job].append(reference.scale(seconds, kernel_s[k],
                                           kernel_s[k + 1]))
    # A job's time is its median over the rounds, which keeps a slow
    # round on a shared machine out of every figure below.
    job_s = {job: statistics.median(v) for job, v in times.items() if v}
    job_scaled = {job: statistics.median(v) for job, v in scaled.items()
                  if v}
    run.metric("throughput_rps", len(job_scaled) / sum(job_scaled.values()),
               "req/s", sum(map(len, times.values())))
    rounds = min(len(v) for v in times.values())
    for backend in ("dict", "csr", "store"):
        run.metric(f"cluster_{backend}_s", sum(
            t for (b, _a), t in job_scaled.items() if b == backend), "s",
            rounds)
    run.metric("error_frac", run.failed / max(1, run.attempted), "fraction",
               run.attempted)
    run.metric("peak_rss_mb", _rss_mb(), "MB")
    run.extras.update(
        rounds=rounds,
        job_s={f"{a}.{b}": t for (b, a), t in job_s.items()},
        raw_throughput_rps=len(job_s) / sum(job_s.values()),
        reference_s=statistics.median(kernel_s),
        store_stats=store_stats,
    )
    run.check("job outcomes identical across backends and rounds", problems)


def count_cluster(run: Run) -> None:
    """One round with ``repro.obs`` recording; counters per job."""
    backends = _Backends(run.dataset.path, _store_path(run))
    counts = {}
    try:
        for n, (backend, alg) in enumerate(JOBS):
            job = backends.job(backend, alg, run.dataset.eps, n)
            obs.enable(fresh=True)
            try:
                run_job(job)
            finally:
                obs.disable()
            counts[f"{backend}.{alg}"] = _counters()
    finally:
        backends.close()
        obs.reset()
    run.counts = counts


#: workload -> (measured run, counting pass)
RUNNERS = {
    "serve-scatter": (serve_threaded, count_threaded),
    "serve-hotspot": (serve_threaded, count_threaded),
    "serve-live": (serve_live, count_live),
    "cluster-batch": (cluster_batch, count_cluster),
}
