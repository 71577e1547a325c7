"""A fixed pure-Python kernel that gauges how fast the machine runs now.

On a virtual machine shared with other tenants the speed of
interpreter-bound code drifts by up to 1.5x, over seconds and over
minutes, and every timing follows it: over ten 15 s runs, cluster-batch
throughput spread by 14-33% of its median and set-up times by up to 55%.
So the benchmark times this kernel before and after each set-up cycle,
each cluster job and each slice of a timed serve loop, and scales the
time between by ``REFERENCE_S`` over the mean of the two.  Interference
that slows the work slows the kernel timed next to it (the idea of duet
benchmarking), while a change to the program moves the work and not the
kernel, which uses nothing from ``repro``.  The kernel is Dijkstra with
``heapq`` over a fixed random graph held in dicts and lists, the kind of
work the program does.  On a 2-vCPU virtual machine, two sets of ten
runs per workload spread 5-12% scaled against 6-22% unscaled.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

#: the kernel's time on the machine job times are scaled to: about its
#: median on a 2-vCPU virtual machine (Python 3.11)
REFERENCE_S = 0.035
#: the fixed graph: nodes, edges added per node, and its seed
NODES = 6000
DEGREE = 3
GRAPH_SEED = 12345


def _graph() -> dict:
    rng = random.Random(GRAPH_SEED)
    adj: dict = {v: [] for v in range(NODES)}
    for v in range(NODES):
        for _ in range(DEGREE):
            u, w = rng.randrange(NODES), rng.random()
            adj[v].append((u, w))
            adj[u].append((v, w))
    return adj


def _dijkstra(adj: dict) -> int:
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    settled: set = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        for u, w in adj[v]:
            nd = d + w
            if nd < dist.get(u, float("inf")):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return len(settled)


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` on the reference machine, given the kernel's times
    right before and right after them."""
    return seconds * 2 * REFERENCE_S / (before + after)


class Reference:
    """The kernel on its graph, built and run once on construction."""

    def __init__(self) -> None:
        self._adj = _graph()
        self._reached = _dijkstra(self._adj)

    def seconds(self) -> float:
        """Time one run of the kernel."""
        t0 = perf_counter()
        reached = _dijkstra(self._adj)
        elapsed = perf_counter() - t0
        if reached != self._reached:
            raise RuntimeError("the reference kernel's result changed")
        return elapsed
