"""The benchmark's end-to-end metrics: unit, direction, bound, workloads.

``BENCHMARK.json`` lists the metrics every workload reports; the others
here are reported on the workloads named and compared by ``compare.py``
with the bounds below.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SERVE = ("serve-scatter", "serve-hotspot", "serve-live")
ALL = SERVE + ("cluster-batch",)

#: name -> (unit, better, bound, workloads); a bound of 0 means any rise
E2E = {
    "throughput_rps": ("req/s", "higher", 0.25, ALL),
    "read_p50_ms": ("ms", "lower", 0.10, SERVE),
    "read_p99_ms": ("ms", "lower", 0.10, SERVE),
    "mutate_p50_ms": ("ms", "lower", 0.10, ("serve-live",)),
    "mutate_p99_ms": ("ms", "lower", 0.10, ("serve-live",)),
    "cluster_dict_s": ("s", "lower", 0.10, ("cluster-batch",)),
    "cluster_csr_s": ("s", "lower", 0.10, ("cluster-batch",)),
    "cluster_store_s": ("s", "lower", 0.10, ("cluster-batch",)),
    "setup_s": ("s", "lower", 0.25, ALL),
    "peak_rss_mb": ("MB", "lower", 0.10, ALL),
    "error_frac": ("fraction", "lower", 0.0, ALL),
}


def load_benchmark(path: str = BENCHMARK_JSON) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def specs(benchmark: dict | None = None) -> dict:
    """name -> {unit, better, bound, workloads}, with the bounds of the
    metrics ``BENCHMARK.json`` lists taken from it."""
    out = {name: {"unit": unit, "better": better, "bound": bound,
                  "workloads": workloads}
           for name, (unit, better, bound, workloads) in E2E.items()}
    for entry in (benchmark or {}).get("end_to_end", ()):
        if entry["name"] in out:
            out[entry["name"]].update(unit=entry["unit"],
                                      better=entry["better"],
                                      bound=entry["bound"])
    return out
