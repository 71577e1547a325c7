#!/usr/bin/env python3
"""Compare a perf-smoke run against ``BENCH_perf_baseline.json``.

The perf-smoke benchmarks (``bench_perf_accel.py``,
``bench_csr_backend.py``) report
hardware-independent counts next to their wall times: settled vertices,
hits and cache traffic in each benchmark's ``extra_info``, and the
``perf.*`` counters in the metrics sidecar.  A count that moves means the
accelerated search did different work, so every count the baseline lists
must equal the run's exactly.  Wall times (keys ending in ``_s``) and the
``speedup`` ratios built from them are machine-specific and skipped, as
are non-numeric values such as ``kernel_backend``.

Usage::

    python tools/check_perf_baseline.py BENCH_perf_baseline.json \\
        perf_bench.json perf_metrics.json

``perf_bench.json`` is the ``--benchmark-json`` output, ``perf_metrics.json``
the ``REPRO_METRICS_SIDECAR`` file.  Exit status: 0 when every count
matches, 1 otherwise (one line per difference).  A baseline that changes
on purpose is regenerated and the change explained in CHANGES.md.
"""

from __future__ import annotations

import json
import sys


def _skipped(key: str) -> bool:
    return key.endswith("_s") or key == "speedup"


def _diff_counts(where: str, expected, actual) -> list[str]:
    """Differences between the numeric leaves of two ``extra_info`` trees."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected a mapping, run has {actual!r}"]
        out = []
        for key, value in expected.items():
            if not _skipped(key):
                out += _diff_counts(f"{where}.{key}", value, actual.get(key))
        return out
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        return []
    if actual != expected:
        return [f"{where}: baseline {expected!r}, run {actual!r}"]
    return []


def compare(baseline: dict, bench: dict, metrics: dict) -> list[str]:
    """Every difference between the baseline's counts and the run's."""
    extra = {b["name"]: b["extra_info"] for b in bench["benchmarks"]}
    counters = {
        run["test"].rsplit("::", 1)[-1]: run["counters"]
        for run in metrics["runs"]
    }
    problems = []
    for entry in baseline["benchmarks"]:
        name = entry["name"]
        if name not in extra:
            problems.append(f"{name}: missing from the benchmark run")
            continue
        problems += _diff_counts(name, entry["extra_info"], extra[name])
    for name, expected in baseline["counters"].items():
        actual = counters.get(name, {})
        for counter, value in sorted(expected.items()):
            if actual.get(counter) != value:
                problems.append(
                    f"{name}: counter {counter} baseline {value}, "
                    f"run {actual.get(counter)}"
                )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: check_perf_baseline.py BASELINE BENCH_JSON METRICS_JSON",
              file=sys.stderr)
        return 2
    loaded = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    problems = compare(*loaded)
    for line in problems:
        print(line)
    if not problems:
        print(f"{argv[0]}: every count matches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
