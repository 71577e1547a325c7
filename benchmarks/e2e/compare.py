"""Compare result files of ``run.py``: a base side against a head side.

    python3 benchmarks/e2e/compare.py base.json head.json
    python3 benchmarks/e2e/compare.py --base a1.json a2.json a3.json \\
        --head b1.json b2.json b3.json

Runs of a side are matched to the other side's in the order given, so
alternate the runs when taking them.  For every workload and end-to-end
metric it prints each side's median and quartiles and one verdict:

* ``regression``: the head median is worse than the base median by more
  than the metric's bound (from ``BENCHMARK.json`` where listed there).
* ``improvement``: at least 10 pairs, the head wins at least 9 of 10 of
  them, ties counting for neither, and the medians differ by more than
  the base's quartile distance.
* ``unresolved``: a side's quartile distance, as a share of its median,
  is wider than the bound, and neither does every head run read better
  than every base run nor every one worse (the latter with the median
  beyond the bound: a regression).
* ``unchanged``: none of these.

Counting-pass counts must match exactly across every traced file.  Files
whose workload fingerprint or kernel backend differ are refused.  The
exit code is 2 on refusal, 1 on a regression or a count mismatch, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402
import summary  # noqa: E402

#: share of pairs the head must win to claim a gain, out of at least
#: MIN_PAIRS pairs
WIN_SHARE = 0.9
MIN_PAIRS = 10


def verdict(base: list, head: list, better: str, bound: float) -> str:
    """The verdict for one metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0

    def gain(a: float, b: float) -> float:
        return sign * (b - a)

    q1b, mb, q3b = summary.quartiles(base)
    q1h, mh, q3h = summary.quartiles(head)
    change = gain(mb, mh)
    worse = -change / abs(mb) if mb else (math.inf if change < 0 else 0.0)
    pairs = list(zip(base, head))
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    claim = (change > 0 and len(pairs) >= MIN_PAIRS
             and wins >= WIN_SHARE * len(pairs) and abs(mh - mb) > q3b - q1b)
    spread = max(summary.spread(base) if mb else 0.0,
                 summary.spread(head) if mh else 0.0)
    if bound > 0 and spread > bound:
        gains = [gain(a, b) for a in base for b in head]
        if min(gains) > 0:
            return "improvement" if claim else "unchanged"
        if max(gains) < 0 and worse > bound:
            return "regression"
        return "unresolved"
    if worse > bound:
        return "regression"
    return "improvement" if claim else "unchanged"


def _load(paths: list) -> list:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def _refuse(docs: list) -> str | None:
    for key in ("workload_sha256", "kernel_backend"):
        seen = {doc["provenance"][key] for doc in docs}
        if len(seen) > 1:
            return f"files differ in {key}: {sorted(map(str, seen))}"
    return None


def _values(docs: list, workload: str, metric: str) -> list:
    out = []
    for doc in docs:
        m = doc["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if m is not None and m["value"] is not None:
            out.append(m["value"])
    return out


def _fmt(values: list) -> str:
    q1, med, q3 = summary.quartiles(values)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}]"


def compare(base: list, head: list, benchmark: dict, out=None) -> int:
    """Print the comparison (to stdout by default); returns the exit code."""
    out = out or sys.stdout
    reason = _refuse(base + head)
    if reason:
        print(f"refused: {reason}", file=out)
        return 2
    specs = catalog.specs(benchmark)
    status = 0
    workloads = [w for w in catalog.ALL
                 if any(w in d["workloads"] for d in base + head)]
    print(f"{'workload':<14} {'metric':<16} {'base median [q1, q3]':<32} "
          f"{'head median [q1, q3]':<32} {'change':>8}  verdict", file=out)
    for workload in workloads:
        for metric, spec in specs.items():
            a = _values(base, workload, metric)
            b = _values(head, workload, metric)
            if not a or not b:
                continue
            result = verdict(a, b, spec["better"], spec["bound"])
            mb, mh = statistics.median(a), statistics.median(b)
            change = f"{(mh - mb) / mb:+.1%}" if mb else "-"
            print(f"{workload:<14} {metric:<16} {_fmt(a):<32} {_fmt(b):<32} "
                  f"{change:>8}  {result} (bound {spec['bound']:.0%})",
                  file=out)
            if result == "regression":
                status = 1
        counted = [d["workloads"][workload]["counts"] for d in base + head
                   if "counts" in d["workloads"].get(workload, {})]
        if any(c != counted[0] for c in counted[1:]):
            differ = sorted(k for c in counted[1:] for k in set(c) | set(
                counted[0]) if c.get(k) != counted[0].get(k))
            print(f"{workload:<14} counting-pass counts differ: "
                  f"{', '.join(differ[:8])}", file=out)
            status = 1
        elif counted:
            print(f"{workload:<14} counting-pass counts identical across "
                  f"{len(counted)} files", file=out)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*", help="BASE HEAD (one file each)")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--head", nargs="+", default=[])
    args = parser.parse_args(argv)
    base, head = list(args.base), list(args.head)
    if args.files:
        if len(args.files) != 2 or base or head:
            parser.error("give BASE HEAD, or --base ... --head ...")
        base, head = [args.files[0]], [args.files[1]]
    if not base or not head:
        parser.error("both sides need at least one result file")
    return compare(_load(base), _load(head), catalog.load_benchmark())


if __name__ == "__main__":
    sys.exit(main())
