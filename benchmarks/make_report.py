#!/usr/bin/env python3
"""Regenerate the paper's tables and figures from the benchmark suite.

Runs ``pytest benchmarks/ --benchmark-only --benchmark-json=...`` and
formats the recorded measurements into the same rows/series the paper
reports: Table 1, Table 2, and the Figure 11/12/13/14/15 series, plus the
ablations.  Absolute times differ from the paper's 2002 C++/disk setup by
construction; the *shapes* (who wins, by what factor, where curves bend)
are the reproduction target (see EXPERIMENTS.md).

Alongside the timing JSON every run emits a :mod:`repro.obs` *metrics
sidecar* (``<benchmark-json>.metrics.json``, written by
``benchmarks/conftest.py``) holding the hardware-independent cost counters
— heap pops, page faults, swap iterations — which are reported after the
timing tables.

Run:  python benchmarks/make_report.py [--json existing-results.json]
                                       [--metrics existing.metrics.json]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.obs import load_metrics_sidecar  # noqa: E402


def run_benchmarks(json_path: Path) -> None:
    cmd = [
        sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only",
        "-q", f"--benchmark-json={json_path}",
    ]
    print(f"$ {' '.join(cmd)}", flush=True)
    subprocess.run(cmd, check=True, cwd=_ROOT)


def load(json_path: Path) -> dict:
    """group -> list of (test name, mean seconds, extra_info)."""
    raw = json.loads(json_path.read_text())
    groups: dict[str, list] = defaultdict(list)
    for bench in raw["benchmarks"]:
        groups[bench.get("group") or "ungrouped"].append(
            (bench["name"], bench["stats"]["mean"], bench.get("extra_info", {}))
        )
    return groups


def header(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def report_fig11(entries) -> None:
    header("Figure 11 - clustering effectiveness (OL analogue, k=10)")
    print(f"{'variant':<34}{'clusters':>9}{'outliers':>9}{'ARI':>8}{'NMI':>8}")
    for name, _, info in sorted(entries):
        if "ari" not in info:
            continue
        label = name.replace("bench_", "").replace("_", " ")
        print(f"{label:<34}{info['clusters']:>9}{info['outliers']:>9}"
              f"{info['ari']:>8.3f}{info['nmi']:>8.3f}")
    print("\npaper: k-medoids splits/merges clusters and absorbs outliers;"
          "\n       DBSCAN/eps-Link identical and correct; Single-Link cut at"
          " eps == eps-Link.")


def report_fig12(entries) -> None:
    header("Figure 12 - speedup of incremental medoid replacement (SF analogue)")
    print(f"{'k':>4}{'incremental':>14}{'from scratch':>14}{'speedup':>9}")
    rows = sorted((info["k"], info) for _, _, info in entries if "k" in info)
    for k, info in rows:
        print(f"{k:>4}{info['incremental_ms']:>12.1f}ms"
              f"{info['scratch_ms']:>12.1f}ms{info['speedup']:>9.2f}")
    print("\npaper: speedup increases with k (~4x at k=10 on SF/500K pts).")


def report_table1(entries) -> None:
    header("Table 1 - k-medoids convergence cost (k=10, N ~ 3|V|)")
    print(f"{'network':<9}{'|V|':>7}{'N':>8}{'iters':>7}{'first it':>11}"
          f"{'incr it':>10}{'ratio':>7}")
    order = {"NA": 0, "SF": 1, "TG": 2, "OL": 3}
    rows = sorted(
        (e for e in entries if "network" in e[2]),
        key=lambda e: order.get(e[2]["network"], 9),
    )
    for _, _, info in rows:
        print(f"{info['network']:<9}{info['nodes']:>7}{info['points']:>8}"
              f"{info['iterations']:>7}{info['first_iteration_s']:>10.3f}s"
              f"{info['incremental_iteration_s']:>9.3f}s"
              f"{info['first_over_incremental']:>7.1f}")
    print("\npaper: incremental iteration ~4x cheaper than the first;"
          " converges in 4-8 improvements + 15 failed swaps.")


def report_table2(entries) -> None:
    header("Table 2 - execution cost of the four methods (seconds)")
    methods = ["k-medoids", "dbscan", "eps-link", "single-link"]
    per_network: dict[str, dict[str, float]] = defaultdict(dict)
    for name, mean, info in entries:
        if "method" in info:
            per_network[info["network"]][info["method"]] = mean
    print(f"{'network':<9}" + "".join(f"{m:>13}" for m in methods))
    for net in ("NA", "SF", "TG", "OL"):
        row = per_network.get(net, {})
        print(f"{net:<9}" + "".join(f"{row.get(m, float('nan')):>12.3f}s" for m in methods))
    print("\npaper: k-medoids slowest on every network; eps-Link beats DBSCAN"
          " via its systematic traversal; Single-Link pays for the full"
          " dendrogram.")


def report_series(entries, key: str, title: str, note: str) -> None:
    header(title)
    methods = ["k-medoids", "dbscan", "eps-link", "single-link"]
    rows = sorted(
        (info[key], info) for _, _, info in entries if key in info
    )
    print(f"{key:>10}" + "".join(f"{m:>13}" for m in methods))
    for value, info in rows:
        print(f"{value:>10}" + "".join(f"{info.get(m, float('nan')):>12.3f}s" for m in methods))
    print(f"\npaper: {note}")


def report_fig15(entries) -> None:
    header("Figure 15 - Single-Link merge distances & interesting levels (OL)")
    for _, _, info in entries:
        series = info.get("last_49_merge_distances")
        if not series:
            continue
        print("last 49 merge distances (oldest -> newest):")
        for i in range(0, len(series), 7):
            print("  " + "  ".join(f"{d:8.3f}" for d in series[i : i + 7]))
        print(f"interesting levels (merge indices): {info['interesting_levels']}")
        print(f"ARI of the clustering before the first level past eps: "
              f"{info['ari_at_first_level']:.3f}")
    print("\npaper: sharp distance jumps mark interesting levels; the first"
          " occurs when the merge distance reaches eps (clusters discovered).")


def report_ablation_matrix(entries) -> None:
    header("Ablation (Sec 3.2) - precomputed distance matrix strawman (TG)")
    for name, mean, info in sorted(entries):
        label = name.replace("bench_", "").replace("_", " ")
        extra = ""
        if "matrix_mb" in info:
            extra = f"  (matrix: {info['matrix_mb']} MB for {info['points']} pts)"
        print(f"{label:<44}{mean:>9.3f}s{extra}")
    print("\npaper: O(N^2) precomputation dominates; traversal methods avoid it.")


def report_ablation_ccam(entries) -> None:
    header("Ablation (Sec 4.1) - CCAM vs random page layout (TG, eps-Link)")
    print(f"{'layout':<10}{'page misses':>12}{'buffer hits':>13}{'hit rate':>10}")
    for _, _, info in sorted(entries, key=lambda e: e[2].get("layout", "")):
        if "layout" not in info:
            continue
        print(f"{info['layout']:<10}{info['page_misses']:>12}"
              f"{info['buffer_hits']:>13}{info['hit_rate']:>10.1%}")
    print("\nCCAM-style connectivity clustering of pages cuts page faults;"
          " the clustering itself is identical.")


def report_full_scale(entries) -> None:
    header("Full-paper-scale runs (the paper's exact OL/TG sizes)")
    print(f"{'run':<42}{'time':>9}  details")
    for name, mean, info in sorted(entries):
        label = name.replace("bench_full_scale_", "").replace("_", " ")
        details = ", ".join(
            f"{k}={v}" for k, v in info.items() if k not in ("network",)
        )
        net = info.get("network", "?")
        print(f"{label + ' [' + net + ']':<42}{mean:>8.3f}s  {details}")
    print("\npaper OL (20K pts): eps-Link 2.1s, Single-Link 12s;"
          " paper TG (50K pts): eps-Link 5.1s, Single-Link 28s"
          " (2002 C++/disk).")


def report_ablation_implementations(entries) -> None:
    header("Ablation - implementation variants and extensions (OL/SF)")
    for name, mean, info in sorted(entries):
        label = name.replace("bench_", "").replace("_", " ")
        extra = ", ".join(f"{k}={v}" for k, v in info.items())
        print(f"{label:<42}{mean:>8.3f}s  {extra}")
    print("\nedgewise (Figure 6) eps-Link beats the augmented traversal;"
          " one OPTICS ordering ~ one DBSCAN run but serves every eps;"
          " the Euclidean bound (A*) settles a fraction of the vertices.")


def report_ablation_incremental(entries) -> None:
    header("Ablation - incremental maintenance vs recluster-per-update (OL)")
    for name, mean, info in sorted(entries):
        label = name.replace("bench_", "").replace("_", " ")
        updates = info.get("updates", 1)
        per_update = mean / max(1, updates)
        print(f"{label:<34}{mean:>8.3f}s total "
              f"({per_update * 1e3:8.3f} ms per update)")
    print("\ninsertion into a live clustering is a localized range query;"
          " removal and reweigh re-expand only the affected components;"
          " re-clustering repeats the whole traversal per update.")


def report_ablation_delta(entries) -> None:
    header("Ablation (Sec 4.4.2) - Single-Link delta pre-merge heuristic (OL)")
    print(f"{'delta/eps':>10}{'initial clusters':>18}{'recorded merges':>17}{'time':>9}")
    rows = sorted(
        (info["delta_factor"], mean, info)
        for _, mean, info in entries
        if "delta_factor" in info
    )
    for factor, mean, info in rows:
        print(f"{factor:>10.2f}{info['initial_clusters']:>18}"
              f"{info['recorded_merges']:>17}{mean:>8.3f}s")
    print("\npaper: delta shrinks the initial cluster count (heap sizes) by"
          " an order of magnitude; merges above delta are unchanged.")


def report_obs(payload: dict) -> None:
    runs = payload.get("runs", [])
    header(f"repro.obs counters - aggregated over {len(runs)} benchmark runs")
    totals: dict[str, int] = defaultdict(int)
    span_time: dict[str, float] = defaultdict(float)
    for run in runs:
        for name, value in run.get("counters", {}).items():
            totals[name] += value
        for name, agg in run.get("spans", {}).items():
            span_time[name] += agg.get("total_s", 0.0)
    print(f"{'counter':<52}{'total':>16}")
    for name in sorted(totals):
        print(f"{name:<52}{totals[name]:>16}")
    if span_time:
        print(f"\n{'phase':<52}{'total time':>16}")
        for name, total in sorted(span_time.items(), key=lambda kv: -kv[1]):
            print(f"{name:<52}{total:>15.3f}s")
    print("\nthese counts are the hardware-independent cost measure of the"
          "\npaper's experiments; per-run snapshots live in the sidecar JSON.")


REPORTERS = {
    "fig11-effectiveness": report_fig11,
    "fig12-incremental-speedup": report_fig12,
    "table1-kmedoids": report_table1,
    "table2-method-costs": report_table2,
    "fig13-scalability-n": lambda e: report_series(
        e, "n_points",
        "Figure 13 - scalability with N (SF analogue, seconds)",
        "DBSCAN/eps-Link cost ~ N; k-medoids/Single-Link nearly flat in N.",
    ),
    "fig14-scalability-v": lambda e: report_series(
        e, "nodes",
        "Figure 14 - scalability with |V| (SF fractions, seconds)",
        "k-medoids/Single-Link cost ~ |V|; density-based methods grow slowly.",
    ),
    "fig15-merge-distances": report_fig15,
    "ablation-matrix-baseline": report_ablation_matrix,
    "ablation-ccam": report_ablation_ccam,
    "ablation-delta": report_ablation_delta,
    "ablation-implementations": report_ablation_implementations,
    "ablation-incremental": report_ablation_incremental,
    "full-scale": report_full_scale,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", type=Path, default=None,
        help="reuse an existing --benchmark-json file instead of re-running",
    )
    parser.add_argument(
        "--metrics", type=Path, default=None,
        help="repro.obs metrics sidecar (default: <benchmark-json>.metrics.json)",
    )
    args = parser.parse_args()
    if args.json is not None:
        json_path = args.json
    else:
        json_path = Path(tempfile.mkdtemp()) / "benchmarks.json"
        run_benchmarks(json_path)
    groups = load(json_path)
    for group, reporter in REPORTERS.items():
        if group in groups:
            reporter(groups[group])
        else:
            print(f"\n[missing group: {group}]")
    metrics_path = args.metrics or Path(f"{json_path}.metrics.json")
    if metrics_path.exists():
        report_obs(load_metrics_sidecar(metrics_path))
    else:
        print(f"\n[no metrics sidecar at {metrics_path}]")


if __name__ == "__main__":
    main()
