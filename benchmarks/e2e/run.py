"""End-to-end benchmark of the serve and cluster paths.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0 --out r.json
    python3 benchmarks/e2e/run.py --workload serve-live --seed 1 --trace 1

Without ``--workload`` the four workloads run one after another, each in
a fresh child process.  Every run builds the seeded dataset, times the
set-up, warms up, measures for ``--seconds``, checks every answer against
its oracle and prints each metric with its unit (and sample count ``n``
for timings).  With ``--workload`` the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -
the end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics.  A traced run writes span JSONL for this process and
each worker process under ``--trace-dir`` and prints the self-time
table.  The exit code is 1 when an oracle fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BOOTSTRAP = os.path.join(HERE, "bootstrap")
WORKDIR = os.path.join(ROOT, ".e2e_work")
TRACE_DIR = os.path.join(ROOT, ".e2e_trace")
WORKLOADS = ("serve-scatter", "serve-hotspot", "serve-live", "cluster-batch")
#: measured seconds per workload when ``--seconds`` is not given; long
#: enough for 1,000 mutations on serve-live, so that its p99 is reported
DEFAULT_SECONDS = 30.0


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per workload (default: "
                             f"{DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report per-layer metrics")
    parser.add_argument("--trace-dir", default=TRACE_DIR,
                        help="where a traced run writes its span files")
    parser.add_argument("--out", help="write the result file here")
    return parser.parse_args(argv)


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def filesystem(path: str) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].encode().decode("unicode_escape")
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def provenance(dataset, workdir: str) -> dict:
    import numpy

    from repro.io import load_workload_file
    from repro.network.csr import CSRNetwork

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    network, _points = load_workload_file(dataset.path)
    return {
        "seed": dataset.seed,
        "workload_sha256": dataset.sha256,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "kernel_backend": CSRNetwork.freeze(network).kernel_backend,
        "wal_filesystem": filesystem(workdir),
        "wal_flush": "one fsync per append",
        "git_commit": git_commit(ROOT),
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        n = f"  n={m['n']}" if "n" in m else ""
        reason = f"  ({m['reason']})" if m.get("reason") else ""
        print(f"  {name:<38} {_fmt(m['value']):>14} {m['unit']:<9}{n}{reason}")


def _traced(run, measure, trace_dir: str):
    """Run ``measure`` with every layer boundary wrapped, workers too."""
    import spans

    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    tracer = spans.Tracer()
    saved = {k: os.environ.get(k) for k in (spans.TRACE_ENV, "PYTHONPATH")}
    os.environ[spans.TRACE_ENV] = trace_dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [BOOTSTRAP, HERE] + ([saved["PYTHONPATH"]] if saved["PYTHONPATH"]
                             else []))
    spans.install_bench(tracer)
    try:
        measure(run)
    finally:
        tracer.uninstall()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    tracer.dump(trace_dir)
    return spans.load(trace_dir)


def run_one(args, benchmark: dict) -> int:
    import inputs
    import layers
    import runners

    workdir = os.path.join(WORKDIR, str(os.getpid()))
    os.makedirs(workdir)
    try:
        dataset = inputs.write_dataset(os.path.join(workdir, "workload.json"),
                                       args.seed)
        run = runners.Run(args.workload, args.seed, args.seconds, workdir,
                          dataset)
        measure, count = runners.RUNNERS[args.workload]
        doc = {"seconds": args.seconds, "traced": bool(args.trace)}
        if args.trace:
            trace_dir = os.path.join(args.trace_dir, args.workload)
            recorded, events = _traced(run, measure, trace_dir)
            count(run)
            trace = layers.Trace(recorded, events, run.window)
            del recorded, events
            detail = layers.layer_metrics(args.workload, trace, run.extras,
                                          run.counts)
            doc.update(
                trace_dir=trace_dir,
                self_time=trace.table,
                layers=detail,
                per_layer=layers.universal_metrics(args.workload, trace,
                                                   detail, run.counts),
                counts=run.counts,
            )
        else:
            measure(run)
        doc.update(correct=run.correct, attempted=run.attempted,
                   failed=run.failed, metrics=run.metrics, checks=run.checks,
                   details=run.extras)
        prov = provenance(dataset, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_metrics(f"{args.workload} seed {args.seed}: {run.attempted} "
                  f"attempted, {run.failed} failed", run.metrics)
    if "reference_s" in run.extras:
        print(f"  times scaled by the reference kernel (median "
              f"{_fmt(1000 * run.extras['reference_s'])} ms); unscaled "
              f"throughput {_fmt(run.extras['raw_throughput_rps'])} req/s")
    for check in run.checks:
        status = "ok" if check["ok"] else "FAILED " + "; ".join(
            check["problems"])
        print(f"  check: {check['check']}: {status}")
    if args.trace:
        table = doc["self_time"]
        print(f"self time per layer, share of {_fmt(table['wall'])} s "
              "of request/job wall time:")
        for layer, seconds in table.items():
            if layer != "wall":
                print(f"  {layer:<14} {seconds / table['wall']:8.4f}")
        print_metrics("per-layer metrics:", doc["layers"])
        print(f"spans: {doc['trace_dir']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"provenance": prov,
                       "workloads": {args.workload: doc}}, fh, indent=1)
    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    source = doc["per_layer"] if args.trace else run.metrics
    line = {"correct": run.correct, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m["name"]: {"value": source[m["name"]]["value"],
                                    "unit": m["unit"]} for m in listed}}
    print(json.dumps(line))
    return 0 if run.correct else 1


def run_all(args) -> int:
    """Each workload in a fresh child process; one merged result file."""
    merged: dict = {"provenance": None, "workloads": {}}
    status = 0
    os.makedirs(WORKDIR, exist_ok=True)
    for workload in WORKLOADS:
        part = os.path.join(WORKDIR, f"{os.getpid()}-{workload}.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--trace-dir",
               args.trace_dir, "--out", part]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               check=False)
        print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
        if child.returncode != 0 or not os.path.exists(part):
            print(f"{workload}: exit code {child.returncode}", file=sys.stderr)
            status = 1
            continue
        with open(part, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(part)
        prov = result["provenance"]
        if merged["provenance"] is None:
            merged["provenance"] = prov
        elif prov["workload_sha256"] != merged["provenance"]["workload_sha256"]:
            print(f"{workload}: dataset differs between workloads",
                  file=sys.stderr)
            status = 1
        merged["workloads"].update(result["workloads"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1)
        print(f"wrote {args.out}")
    return status


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"{SRC}/repro not found: run.py runs from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import catalog

    if args.workload is None:
        return run_all(args)
    return run_one(args, catalog.load_benchmark())


if __name__ == "__main__":
    sys.exit(main())
