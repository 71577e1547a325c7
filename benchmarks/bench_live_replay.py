"""Manual benchmark: the cost of each live mutation kind, replayed in-process.

Replays the first ``--mutations`` mutations of the end-to-end benchmark's
seeded ``serve-live`` stream (``benchmarks/e2e/inputs.py``) through one
:class:`repro.live.LiveSession` without a write-ahead log, timing every
``mutate`` call.  It prints, per mutation kind, the count and the median
and total milliseconds, then a SHA-256 digest of the acks and of the final
``snapshot()``: two versions of the program that maintain the same
clustering print the same digests.

Run from the repository root (not collected by pytest; about 30 s)::

    python3 benchmarks/bench_live_replay.py --seed 0 --mutations 1500
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import inputs  # noqa: E402
from repro.io import load_workload_file  # noqa: E402
from repro.live import LiveSession  # noqa: E402

KINDS = ("insert_point", "remove_point", "reweigh_edge")


def _digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def replay(seed: int, mutations: int) -> dict:
    """Replay the stream's first ``mutations`` mutations; returns the
    per-kind timings (ms), the acks and the final snapshot."""
    with tempfile.TemporaryDirectory() as tmp:
        ds = inputs.write_dataset(os.path.join(tmp, "workload.json"), seed)
        network, points = load_workload_file(ds.path)
    session = LiveSession(network, points, eps=ds.eps)
    timings: dict[str, list[float]] = {kind: [] for kind in KINDS}
    acks = []
    for request in inputs.live_stream(ds):
        if len(acks) == mutations:
            break
        if request["op"] != "mutate":
            continue
        mutation = request["mutation"]
        t0 = time.perf_counter()
        acks.append(session.mutate(mutation))
        timings[mutation["kind"]].append((time.perf_counter() - t0) * 1e3)
    return {"timings": timings, "acks": acks, "snapshot": session.snapshot()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mutations", type=int, default=1500)
    args = parser.parse_args(argv)
    out = replay(args.seed, args.mutations)
    print(f"{'mutation':<14} {'count':>6} {'median_ms':>10} {'total_ms':>10}")
    for kind, ms in out["timings"].items():
        median = statistics.median(ms) if ms else 0.0
        print(f"{kind:<14} {len(ms):>6} {median:>10.3f} {sum(ms):>10.1f}")
    print(f"acks_sha256     {_digest(out['acks'])}")
    print(f"snapshot_sha256 {_digest(out['snapshot'])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
