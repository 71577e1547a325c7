"""Checkpoint/resume: crash sweeps, snapshot-resume identity, CLI round trips.

The contract under test (see ``docs/robustness.md``): a clustering run
interrupted at *any* point — injected crash, operation-budget abort, or
SIGTERM — restarts from its last snapshot and produces a result identical
to the uninterrupted run (timing stats excluded).
"""

from __future__ import annotations

import json
import os
import random
import signal

import pytest

from repro import faults
from repro.cli import main
from repro.core.dbscan import NetworkDBSCAN
from repro.core.epslink import EpsLink, Expansion
from repro.core.kmedoids import NetworkKMedoids
from repro.core.optics import NetworkOPTICS
from repro.core.singlelink import SingleLink
from repro.faults import CrashPoint, FaultRule
from repro.network.augmented import AugmentedView
from repro.recovery import CheckpointManager, load_checkpoint, save_checkpoint
from tests.conftest import make_random_connected_network, scatter_points


def _workload():
    rng = random.Random(11)
    net = make_random_connected_network(rng, 40, extra_edges=15)
    pts = scatter_points(rng, net, 50)
    return net, pts


MAKERS = {
    "k-medoids": lambda n, p: NetworkKMedoids(n, p, k=4, seed=7, n_restarts=2),
    "eps-link": lambda n, p: EpsLink(n, p, eps=3.0, min_sup=2),
    "dbscan": lambda n, p: NetworkDBSCAN(n, p, eps=3.0, min_pts=3),
    "optics": lambda n, p: NetworkOPTICS(n, p, max_eps=4.0, min_pts=3),
    "single-link": lambda n, p: SingleLink(n, p, delta=1.0, stop_k=4),
}

CRASH_SITES = {
    "k-medoids": "kmedoids.update_settle",
    "eps-link": "epslink.expand",
    "dbscan": "queries.settle",
    "optics": "queries.settle",
    "single-link": "singlelink.voronoi",
}


def _strip(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if "time_s" not in k}


def _same(a, b) -> bool:
    return a.assignment == b.assignment and _strip(a.stats) == _strip(b.stats)


@pytest.fixture(scope="module")
def workload():
    return _workload()


@pytest.fixture(scope="module")
def baselines(workload):
    net, pts = workload
    return {name: make(net, pts).run() for name, make in MAKERS.items()}


def _site_hit_count(name, workload) -> int:
    """Total hits the algorithm makes at its crash site (sweep sizing)."""
    net, pts = workload
    with faults.plan(FaultRule("no.such.site", "crash", after=10**9)):
        MAKERS[name](net, pts).run()
        return faults.hits(CRASH_SITES[name])


class TestCrashResume:
    """Kill at a swept set of hit indices; resume must match the baseline."""

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_crash_then_resume_identical(
        self, name, workload, baselines, tmp_path
    ):
        net, pts = workload
        total = _site_hit_count(name, workload)
        assert total > 0, f"{name} never reaches {CRASH_SITES[name]}"
        sweep = sorted({1, max(1, total // 4), max(1, total // 2), total})
        for hit in sweep:
            ckpt = tmp_path / f"{name}-{hit}.ckpt"
            algo = MAKERS[name](net, pts)
            algo.checkpoint = CheckpointManager(ckpt, every=1)
            with pytest.raises(CrashPoint):
                with faults.plan(
                    FaultRule(CRASH_SITES[name], "crash", after=hit)
                ):
                    algo.run()
            resumed = MAKERS[name](net, pts)
            if ckpt.exists():
                resumed.resume_from(load_checkpoint(ckpt)["state"])
            # else: killed before the first snapshot — a fresh run IS the
            # correct resume.
            result = resumed.run()
            assert _same(baselines[name], result), (
                f"{name} diverged when crashed at hit {hit}/{total}"
            )

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_resume_under_sparse_checkpointing(
        self, name, workload, baselines, tmp_path
    ):
        """``every > 1`` loses snapshots, never correctness."""
        net, pts = workload
        total = _site_hit_count(name, workload)
        hit = max(1, (2 * total) // 3)
        ckpt = tmp_path / f"{name}.ckpt"
        algo = MAKERS[name](net, pts)
        algo.checkpoint = CheckpointManager(ckpt, every=5)
        with pytest.raises(CrashPoint):
            with faults.plan(FaultRule(CRASH_SITES[name], "crash", after=hit)):
                algo.run()
        resumed = MAKERS[name](net, pts)
        if ckpt.exists():
            resumed.resume_from(load_checkpoint(ckpt)["state"])
        assert _same(baselines[name], resumed.run())


class _Capture:
    """Duck-typed CheckpointManager recording every snapshot (JSON trip)."""

    def __init__(self):
        self.states = []

    def tick(self, state_fn):
        self.states.append(json.loads(json.dumps(state_fn())))

    def save(self, state):
        self.states.append(json.loads(json.dumps(state)))

    def remove(self):
        pass


class TestSnapshotResume:
    """Resume from EVERY snapshot a run ever takes — not just crash points."""

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_every_snapshot_resumes_identically(
        self, name, workload, baselines
    ):
        net, pts = workload
        algo = MAKERS[name](net, pts)
        cap = _Capture()
        algo.checkpoint = cap
        assert _same(baselines[name], algo.run())
        assert cap.states, f"{name} never snapshotted"
        step = max(1, len(cap.states) // 8)
        indices = list(range(0, len(cap.states), step))
        indices.append(len(cap.states) - 1)
        for i in sorted(set(indices)):
            resumed = MAKERS[name](net, pts)
            resumed.resume_from(cap.states[i])
            assert _same(baselines[name], resumed.run()), (
                f"{name} diverged resuming from snapshot "
                f"{i + 1}/{len(cap.states)}"
            )


class TestVertexSettleCheckpoint:
    """ε-Link checkpoints once counted ``vertices_visited`` in settles of
    augmented-graph vertices (one per object and node); the group scan
    counts node settles.  The state's shape did not change."""

    def test_old_count_resumes(self, workload, baselines, tmp_path):
        net, pts = workload
        algo = MAKERS["eps-link"](net, pts)
        aug = AugmentedView(net, pts)
        # Three clusters grown the old way: one vertex-heap expansion
        # each (Expansion + one unlimited _grow), counting its settles.
        assignment, vertex_settles, node_settles, label = {}, 0, 0, 0
        for seed in pts:
            if label == 3:
                break
            if seed.point_id in assignment:
                continue
            expansion = Expansion(seed.point_id)
            algo._grow(aug, expansion, assignment)
            members, settled = algo._expand_cluster(seed, {})
            assert members == expansion.members
            vertex_settles += expansion.visited
            node_settles += settled
            for pid in members:
                assignment[pid] = label
            label += 1
        assert vertex_settles != node_settles
        ckpt = tmp_path / "eps-link.ckpt"
        save_checkpoint(ckpt, {}, {
            "assignment": {str(pid): lab for pid, lab in assignment.items()},
            "vertices_visited": vertex_settles,
            "next_label": label,
        })
        resumed = MAKERS["eps-link"](net, pts)
        resumed.resume_from(load_checkpoint(ckpt)["state"])
        result = resumed.run()
        baseline = baselines["eps-link"]
        assert result.assignment == baseline.assignment
        # The old count carries over; the rest is counted in node settles.
        assert result.stats["vertices_visited"] == (
            baseline.stats["vertices_visited"] - node_settles + vertex_settles
        )


@pytest.fixture
def cli_workload(tmp_path):
    path = tmp_path / "w.json"
    assert main([
        "generate", "--grid", "6x6", "--points", "40", "--out", str(path),
    ]) == 0
    return path


def _result_doc(path):
    doc = json.loads(path.read_text())
    doc["stats"] = {
        k: v for k, v in doc.get("stats", {}).items() if "time_s" not in k
    }
    return doc


class TestCLIBudgetAbortResume:
    """Exit-3 budget abort, then ``--resume`` completes with the same result."""

    CASES = {
        "eps-link": (
            ["--algorithm", "eps-link", "--eps", "0.6"], "15",
        ),
        "k-medoids": (
            ["--algorithm", "k-medoids", "--k", "5", "--restarts", "2",
             "--seed", "3"], "300",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_budget_abort_then_resume(self, name, cli_workload, tmp_path):
        algo_args, cap = self.CASES[name]
        full = tmp_path / "full.json"
        assert main([
            "cluster", str(cli_workload), *algo_args, "--out", str(full),
        ]) == 0

        ckpt = tmp_path / "c.ckpt"
        aborted = tmp_path / "aborted.json"
        rc = main([
            "cluster", str(cli_workload), *algo_args, "--out", str(aborted),
            "--max-expansions", cap,
            "--checkpoint", str(ckpt), "--checkpoint-every", "1",
        ])
        assert rc == 3  # clean budget abort
        assert not aborted.exists()  # no partial result published
        assert ckpt.exists()  # snapshot left for --resume

        resumed = tmp_path / "resumed.json"
        assert main([
            "cluster", str(cli_workload), *algo_args, "--out", str(resumed),
            "--resume", str(ckpt),
        ]) == 0
        assert _result_doc(resumed) == _result_doc(full)
        assert not ckpt.exists()  # removed after the successful finish

    def test_missing_resume_file_runs_fresh(self, cli_workload, tmp_path):
        full = tmp_path / "full.json"
        args = ["--algorithm", "eps-link", "--eps", "0.6"]
        assert main([
            "cluster", str(cli_workload), *args, "--out", str(full),
        ]) == 0
        out = tmp_path / "fresh.json"
        assert main([
            "cluster", str(cli_workload), *args, "--out", str(out),
            "--resume", str(tmp_path / "never-written.ckpt"),
        ]) == 0
        assert _result_doc(out) == _result_doc(full)

    def test_mismatched_checkpoint_rejected(self, cli_workload, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        rc = main([
            "cluster", str(cli_workload), "--algorithm", "k-medoids",
            "--k", "5", "--out", str(tmp_path / "a.json"),
            "--max-expansions", "300",
            "--checkpoint", str(ckpt), "--checkpoint-every", "1",
        ])
        assert rc == 3 and ckpt.exists()
        with pytest.raises(SystemExit, match="cannot resume"):
            main([
                "cluster", str(cli_workload), "--algorithm", "k-medoids",
                "--k", "6", "--out", str(tmp_path / "b.json"),
                "--resume", str(ckpt),
            ])

    def test_corrupt_checkpoint_rejected(self, cli_workload, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        args = ["--algorithm", "eps-link", "--eps", "0.6"]
        rc = main([
            "cluster", str(cli_workload), *args,
            "--out", str(tmp_path / "a.json"), "--max-expansions", "15",
            "--checkpoint", str(ckpt), "--checkpoint-every", "1",
        ])
        assert rc == 3
        raw = bytearray(ckpt.read_bytes())
        raw[len(raw) // 2] ^= 0x20
        ckpt.write_bytes(bytes(raw))
        with pytest.raises(SystemExit, match="cannot resume"):
            main([
                "cluster", str(cli_workload), *args,
                "--out", str(tmp_path / "b.json"), "--resume", str(ckpt),
            ])


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals required")
class TestSigterm:
    def test_sigterm_exits_3_and_leaves_checkpoint(
        self, cli_workload, tmp_path
    ):
        full = tmp_path / "full.json"
        args = ["--algorithm", "eps-link", "--eps", "0.6"]
        assert main([
            "cluster", str(cli_workload), *args, "--out", str(full),
        ]) == 0

        ckpt = tmp_path / "c.ckpt"
        killed = tmp_path / "killed.json"
        original_save = CheckpointManager.save
        saves = {"n": 0}

        def save_then_sigterm(self, state):
            original_save(self, state)
            saves["n"] += 1
            if saves["n"] == 3:
                os.kill(os.getpid(), signal.SIGTERM)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CheckpointManager, "save", save_then_sigterm)
            rc = main([
                "cluster", str(cli_workload), *args, "--out", str(killed),
                "--checkpoint", str(ckpt), "--checkpoint-every", "1",
            ])
        assert rc == 3
        assert not killed.exists()
        assert ckpt.exists()  # the latest snapshot survives the kill

        resumed = tmp_path / "resumed.json"
        assert main([
            "cluster", str(cli_workload), *args, "--out", str(resumed),
            "--resume", str(ckpt),
        ]) == 0
        assert _result_doc(resumed) == _result_doc(full)
