"""Persistent landmark index (RLIX): crash-consistent build, integrity,
mmap-shared serve workers, graceful degradation.

Four guarantees under test:

1. **Atomicity.**  A crash or torn write at *every* builder write site
   (counted per site, injected at every hit) leaves either no artifact at
   the target path or a fully valid one — never a half-built index — and
   any leftover temp file is refused with a typed error.
2. **Integrity.**  An exhaustive single-bit-flip sweep over a persisted
   index: every flip of every bit is detected at load time with a typed
   :class:`IndexCorruptError` / :class:`IndexStaleError` (the file has no
   unchecksummed byte), and the degradation seam turns each one into
   ``(None, reason)`` + a ``perf.index.degraded`` bump instead of a dead
   worker.
3. **Bit identity.**  The mmap-backed index reproduces the in-memory
   :class:`LandmarkIndex` exactly — vectors, bounds, and accelerated
   query results.
4. **Zero rebuilds.**  A ``--processes 3`` supervised pool with a
   persisted index performs no in-worker landmark build, including after
   a kill-fault restart: every ready frame reports ``"mmap"``.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import time

import pytest

pytest.importorskip("numpy")

from repro import faults, obs
from repro.cli import main as cli_main
from repro.exceptions import (
    IndexCorruptError,
    IndexStaleError,
    ReproError,
    StorageError,
)
from repro.faults import CrashPoint, FaultRule
from repro.io import workload_to_dict
from repro.network.augmented import AugmentedView
from repro.perf import (
    DistanceAccelerator,
    LandmarkIndex,
    build_index_file,
    load_index,
    load_index_or_degrade,
    network_fingerprint,
    save_index,
    verify_index,
)
from repro.perf.persist import BUILD_WRITE_SITES
from repro.serve import QueryService, SupervisedPool
from tests.conftest import make_random_connected_network, scatter_points

LANDMARKS = 4


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(23)
    net = make_random_connected_network(rng, 30, extra_edges=10)
    pts = scatter_points(rng, net, 40)
    return net, pts


@pytest.fixture(scope="module")
def workload_path(workload, tmp_path_factory):
    net, pts = workload
    path = tmp_path_factory.mktemp("idx-workload") / "w.json"
    path.write_text(json.dumps(workload_to_dict(net, pts)))
    return str(path)


@pytest.fixture(scope="module")
def index_path(workload, tmp_path_factory):
    """A pristine persisted index over the module workload."""
    net, _pts = workload
    path = tmp_path_factory.mktemp("idx-artifact") / "w.rlix"
    build_index_file(str(path), net, num_landmarks=LANDMARKS)
    return str(path)


# ----------------------------------------------------------------------
# Round trip and bit identity
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_loaded_index_matches_in_memory_exactly(
        self, workload, index_path
    ):
        net, pts = workload
        mem = LandmarkIndex(net, LANDMARKS)
        idx = load_index(index_path, net)
        try:
            assert idx.landmarks == mem.landmarks
            assert idx.scale == mem.scale
            assert len(idx) == len(mem)
            nodes = sorted(net.nodes())
            for n in nodes:
                assert idx.node_vector(n) == mem.node_vector(n)
            for u in nodes[::3]:
                for v in nodes[::4]:
                    assert idx.node_lower_bound(u, v) == \
                        mem.node_lower_bound(u, v)
            for p in pts:
                assert idx.point_vector(p) == mem.point_vector(p)
        finally:
            idx.close()

    def test_accelerated_queries_bit_identical(self, workload, index_path):
        net, pts = workload
        aug = AugmentedView(net, pts)
        idx = load_index(index_path, net)
        try:
            persisted = DistanceAccelerator(aug, index=idx)
            built = DistanceAccelerator(
                AugmentedView(net, pts), index=LandmarkIndex(net, LANDMARKS)
            )
            for p in list(pts)[::4]:
                for eps in (1.0, 5.0):
                    assert persisted.range_query(p, eps) == \
                        built.range_query(p, eps)
                assert persisted.knn_query(p, 5) == built.knn_query(p, 5)
        finally:
            idx.close()

    def test_unreached_nodes_stay_inf(self, tmp_path):
        # Two components: landmark tables hold inf for the far side, and
        # the round trip must preserve that exactly (component semantics
        # carry real information — see repro.perf.landmarks).
        rng = random.Random(5)
        net = make_random_connected_network(rng, 12, extra_edges=2)
        far = make_random_connected_network(rng, 6, extra_edges=0)
        for u, v, w in far.edges():
            net.add_node(u + 100)
            net.add_node(v + 100)
        for u, v, w in far.edges():
            net.add_edge(u + 100, v + 100, w)
        path = str(tmp_path / "two.rlix")
        build_index_file(path, net, num_landmarks=3)
        mem = LandmarkIndex(net, 3)
        idx = load_index(path, net)
        try:
            for n in sorted(net.nodes()):
                assert idx.node_vector(n) == mem.node_vector(n)
            assert any(
                math.isinf(x)
                for n in net.nodes()
                for x in idx.node_vector(n)
            )
        finally:
            idx.close()

    def test_fingerprint_is_deterministic_and_discriminating(self, workload):
        net, _pts = workload
        fp = network_fingerprint(net)
        clone = make_random_connected_network(random.Random(23), 30,
                                              extra_edges=10)
        assert network_fingerprint(clone) == fp
        other = make_random_connected_network(random.Random(24), 30,
                                              extra_edges=10)
        assert network_fingerprint(other) != fp

    def test_save_refuses_tmp_target(self, workload, tmp_path):
        net, _pts = workload
        index = LandmarkIndex(net, 2)
        with pytest.raises(ReproError):
            save_index(str(tmp_path / "x.tmp"), index, net)


# ----------------------------------------------------------------------
# Crash sweep over every builder write site
# ----------------------------------------------------------------------
def _count_build_hits(net, tmp_path) -> dict[str, int]:
    """Clean instrumented build; returns fault-site hits per write site."""
    with faults.plan(FaultRule("no.such.site", "crash", after=10**9)):
        build_index_file(str(tmp_path / "count.rlix"), net,
                         num_landmarks=LANDMARKS)
        return {site: faults.hits(site) for site in BUILD_WRITE_SITES}


def _assert_valid_or_absent(path: str, net) -> None:
    if not os.path.exists(path):
        return
    idx = load_index(path, net)  # must be fully valid, or raise typed
    idx.close()


class TestCrashSweep:
    def test_every_write_site_is_exercised(self, workload, tmp_path):
        net, _pts = workload
        counts = _count_build_hits(net, tmp_path)
        for site, n in counts.items():
            assert n >= 1, f"write site {site} never hit"

    @pytest.mark.parametrize("site", BUILD_WRITE_SITES)
    def test_crash_sweep_fresh_build(self, workload, tmp_path, site):
        """Crash at every hit of ``site``: the target path must never
        materialise half-built, and any temp leftover is refused."""
        net, _pts = workload
        counts = _count_build_hits(net, tmp_path)
        path = str(tmp_path / "idx.rlix")
        for n in range(1, counts[site] + 1):
            with faults.plan(FaultRule(site, "crash", after=n)):
                with pytest.raises(CrashPoint):
                    build_index_file(path, net, num_landmarks=LANDMARKS)
            assert not os.path.exists(path), (
                f"half-built index appeared at hit {n} of {site}"
            )
            tmp = path + ".tmp"
            if os.path.exists(tmp):
                with pytest.raises(StorageError):
                    load_index(tmp, net)
        # After the whole sweep a clean build still succeeds (leftover
        # temp files are swept by the next build).
        build_index_file(path, net, num_landmarks=LANDMARKS)
        load_index(path, net).close()

    @pytest.mark.parametrize("site", BUILD_WRITE_SITES)
    def test_crash_sweep_preserves_previous_index(
        self, workload, tmp_path, site
    ):
        """A crashed rebuild must leave the previous artifact untouched."""
        net, _pts = workload
        path = str(tmp_path / "idx.rlix")
        build_index_file(path, net, num_landmarks=LANDMARKS)
        with open(path, "rb") as fh:
            pristine = fh.read()
        with faults.plan(FaultRule(site, "crash", after=1)):
            with pytest.raises(CrashPoint):
                build_index_file(path, net, num_landmarks=LANDMARKS)
        with open(path, "rb") as fh:
            assert fh.read() == pristine
        _assert_valid_or_absent(path, net)

    @pytest.mark.parametrize(
        "site",
        [s for s in BUILD_WRITE_SITES if s != "index.build.commit"],
    )
    def test_torn_write_sweep(self, workload, tmp_path, site):
        """A torn (partial) physical write at any payload site must leave
        no valid artifact at the target path."""
        net, _pts = workload
        path = str(tmp_path / "idx.rlix")
        with faults.plan(
            FaultRule(site, "torn", after=1, tear_fraction=0.5)
        ):
            with pytest.raises(CrashPoint):
                build_index_file(path, net, num_landmarks=LANDMARKS)
        assert not os.path.exists(path)
        tmp = path + ".tmp"
        if os.path.exists(tmp):
            with pytest.raises(StorageError):
                load_index(tmp, net)

    def test_renamed_uncommitted_temp_is_refused(self, workload, tmp_path):
        """Even hand-promoting a crashed build's temp file to the final
        path must not get its bounds served: the commit flag is clear."""
        net, _pts = workload
        path = str(tmp_path / "idx.rlix")
        with faults.plan(
            FaultRule("index.build.commit_header", "crash", after=1)
        ):
            with pytest.raises(CrashPoint):
                build_index_file(path, net, num_landmarks=LANDMARKS)
        tmp = path + ".tmp"
        assert os.path.exists(tmp)
        os.replace(tmp, path)  # simulate a meddling operator
        with pytest.raises(IndexCorruptError, match="uncommitted"):
            load_index(path, net)


# ----------------------------------------------------------------------
# Exhaustive single-bit corruption sweep
# ----------------------------------------------------------------------
class TestCorruptionSweep:
    @pytest.fixture(scope="class")
    def small_index(self, tmp_path_factory):
        """A small pristine index (small network keeps the exhaustive
        sweep at ~10k loads) plus its bytes."""
        rng = random.Random(7)
        net = make_random_connected_network(rng, 16, extra_edges=4)
        path = tmp_path_factory.mktemp("bitflip") / "small.rlix"
        build_index_file(str(path), net, num_landmarks=3)
        return net, str(path), path.read_bytes()

    def test_every_single_bit_flip_detected(self, small_index, tmp_path):
        """No unchecksummed byte: flipping any bit anywhere in the file
        must raise a typed error at load — never load quietly, never
        escape as a raw struct/unicode/numpy error."""
        net, _path, pristine = small_index
        victim = str(tmp_path / "flip.rlix")
        undetected = []
        for bytepos in range(len(pristine)):
            for bit in range(8):
                mutated = bytearray(pristine)
                mutated[bytepos] ^= 1 << bit
                with open(victim, "wb") as fh:
                    fh.write(mutated)
                try:
                    idx = load_index(victim, net)
                except (IndexCorruptError, IndexStaleError):
                    continue
                idx.close()
                undetected.append((bytepos, bit))
        assert not undetected, (
            f"{len(undetected)} bit flip(s) loaded quietly: "
            f"{undetected[:10]}"
        )

    def test_flips_degrade_cleanly_with_counter(self, small_index, tmp_path):
        """Through the degradation seam a sampled set of flips becomes
        (None, reason) + a perf.index.degraded bump — a worker would lose
        its acceleration, not its life."""
        net, _path, pristine = small_index
        victim = str(tmp_path / "flip.rlix")
        sample = range(0, len(pristine), 97)  # every byte class, cheap
        obs.enable(fresh=True)
        try:
            for bytepos in sample:
                mutated = bytearray(pristine)
                mutated[bytepos] ^= 0x10
                with open(victim, "wb") as fh:
                    fh.write(mutated)
                index, reason = load_index_or_degrade(victim, net)
                assert index is None
                assert reason
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters.get("perf.index.degraded") == len(list(sample))

    def test_verify_index_reports_the_damage(self, small_index, tmp_path):
        net, _path, pristine = small_index
        victim = str(tmp_path / "flip.rlix")
        # Flip one bit in the tables section (last section before its
        # trailer): verify must produce at least one error finding.
        mutated = bytearray(pristine)
        mutated[len(pristine) - 12] ^= 0x1
        with open(victim, "wb") as fh:
            fh.write(mutated)
        findings = verify_index(victim, net)
        assert findings and all(f.kind == "index" for f in findings)
        assert any(f.severity == "error" for f in findings)

    def test_truncated_tails_detected(self, small_index, tmp_path):
        net, _path, pristine = small_index
        victim = str(tmp_path / "trunc.rlix")
        for cut in (0, 1, 8, 15, 16, len(pristine) // 2, len(pristine) - 1):
            with open(victim, "wb") as fh:
                fh.write(pristine[:cut])
            with pytest.raises(IndexCorruptError):
                load_index(victim, net)

    def test_stale_fingerprint_and_version_skew(self, small_index, tmp_path):
        net, _path, pristine = small_index
        victim = str(tmp_path / "stale.rlix")
        with open(victim, "wb") as fh:
            fh.write(pristine)
        other = make_random_connected_network(random.Random(8), 16,
                                              extra_edges=4)
        with pytest.raises(IndexStaleError, match="fingerprint"):
            load_index(victim, other)
        # A *validly written* future version (header CRC recomputed)
        # is refused as version skew, not corruption.
        import struct
        import zlib

        head = bytearray(pristine[:16])
        struct.pack_into("<H", head, 4, 2)
        struct.pack_into("<I", head, 12, zlib.crc32(bytes(head[:12])))
        with open(victim, "wb") as fh:
            fh.write(bytes(head) + pristine[16:])
        with pytest.raises(IndexStaleError, match="version skew"):
            load_index(victim, net)

    def test_missing_file_degrades(self, workload):
        net, _pts = workload
        obs.enable(fresh=True)
        try:
            index, reason = load_index_or_degrade("/no/such/index.rlix", net)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert index is None and "FileNotFoundError" in reason
        assert counters.get("perf.index.degraded") == 1


# ----------------------------------------------------------------------
# Serve tiers: mmap sharing, zero rebuilds, graceful degradation
# ----------------------------------------------------------------------
class TestQueryServiceIntegration:
    def test_service_uses_mmap_and_serves_identically(
        self, workload, index_path
    ):
        net, pts = workload
        point_ids = [p.point_id for p in pts][:8]
        requests = [
            {"op": "knn", "point_id": pid, "k": 5} for pid in point_ids
        ] + [
            {"op": "range", "point_id": pid, "eps": 4.0}
            for pid in point_ids
        ]
        with QueryService(net, pts, workers=2,
                          index_path=index_path) as fast:
            assert fast.index_source == "mmap"
            accel_answers = [fast.call(r) for r in requests]
        with QueryService(net, pts, workers=2) as plain:
            assert plain.index_source == "none"
            plain_answers = [plain.call(r) for r in requests]
        assert accel_answers == plain_answers

    def test_service_degrades_on_corrupt_index(
        self, workload, index_path, tmp_path
    ):
        net, pts = workload
        bad = str(tmp_path / "bad.rlix")
        shutil.copyfile(index_path, bad)
        with open(bad, "r+b") as fh:
            fh.seek(200)
            byte = fh.read(1)
            fh.seek(200)
            fh.write(bytes([byte[0] ^ 0xFF]))
        obs.enable(fresh=True)
        try:
            with QueryService(net, pts, workers=2, index_path=bad) as svc:
                assert svc.index_source == "degraded"
                assert svc.index_degrade_reason
                degraded = [
                    svc.call({"op": "knn", "point_id": p.point_id, "k": 5})
                    for p in list(pts)[:6]
                ]
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters.get("perf.index.degraded") == 1
        with QueryService(net, pts, workers=1) as oracle:
            expected = [
                oracle.call({"op": "knn", "point_id": p.point_id, "k": 5})
                for p in list(pts)[:6]
            ]
        assert degraded == expected

    def test_index_path_overrides_landmarks_build(
        self, workload, index_path
    ):
        net, pts = workload
        with QueryService(net, pts, workers=1, landmarks=8,
                          index_path=index_path) as svc:
            assert svc.index_source == "mmap"
            # The artifact's landmark count wins; nothing was rebuilt.
            assert len(svc._landmark_index) == LANDMARKS


class TestSupervisedPoolIntegration:
    def test_pool_zero_builds_across_kill_restart(
        self, workload, workload_path, index_path
    ):
        """The acceptance sweep: a 3-process pool with a persisted index
        performs zero in-worker landmark builds — every ready frame,
        including those of workers restarted after a real SIGKILL,
        reports the mmap'd artifact."""
        net, pts = workload
        point_ids = [p.point_id for p in pts]
        rule = FaultRule("queries.settle", kind="kill", after=30,
                         times=None)
        pool = SupervisedPool(
            workload_path, processes=3, index_path=index_path,
            fault_rules=(rule,), fault_seed=0,
            backoff_base_s=0.01, backoff_cap_s=0.05, max_restarts=8,
        )
        history = []
        try:
            for i, pid in enumerate(point_ids[:12]):
                request = {"id": i, "op": "range", "point_id": pid,
                           "eps": 4.0}
                try:
                    history.append((i, "ok", pool.call(request)))
                except Exception as exc:
                    history.append((i, type(exc).__name__, None))
            # The replacement worker spawns asynchronously on the slot
            # thread; wait for its ready frame before auditing sources.
            deadline = time.monotonic() + 30.0
            while (len(pool.index_sources) <= 3
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            supervisor = pool.stats_snapshot()["supervisor"]
        finally:
            assert pool.close(), "close() left a worker running"
        # The kill fault actually restarted at least one worker...
        assert supervisor["worker_deaths"] >= 1, "no kill fired; dead sweep"
        assert len(pool.index_sources) > 3
        # ...and no worker lineage ever built an index in-process.
        assert set(pool.index_sources) == {"mmap"}
        assert supervisor["index_sources"] == pool.index_sources
        # Served results match the threaded oracle bit-for-bit.
        with QueryService(net, pts, workers=1) as svc:
            for i, status, result in history:
                if status != "ok":
                    continue
                oracle = svc.call({"op": "range",
                                   "point_id": point_ids[i], "eps": 4.0})
                assert json.loads(json.dumps(result)) == \
                    json.loads(json.dumps(oracle))

    def test_pool_degrades_without_dying_on_corrupt_index(
        self, workload, workload_path, index_path, tmp_path
    ):
        """A corrupt artifact costs every worker its acceleration, never
        its life: all workers come up degraded and serve bit-identical
        results."""
        net, pts = workload
        bad = str(tmp_path / "bad.rlix")
        shutil.copyfile(index_path, bad)
        with open(bad, "r+b") as fh:
            fh.seek(120)
            byte = fh.read(1)
            fh.seek(120)
            fh.write(bytes([byte[0] ^ 0x4]))
        pool = SupervisedPool(workload_path, processes=2, index_path=bad)
        try:
            answers = [
                pool.call({"op": "knn", "point_id": p.point_id, "k": 4})
                for p in list(pts)[:6]
            ]
        finally:
            assert pool.close()
        assert set(pool.index_sources) == {"degraded"}
        with QueryService(net, pts, workers=1) as svc:
            expected = [
                svc.call({"op": "knn", "point_id": p.point_id, "k": 4})
                for p in list(pts)[:6]
            ]
        assert answers == expected


class TestReplayedReweighDegradesIndex:
    """A ``reweigh_edge`` already in the mutation log must degrade the
    landmark index during a (re)started worker's WAL replay: the
    artifact's bounds bind to the pre-replay edge weights, and a worker
    that fingerprint-checked before replaying would otherwise serve
    stale range/knn answers."""

    def make_wal_with_reweigh(self, workload_path: str,
                              wal_path: str) -> None:
        from repro.io import load_workload_file
        from repro.live import LiveSession, WriteAheadLog

        net, pts = load_workload_file(workload_path)
        writer = LiveSession(net, pts, eps=2.0, wal=WriteAheadLog(wal_path))
        u, v = min((a, b) for a, b, _w in net.edges())
        # Reweigh *up*, past the generator's 10.0 ceiling: guaranteed to
        # change distances and conflict-free whatever sits on the edge.
        writer.mutate({"kind": "reweigh_edge", "u": u, "v": v,
                       "weight": 11.0})
        writer.close()

    def oracle_answers(self, workload_path: str, wal_path: str,
                       requests: list) -> list:
        """Unaccelerated answers over the replayed (mutated) world."""
        from repro.io import load_workload_file
        from repro.live import LiveSession, WriteAheadLog
        from repro.serve.service import run_query

        net, pts = load_workload_file(workload_path)
        session = LiveSession(
            net, pts, eps=2.0,
            wal=WriteAheadLog(wal_path, read_only=True),
        )
        try:
            session.replay_wal()
            aug = AugmentedView(session.network, session.points)
            return [run_query(r, aug) for r in requests]
        finally:
            session.close()

    def test_restarted_worker_replays_reweigh_and_degrades(
        self, workload, workload_path, index_path, tmp_path
    ):
        """Drive one worker in-process over a log holding a reweigh: the
        ready frame must report ``degraded`` (not ``mmap``) and every
        answer must match the unaccelerated oracle on the reweighed
        network."""
        import io

        from repro.serve.frames import read_frame, write_frame
        from repro.serve.worker import worker_entry

        wal_path = str(tmp_path / "reweigh.wal")
        self.make_wal_with_reweigh(workload_path, wal_path)
        _net, pts = workload
        requests = [
            {"op": "knn", "point_id": p.point_id, "k": 4}
            for p in list(pts)[:6]
        ]
        stdin = io.BytesIO()
        for i, request in enumerate(requests):
            write_frame(stdin, {"seq": i, "request": request})
        stdin.seek(0)
        stdout = io.BytesIO()
        spec = {
            "workload": workload_path,
            "index_path": index_path,
            "wal": wal_path,
            "epoch": 1,
            "live_eps": 2.0,
        }
        assert worker_entry(spec, stdin=stdin, stdout=stdout) == 0
        stdout.seek(0)
        ready = read_frame(stdout)
        assert ready["ready"] and ready["epoch"] == 1
        assert ready["index"] == "degraded"
        answers = []
        for _ in requests:
            frame = read_frame(stdout)
            assert frame["ok"], frame
            answers.append(frame["result"])
        assert answers == self.oracle_answers(
            workload_path, wal_path, requests
        )

    def test_pool_restart_with_reweigh_in_log_degrades(
        self, workload_path, index_path, tmp_path
    ):
        """Chaos acceptance: a pool acknowledges a reweigh, dies, and a
        replacement pool over the same log comes up with every worker
        degraded — no restarted worker ever serves the stale bounds."""
        from repro.io import load_workload_file

        net, pts = load_workload_file(workload_path)
        u, v = min((a, b) for a, b, _w in net.edges())
        requests = [
            {"op": "knn", "point_id": p.point_id, "k": 4}
            for p in list(pts)[:6]
        ]
        wal_path = str(tmp_path / "pool_reweigh.wal")
        pool = SupervisedPool(
            workload_path, processes=2, index_path=index_path,
            wal_path=wal_path, live_eps=2.0,
        )
        try:
            # Both workers must be up before the mutate, or a slow spawn
            # legitimately replays the reweigh and reports degraded.
            deadline = time.monotonic() + 30.0
            while pool.stats_snapshot()["supervisor"]["live"] < 2:
                assert time.monotonic() < deadline, "workers never came up"
                time.sleep(0.05)
            ack = pool.call({"op": "mutate", "mutation": {
                "kind": "reweigh_edge", "u": u, "v": v, "weight": 11.0,
            }})
            assert ack["epoch"] == 1
        finally:
            assert pool.close()
        assert set(pool.index_sources) == {"mmap"}
        pool2 = SupervisedPool(
            workload_path, processes=2, index_path=index_path,
            wal_path=wal_path, live_eps=2.0,
        )
        try:
            answers = [pool2.call(r) for r in requests]
        finally:
            assert pool2.close()
        assert set(pool2.index_sources) == {"degraded"}
        assert answers == self.oracle_answers(
            workload_path, wal_path, requests
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_index_build_and_check_roundtrip(
        self, workload_path, tmp_path, capsys
    ):
        out = str(tmp_path / "cli.rlix")
        assert cli_main(["index", "build", workload_path, "--out", out,
                         "--landmarks", "3"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert cli_main(["index", "check", out,
                         "--workload", workload_path]) == 0
        assert "OK" in capsys.readouterr().out
        assert cli_main(["index", "check", out, "--workload",
                         workload_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"] == []

    def test_index_check_flags_corruption_and_staleness(
        self, workload_path, index_path, tmp_path, capsys
    ):
        bad = str(tmp_path / "bad.rlix")
        shutil.copyfile(index_path, bad)
        with open(bad, "r+b") as fh:
            fh.seek(40)
            fh.write(b"\xff")
        assert cli_main(["index", "check", bad]) == 2
        capsys.readouterr()
        # Stale: checked against a different workload.
        rng = random.Random(99)
        other_net = make_random_connected_network(rng, 30, extra_edges=10)
        other = tmp_path / "other.json"
        other.write_text(json.dumps(workload_to_dict(
            other_net, scatter_points(rng, other_net, 5)
        )))
        code = cli_main(["index", "check", index_path,
                         "--workload", str(other)])
        out = capsys.readouterr().out
        assert code == 2 and "stale" in out

    def test_check_store_with_index_section(
        self, workload, index_path, tmp_path, capsys
    ):
        from repro.storage.netstore import NetworkStore

        net, pts = workload
        store_path = str(tmp_path / "store.db")
        NetworkStore.build(store_path, net, pts, page_size=512).close()
        code = cli_main(["check", store_path, "--index", index_path,
                         "--json"])
        doc = json.loads(capsys.readouterr().out)
        # Same graph → same fingerprint: store-built network validates
        # an index built from the in-memory workload.
        assert code == 0
        assert doc["index"]["path"] == index_path
        assert doc["index"]["findings"] == []
        # A corrupted index flips the combined exit code to 2.
        bad = str(tmp_path / "bad.rlix")
        shutil.copyfile(index_path, bad)
        with open(bad, "r+b") as fh:
            fh.seek(10)
            fh.write(b"\xff")
        code = cli_main(["check", store_path, "--index", bad, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["findings"] == []  # the store itself is healthy
        assert any(
            f["severity"] == "error" for f in doc["index"]["findings"]
        )

    def test_serve_with_index_matches_plain(
        self, workload_path, index_path, tmp_path, capsys
    ):
        requests = tmp_path / "req.ldjson"
        requests.write_text(
            '{"op": "knn", "point_id": 0, "k": 3, "id": 1}\n'
            '{"op": "range", "point_id": 1, "eps": 4.0, "id": 2}\n'
        )
        out_plain = tmp_path / "plain.out"
        out_accel = tmp_path / "accel.out"
        assert cli_main(["serve", workload_path,
                         "--input", str(requests),
                         "--output", str(out_plain)]) == 0
        assert cli_main(["serve", workload_path,
                         "--input", str(requests),
                         "--output", str(out_accel),
                         "--index", index_path]) == 0
        assert out_plain.read_text() == out_accel.read_text()
