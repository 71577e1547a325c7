"""Tests for the live-mutation session and its wire surface.

Covers the session contract (validation before logging, idempotent
gap-checked apply, epoch monotonicity, bit-comparable snapshots), the
precise staleness wiring (per-region distance-cache invalidation, index
degrade on reweigh), and the threaded :class:`QueryService` answering the
``mutate`` / ``subscribe_epoch`` / ``snapshot`` ops.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.epslink import EpsLink
from repro.exceptions import (
    Cancelled,
    DeadlineExceeded,
    MutationConflict,
    ParameterError,
    ReplayError,
)
from repro.live import LiveSession, WriteAheadLog
from repro.live.mutate import validate_mutation
from repro.network.augmented import AugmentedView, point_vertex
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet
from repro.network.queries import knn_query, range_query
from repro.perf import DistanceAccelerator, DistanceCache, LandmarkIndex
from repro.serve import LIVE_OPS, QueryService


def make_network() -> SpatialNetwork:
    # A 4-node path plus a chord, long enough that eps=3 clusters locally.
    net = SpatialNetwork()
    for i, (x, y) in enumerate([(0, 0), (10, 0), (20, 0), (30, 0)], start=1):
        net.add_node(i, float(x), float(y))
    net.add_edge(1, 2, 10.0)
    net.add_edge(2, 3, 10.0)
    net.add_edge(3, 4, 10.0)
    net.add_edge(1, 4, 35.0)
    return net


def make_session(tmp_path, *, eps: float = 3.0, name: str = "m.wal"):
    wal = WriteAheadLog(str(tmp_path / name))
    return LiveSession(make_network(), eps=eps, wal=wal)


def insert(u: int, v: int, offset: float, **extra) -> dict:
    return {"kind": "insert_point", "u": u, "v": v, "offset": offset, **extra}


# ----------------------------------------------------------------------
# Validation and conflict detection
# ----------------------------------------------------------------------
class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            validate_mutation({"kind": "teleport_point"})

    def test_not_an_object(self):
        with pytest.raises(ParameterError):
            validate_mutation(["insert_point"])

    def test_negative_offset(self):
        with pytest.raises(ParameterError):
            validate_mutation(insert(1, 2, -0.5))

    def test_non_finite_weight(self):
        with pytest.raises(ParameterError):
            validate_mutation(
                {"kind": "reweigh_edge", "u": 1, "v": 2, "weight": float("inf")}
            )

    def test_zero_weight(self):
        with pytest.raises(ParameterError):
            validate_mutation(
                {"kind": "reweigh_edge", "u": 1, "v": 2, "weight": 0.0}
            )

    def test_bool_is_not_int(self):
        with pytest.raises(ParameterError):
            validate_mutation({"kind": "remove_point", "point_id": True})

    def test_unknown_keys_dropped(self):
        canonical = validate_mutation(insert(1, 2, 1.0, junk="x"))
        assert "junk" not in canonical

    def test_conflict_unknown_edge(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(MutationConflict):
            session.mutate(insert(1, 3, 1.0))
        session.close()

    def test_conflict_offset_beyond_edge(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(MutationConflict):
            session.mutate(insert(1, 2, 11.0))
        session.close()

    def test_conflict_duplicate_point_id(self, tmp_path):
        session = make_session(tmp_path)
        session.mutate(insert(1, 2, 1.0, point_id=7))
        with pytest.raises(MutationConflict):
            session.mutate(insert(2, 3, 1.0, point_id=7))
        session.close()

    def test_conflict_remove_missing(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(MutationConflict):
            session.mutate({"kind": "remove_point", "point_id": 99})
        session.close()

    def test_conflicts_never_reach_the_log(self, tmp_path):
        """A doomed mutation must not be logged: replay applies every
        record unconditionally, so the log may only hold clean applies."""
        session = make_session(tmp_path)
        session.mutate(insert(1, 2, 1.0))
        for doomed in (
            insert(1, 3, 1.0),                       # no such edge
            insert(1, 2, 99.0),                      # offset beyond edge
            {"kind": "remove_point", "point_id": 42},  # no such point
        ):
            with pytest.raises(MutationConflict):
                session.mutate(doomed)
        assert session.wal.last_seq == 1
        assert session.epoch == 1
        session.close()


# ----------------------------------------------------------------------
# The session mutation path
# ----------------------------------------------------------------------
class TestLiveSession:
    def test_mutate_acks_after_log(self, tmp_path):
        session = make_session(tmp_path)
        ack = session.mutate(insert(1, 2, 1.0))
        assert ack["epoch"] == 1
        assert ack["applied"] is True
        assert "point_id" in ack
        assert session.wal.last_seq == 1
        session.close()

    def test_epoch_monotone(self, tmp_path):
        session = make_session(tmp_path)
        epochs = [
            session.mutate(insert(1, 2, float(i)))["epoch"]
            for i in range(1, 5)
        ]
        assert epochs == [1, 2, 3, 4]
        assert session.epoch == 4
        session.close()

    def test_apply_is_idempotent(self, tmp_path):
        session = make_session(tmp_path)
        session.mutate(insert(1, 2, 1.0, point_id=0))
        before = session.snapshot()
        # Re-delivering an already-applied sequence number is a no-op ack.
        ack = session.apply(1, insert(1, 2, 1.0, point_id=0))
        assert ack == {"epoch": 1, "applied": False}
        assert session.snapshot() == before
        session.close()

    def test_apply_gap_raises(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(ReplayError):
            session.apply(3, insert(1, 2, 1.0))
        session.close()

    def test_read_only_wal_cannot_mutate(self, tmp_path):
        writer = make_session(tmp_path)
        writer.mutate(insert(1, 2, 1.0))
        path = writer.wal.path
        writer.close()
        reader = LiveSession(
            make_network(), eps=3.0,
            wal=WriteAheadLog(path, read_only=True),
        )
        with pytest.raises(ParameterError):
            reader.mutate(insert(1, 2, 2.0))
        reader.close()

    def test_replay_reproduces_snapshot(self, tmp_path):
        writer = make_session(tmp_path)
        writer.mutate(insert(1, 2, 1.0))
        writer.mutate(insert(1, 2, 2.0))
        writer.mutate(insert(2, 3, 5.0))
        writer.mutate({"kind": "reweigh_edge", "u": 2, "v": 3, "weight": 4.0})
        writer.mutate({"kind": "remove_point", "point_id": 1})
        expected = writer.snapshot()
        path = writer.wal.path
        writer.close()
        replica = LiveSession(
            make_network(), eps=3.0,
            wal=WriteAheadLog(path, read_only=True),
        )
        assert replica.replay_wal() == 5
        assert replica.snapshot() == expected
        replica.close()

    def test_replay_to_unreachable_epoch_raises(self, tmp_path):
        writer = make_session(tmp_path)
        writer.mutate(insert(1, 2, 1.0))
        path = writer.wal.path
        writer.close()
        replica = LiveSession(
            make_network(), eps=3.0,
            wal=WriteAheadLog(path, read_only=True),
        )
        with pytest.raises(ReplayError):
            replica.replay_wal(to_seq=7)
        replica.close()

    def test_snapshot_matches_scratch_epslink(self, tmp_path):
        session = make_session(tmp_path)
        for i in range(6):
            session.mutate(insert(1 + i % 3, 2 + i % 3, 1.0 + i))
        session.mutate({"kind": "reweigh_edge", "u": 1, "v": 2, "weight": 6.0})
        scratch = EpsLink(session.network, session.points, eps=3.0).run()
        assert session.live.result().same_clustering(scratch)
        session.close()

    def test_deterministic_point_ids_across_replay(self, tmp_path):
        """Auto-assigned ids must be reproduced by replay, or the log's
        later remove_point records would target the wrong objects."""
        writer = make_session(tmp_path)
        first = writer.mutate(insert(1, 2, 1.0))["point_id"]
        second = writer.mutate(insert(2, 3, 1.0))["point_id"]
        writer.mutate({"kind": "remove_point", "point_id": first})
        path = writer.wal.path
        expected = writer.snapshot()
        writer.close()
        replica = LiveSession(
            make_network(), eps=3.0,
            wal=WriteAheadLog(path, read_only=True),
        )
        replica.replay_wal()
        assert replica.snapshot() == expected
        assert sorted(replica.points.point_ids()) == [second]
        replica.close()

    def test_mutations_since(self, tmp_path):
        session = make_session(tmp_path)
        for i in range(3):
            session.mutate(insert(1, 2, float(i)))
        tail = session.mutations_since(1)
        assert [seq for seq, _ in tail] == [2, 3]
        session.close()

    def test_wait_for_epoch_returns_when_ahead(self, tmp_path):
        session = make_session(tmp_path)
        session.mutate(insert(1, 2, 1.0))
        assert session.wait_for_epoch(0) == {"epoch": 1, "changed": True}
        session.close()

    def test_wait_for_epoch_timeout(self, tmp_path):
        session = make_session(tmp_path)
        with pytest.raises(DeadlineExceeded):
            session.wait_for_epoch(0, timeout_s=0.05)
        session.close()

    def test_wait_for_epoch_woken_by_mutation(self, tmp_path):
        session = make_session(tmp_path)
        seen = {}

        def waiter():
            seen["result"] = session.wait_for_epoch(0, timeout_s=5.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        session.mutate(insert(1, 2, 1.0))
        thread.join(timeout=5.0)
        assert seen["result"]["epoch"] == 1
        session.close()

    def test_shutdown_cancels_waiters(self, tmp_path):
        session = make_session(tmp_path)
        session.shutdown()
        with pytest.raises(Cancelled):
            session.wait_for_epoch(0, timeout_s=5.0)
        session.close()

    def test_stats_document(self, tmp_path):
        session = make_session(tmp_path)
        session.mutate(insert(1, 2, 1.0))
        doc = session.stats()
        assert doc["epoch"] == 1
        assert doc["wal"]["last_seq"] == 1
        assert doc["wal"]["appended"] == 1
        assert doc["wal"]["path"] == session.wal.path
        session.close()


# ----------------------------------------------------------------------
# Precise staleness: per-object point vectors, reweigh degrade
# ----------------------------------------------------------------------
class TestPreciseInvalidation:
    def attach_cache(self, session) -> DistanceCache:
        aug = AugmentedView(session.network, session.points)
        cache = DistanceCache(1.0)
        # The view holds its accelerator's hook weakly: keep it alive.
        self.accel = DistanceAccelerator(aug, cache=cache)
        session.attach(aug)
        return cache

    def attach_accelerator(self, session, ids) -> DistanceAccelerator:
        """An attached accelerator with the point vectors of ``ids`` warm."""
        aug = AugmentedView(session.network, session.points)
        accel = DistanceAccelerator(aug, index=LandmarkIndex(session.network, 2))
        session.attach(aug)
        for pid in ids:
            accel.point_vector(session.points.get(pid))
        return accel

    def test_point_mutation_keeps_unaffected_pairs(self, tmp_path):
        session = make_session(tmp_path)
        a = session.mutate(insert(1, 2, 1.0))["point_id"]
        b = session.mutate(insert(2, 3, 1.0))["point_id"]
        accel = self.attach_accelerator(session, (a, b))
        # A third point appears elsewhere: the landmark vectors of a and b
        # are provably unchanged and must survive the invalidation.
        session.mutate(insert(3, 4, 1.0))
        assert set(accel._point_vectors) == {a, b}
        for pid in (a, b):
            assert accel._point_vectors[pid] == accel.index.point_vector(
                session.points.get(pid)
            )
        session.close()

    def test_removal_drops_touching_pairs(self, tmp_path):
        session = make_session(tmp_path)
        a = session.mutate(insert(1, 2, 1.0))["point_id"]
        b = session.mutate(insert(2, 3, 1.0))["point_id"]
        c = session.mutate(insert(3, 4, 1.0))["point_id"]
        accel = self.attach_accelerator(session, (a, b, c))
        session.mutate({"kind": "remove_point", "point_id": c})
        assert set(accel._point_vectors) == {a, b}
        session.close()

    def test_result_set_entries_dropped_conservatively(self, tmp_path):
        session = make_session(tmp_path)
        a = session.mutate(insert(1, 2, 1.0))["point_id"]
        cache = self.attach_cache(session)
        cache.put(("range", a, 2.0), [(a, 0.0)])
        # Any insertion can add a member to any cached result set.
        session.mutate(insert(3, 4, 1.0))
        assert cache.get(("range", a, 2.0)) is None
        session.close()

    def test_reweigh_clears_everything(self, tmp_path):
        session = make_session(tmp_path)
        a = session.mutate(insert(1, 2, 1.0))["point_id"]
        b = session.mutate(insert(2, 3, 1.0))["point_id"]
        cache = self.attach_cache(session)
        cache.put(("knn", a, b, False), [(b, 10.0)])
        session.mutate({"kind": "reweigh_edge", "u": 3, "v": 4, "weight": 9.0})
        assert cache.get(("knn", a, b, False)) is None
        session.close()

    def test_reweigh_hooks_fire_only_on_reweigh(self, tmp_path):
        session = make_session(tmp_path)
        calls: list[tuple[int, int]] = []
        session.add_reweigh_hook(lambda u, v: calls.append((u, v)))
        session.mutate(insert(1, 2, 1.0))
        assert calls == []
        session.mutate({"kind": "reweigh_edge", "u": 1, "v": 2, "weight": 8.0})
        assert calls == [(1, 2)]
        session.close()


# ----------------------------------------------------------------------
# Satellite: invalidation hooks all run, first error re-raised
# ----------------------------------------------------------------------
class TestInvalidateHookDispatch:
    def make_view(self) -> AugmentedView:
        net = make_network()
        return AugmentedView(net, PointSet(net))

    def test_raising_hook_does_not_starve_later_hooks(self):
        aug = self.make_view()
        calls: list[str] = []

        def ok_first(point_ids, reweigh):
            calls.append("first")

        def boom(point_ids, reweigh):
            calls.append("boom")
            raise RuntimeError("stand-in hook failure")

        def ok_last(point_ids, reweigh):
            calls.append("last")

        aug.add_invalidation_hook(ok_first)
        aug.add_invalidation_hook(boom)
        aug.add_invalidation_hook(ok_last)
        with pytest.raises(RuntimeError, match="stand-in hook failure"):
            aug.invalidate()
        assert calls == ["first", "boom", "last"]

    def test_first_error_wins(self):
        aug = self.make_view()

        def boom_a(point_ids, reweigh):
            raise RuntimeError("error A")

        def boom_b(point_ids, reweigh):
            raise ValueError("error B")

        aug.add_invalidation_hook(boom_a)
        aug.add_invalidation_hook(boom_b)
        with pytest.raises(RuntimeError, match="error A"):
            aug.invalidate()

    def test_invalidate_passes_what_changed(self):
        aug = self.make_view()
        calls: list = []
        aug.add_invalidation_hook(
            lambda point_ids, reweigh: calls.append((point_ids, reweigh))
        )
        aug.invalidate((7,))
        aug.invalidate(None, reweigh=True)
        aug.invalidate()
        assert calls == [((7,), False), (None, True), (None, False)]
        # A mutation nobody announced: the version auto-check cannot
        # know which objects changed.
        p = aug.points.add(1, 2, 1.0)
        aug.points.add(1, 2, 2.0)
        list(aug.neighbors(point_vertex(p.point_id)))
        assert calls[3:] == [(None, False)]


# ----------------------------------------------------------------------
# Every mutation kind reaches the accelerator as (what changed, reweigh)
# ----------------------------------------------------------------------
#: Objects on edge (1, 2) are one chain (1.0 apart); those on (2, 3) are a
#: chain whose middle object is the only link between its ends.
CHAIN = (1.0, 2.0, 3.0, 4.0, 5.0)
BRIDGED = (1.0, 3.5, 6.0)


class TestMutationInvalidation:
    """Each apply invalidates the attached view with exactly what
    changed: the inserted or removed object, or ``(None, True)`` for a
    reweigh.  Everything the accelerator keeps is still exact: an insert
    keeps every point vector, a remove drops only the removed object's,
    both clear the cached results (any of them can gain or lose the
    object), and a reweigh drops the landmark index and every memo."""

    @pytest.mark.parametrize("kind", [
        "insert-joins", "remove-split", "remove-no-split", "reweigh",
    ])
    def test_surviving_entries_equal_cold_recomputation(self, tmp_path,
                                                         kind):
        session = make_session(tmp_path)
        chain = [session.mutate(insert(1, 2, off))["point_id"]
                 for off in CHAIN]
        bridged = [session.mutate(insert(2, 3, off))["point_id"]
                   for off in BRIDGED]
        ids = chain + bridged
        ids += [session.mutate(insert(u, v, 4.0))["point_id"]
                for u, v in ((3, 4), (1, 4))]
        aug = AugmentedView(session.network, session.points)
        accel = DistanceAccelerator(
            aug, index=LandmarkIndex(session.network, 2), cache=DistanceCache(1.0)
        )
        seen: list = []
        aug.add_invalidation_hook(
            lambda point_ids, reweigh: seen.append((point_ids, reweigh))
        )
        session.attach(aug)
        points = [session.points.get(pid) for pid in ids]
        for p in points:
            accel.range_query(p, 3.0)
            accel.knn_query(p, 3)
        assert set(accel._point_vectors) == set(ids)
        assert len(accel.cache) == 2 * len(ids)
        clusters = session.live.num_clusters

        gone = None
        if kind == "insert-joins":
            ack = session.mutate(insert(1, 2, 5.5))
            assert seen == [((ack["point_id"],), False)]
            assert session.live.num_clusters == clusters
        elif kind == "reweigh":
            session.mutate({"kind": "reweigh_edge", "u": 2, "v": 3,
                            "weight": 12.0})
            assert seen == [(None, True)]
        else:
            gone = bridged[1] if kind == "remove-split" else chain[2]
            session.mutate({"kind": "remove_point", "point_id": gone})
            assert seen == [((gone,), False)]
            assert session.live.num_clusters == clusters + (
                kind == "remove-split"
            )

        cold = AugmentedView(session.network, session.points)
        assert len(accel.cache) == 0
        survivors = [pid for pid in ids if pid != gone]
        if kind == "reweigh":
            assert accel.index is None
            assert accel._point_vectors == {}
        else:
            assert accel.index is not None
            vectors = accel._point_vectors
            assert set(vectors) == set(survivors)
            for pid, vector in vectors.items():
                assert vector == accel.index.point_vector(
                    session.points.get(pid)
                )
        # Objects on a reweighed edge were re-placed.
        for pid in survivors:
            p = session.points.get(pid)
            assert accel.range_query(p, 3.0) == range_query(cold, p, 3.0)
            assert accel.knn_query(p, 3) == knn_query(cold, p, 3)
        session.close()


# ----------------------------------------------------------------------
# The threaded QueryService live surface
# ----------------------------------------------------------------------
class TestQueryServiceLive:
    def make_service(self, tmp_path, **kwargs):
        wal = WriteAheadLog(str(tmp_path / "svc.wal"))
        net = make_network()
        session = LiveSession(net, eps=3.0, wal=wal)
        svc = QueryService(
            net, session.points, workers=2, session=session, **kwargs
        )
        return svc, session

    def test_live_ops_refused_without_session(self):
        net = make_network()
        with QueryService(net, PointSet(net), workers=1) as svc:
            for op in sorted(LIVE_OPS):
                with pytest.raises(ParameterError):
                    svc.call({"op": op, "mutation": insert(1, 2, 1.0)})

    def test_mutate_snapshot_subscribe(self, tmp_path):
        svc, session = self.make_service(tmp_path)
        try:
            ack = svc.call({"op": "mutate", "mutation": insert(1, 2, 1.0)})
            assert ack["epoch"] == 1 and ack["applied"] is True
            snap = svc.call({"op": "snapshot"})
            assert snap["epoch"] == 1
            assert snap["num_points"] == 1
            sub = svc.call({"op": "subscribe_epoch", "from_epoch": 0})
            assert sub == {"epoch": 1, "changed": True}
        finally:
            svc.close()
            session.close()

    def test_subscribe_epoch_deadline(self, tmp_path):
        svc, session = self.make_service(tmp_path)
        try:
            with pytest.raises(DeadlineExceeded):
                svc.call({
                    "op": "subscribe_epoch", "from_epoch": 0,
                    "timeout_ms": 50,
                })
        finally:
            svc.close()
            session.close()

    def test_subscribe_epoch_bad_from_epoch(self, tmp_path):
        svc, session = self.make_service(tmp_path)
        try:
            with pytest.raises(ParameterError):
                svc.call({"op": "subscribe_epoch", "from_epoch": "zero"})
        finally:
            svc.close()
            session.close()

    def test_queries_see_mutations(self, tmp_path):
        svc, session = self.make_service(tmp_path)
        try:
            a = svc.call(
                {"op": "mutate", "mutation": insert(1, 2, 1.0)}
            )["point_id"]
            svc.call({"op": "mutate", "mutation": insert(1, 2, 2.0)})
            hits = svc.call({"op": "range", "point_id": a, "eps": 2.0})
            assert sorted(pid for pid, _ in hits) == [0, 1]
        finally:
            svc.close()
            session.close()

    def test_stats_carries_epoch_and_wal_health(self, tmp_path):
        svc, session = self.make_service(tmp_path)
        try:
            svc.call({"op": "mutate", "mutation": insert(1, 2, 1.0)})
            stats = svc.call({"op": "stats"})
            assert stats["epoch"] == 1
            assert stats["wal"]["last_seq"] == 1
            assert stats["gauges"].get("serve.epoch") == 1
        finally:
            svc.close()
            session.close()

    def test_reweigh_degrades_built_index(self, tmp_path):
        svc, session = self.make_service(tmp_path, landmarks=2)
        try:
            assert svc.index_source == "built"
            a = svc.call(
                {"op": "mutate", "mutation": insert(1, 2, 1.0)}
            )["point_id"]
            svc.call({"op": "mutate", "mutation": insert(2, 3, 5.0)})
            svc.call({
                "op": "mutate",
                "mutation": {
                    "kind": "reweigh_edge", "u": 2, "v": 3, "weight": 5.0,
                },
            })
            assert svc.index_source == "degraded"
            assert svc.index_degrade_reason is not None
            # Still serving, bit-identical to the plain path.
            hits = svc.call({"op": "knn", "point_id": a, "k": 2})
            plain = QueryService(session.network, session.points, workers=1)
            try:
                assert hits == plain.call(
                    {"op": "knn", "point_id": a, "k": 2}
                )
            finally:
                plain.close()
        finally:
            svc.close()
            session.close()

    def test_reweigh_drops_index_on_every_worker(self, tmp_path):
        """The reweigh reaches every worker thread's accelerator through
        its view before the ack, idle threads included: none holds the
        closed index until its next request."""
        svc, session = self.make_service(tmp_path, landmarks=2)
        try:
            ids = [
                svc.call({"op": "mutate", "mutation": insert(u, v, off)})[
                    "point_id"
                ]
                for u, v, off in ((1, 2, 1.0), (2, 3, 5.0), (3, 4, 2.0),
                                  (1, 4, 9.0))
            ]
            # Each worker thread attaches its view when it starts.
            deadline = time.monotonic() + 10.0
            while len(session._views) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            # Both execution contexts, taken off the free queue and put back.
            contexts = [svc._contexts.get(timeout=10.0) for _ in range(2)]
            for ctx in contexts:
                svc._contexts.put(ctx)
            accels = [ctx.accel for ctx in contexts]
            assert {id(ctx.aug) for ctx in contexts} == {
                id(aug) for aug in session._views
            }
            assert all(accel.index is not None for accel in accels)
            svc.call({
                "op": "mutate",
                "mutation": {
                    "kind": "reweigh_edge", "u": 2, "v": 3, "weight": 7.0,
                },
            })
            assert [accel.index for accel in accels] == [None, None]
            plain = QueryService(session.network, session.points, workers=1)
            try:
                for pid in ids:
                    request = {"op": "knn", "point_id": pid, "k": 2}
                    assert svc.call(request) == plain.call(request)
            finally:
                plain.close()
        finally:
            svc.close()
            session.close()

    def test_no_deadline_subscribers_do_not_starve_the_pool(self, tmp_path):
        """Parked subscribers must not occupy pool workers: with every
        worker thread blocked in a no-deadline wait, the mutate that
        would advance the epoch could never be dequeued — permanent
        deadlock.  Subscriptions ride a dedicated waiter thread instead."""
        svc, session = self.make_service(tmp_path)  # workers=2
        try:
            subs = [
                svc.submit({"op": "subscribe_epoch", "from_epoch": 0})
                for _ in range(4)
            ]
            ack = svc.call({"op": "mutate", "mutation": insert(1, 2, 1.0)},
                           timeout_s=10.0)
            assert ack["epoch"] == 1
            for future in subs:
                assert future.result(timeout=10.0) == {
                    "epoch": 1, "changed": True,
                }
        finally:
            svc.close()
            session.close()

    def test_close_cancels_parked_subscribers(self, tmp_path):
        svc, session = self.make_service(tmp_path)
        future = svc.submit({"op": "subscribe_epoch", "from_epoch": 0})
        svc.close()
        session.close()
        with pytest.raises(Cancelled):
            future.result(timeout=5.0)
