"""Tests for repro.resilience: deadlines, cancellation, breakers, delay faults.

The contract under test (see ``docs/resilience.md``): a run that exceeds
its deadline or is cancelled stops at a cooperative checkpoint with a typed
interrupt, leaves any periodic snapshot intact so ``--resume`` completes it
identically, and a circuit breaker on the storage read path converts
persistent I/O failure into fast typed rejections instead of per-page
retry grinds.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import faults, obs
from repro.cli import main
from repro.exceptions import (
    BudgetExceededError,
    Cancelled,
    CircuitOpenError,
    DeadlineExceeded,
    Interrupted,
    ParameterError,
)
from repro.faults import FaultRule, InjectedIOError
from repro.network.augmented import AugmentedView
from repro.network.dijkstra import single_source, single_source_with_paths
from repro.network.graph import SpatialNetwork
from repro.network.points import PointSet
from repro.network.queries import knn_query, range_query
from repro.recovery import RetryPolicy, retrying
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CancelToken,
    CircuitBreaker,
    Deadline,
    TickingClock,
    VirtualClock,
    breaking,
)
from repro.resilience.deadline import STATE, check, current
from repro.storage.pager import PagedFile
from tests.test_checkpoint_resume import MAKERS, _Capture, _same, _workload


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()
    assert STATE.engaged == 0, "a deadline activation leaked"


@pytest.fixture(scope="module")
def workload():
    return _workload()


@pytest.fixture(scope="module")
def baselines(workload):
    net, pts = workload
    return {name: make(net, pts).run() for name, make in MAKERS.items()}


def line_network(n: int = 12) -> tuple[SpatialNetwork, PointSet]:
    net = SpatialNetwork()
    for i in range(n):
        net.add_node(i)
    for i in range(n - 1):
        net.add_edge(i, i + 1, 1.0)
    pts = PointSet(net)
    for i in range(n - 1):
        pts.add(i, i + 1, 0.5, point_id=i)
    return net, pts


# ----------------------------------------------------------------------
# Deterministic clocks
# ----------------------------------------------------------------------
class TestClocks:
    def test_virtual_clock_advances(self):
        vc = VirtualClock()
        assert vc.monotonic() == 0.0
        vc.advance(1.5)
        assert vc.monotonic() == 1.5
        vc.sleep(0.5)
        assert vc.monotonic() == 2.0

    def test_virtual_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_ticking_clock_steps_per_read(self):
        tc = TickingClock(step=2.0, start=10.0)
        assert tc.monotonic() == 12.0
        assert tc() == 14.0
        assert tc.reads == 2


# ----------------------------------------------------------------------
# CancelToken
# ----------------------------------------------------------------------
class TestCancelToken:
    def test_first_cancel_wins(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.cancel("operator request")
        assert not token.cancel("too late")
        assert token.cancelled
        assert token.reason == "operator request"

    def test_raise_if_cancelled(self):
        token = CancelToken()
        token.raise_if_cancelled("site.x")  # not tripped: no-op
        token.cancel("shutdown")
        with pytest.raises(Cancelled) as exc:
            token.raise_if_cancelled("site.x", partial={"done": 3})
        assert "shutdown" in str(exc.value)
        assert exc.value.partial == {"done": 3}


# ----------------------------------------------------------------------
# Deadline semantics
# ----------------------------------------------------------------------
class TestDeadline:
    def test_negative_timeout_rejected(self):
        with pytest.raises(ParameterError):
            Deadline(-0.1)

    def test_no_limit_never_expires(self):
        vc = VirtualClock()
        d = Deadline(None, clock=vc.monotonic)
        vc.advance(1e9)
        assert not d.expired()
        assert d.remaining() == float("inf")
        d.check("site.a")
        assert d.checks == 1

    def test_expiry_is_clock_driven(self):
        vc = VirtualClock()
        d = Deadline(5.0, clock=vc.monotonic)
        d.check("site.a")
        vc.advance(4.999)
        d.check("site.a")
        assert not d.expired()
        vc.advance(0.001)
        with pytest.raises(DeadlineExceeded) as exc:
            d.check("site.a", partial=[1, 2])
        err = exc.value
        assert err.site == "site.a"
        assert err.timeout_s == 5.0
        assert err.elapsed_s >= 5.0
        assert err.checks == 3
        assert err.partial == [1, 2]

    def test_zero_timeout_expires_at_first_check(self):
        d = Deadline(0.0)
        with pytest.raises(DeadlineExceeded):
            d.check("site.a")

    def test_cancel_beats_expiry(self):
        vc = VirtualClock()
        d = Deadline(5.0, clock=vc.monotonic)
        vc.advance(10.0)  # both expired AND cancelled: cancel reported first
        d.cancel("user hit ^C")
        with pytest.raises(Cancelled):
            d.check("site.a")

    def test_ticking_clock_expires_at_exact_check(self):
        # One clock read at construction, one per check: expires at check N.
        n = 7
        d = Deadline(float(n), clock=TickingClock())
        for _ in range(n - 1):
            d.check("site.a")
        with pytest.raises(DeadlineExceeded) as exc:
            d.check("site.a")
        assert exc.value.checks == n

    def test_activation_arms_and_restores(self):
        assert STATE.engaged == 0
        assert current() is None
        check("site.a")  # disarmed: free no-op
        outer = Deadline(None)
        inner = Deadline(None)
        with outer.activate():
            assert STATE.engaged == 1
            assert current() is outer
            with inner.activate():
                assert STATE.engaged == 2
                assert current() is inner
                check("site.b")
                assert inner.checks == 1 and outer.checks == 0
            assert current() is outer
        assert STATE.engaged == 0
        assert current() is None

    def test_interrupt_taxonomy(self):
        assert issubclass(DeadlineExceeded, Interrupted)
        assert issubclass(Cancelled, Interrupted)
        assert issubclass(BudgetExceededError, Interrupted)

    def test_obs_counters(self):
        obs.reset()
        obs.enable()
        try:
            with pytest.raises(DeadlineExceeded):
                Deadline(0.0).check("s")
            d = Deadline(None)
            d.cancel("x")
            with pytest.raises(Cancelled):
                d.check("s")
            counters = obs.snapshot()["counters"]
            assert counters.get("resilience.deadline_exceeded") == 1
            assert counters.get("resilience.cancelled") == 1
        finally:
            obs.disable()
            obs.reset()


# ----------------------------------------------------------------------
# Deadline wired through the traversals
# ----------------------------------------------------------------------
class TestDeadlineInTraversals:
    def test_dijkstra_interrupted_with_partial(self):
        net, _ = line_network(12)
        with Deadline(4.0, clock=TickingClock()).activate():
            with pytest.raises(DeadlineExceeded) as exc:
                single_source(net, 0)
        partial = exc.value.partial
        assert isinstance(partial, dict) and 0 < len(partial) < 12

    def test_dijkstra_with_paths_interrupted(self):
        net, _ = line_network(12)
        with Deadline(3.0, clock=TickingClock()).activate():
            with pytest.raises(DeadlineExceeded):
                single_source_with_paths(net, 0)

    def test_queries_interrupted(self):
        net, pts = line_network(12)
        aug = AugmentedView(net, pts)
        anchor = pts.get(0)
        with Deadline(2.0, clock=TickingClock()).activate():
            with pytest.raises(DeadlineExceeded) as exc:
                range_query(aug, anchor, 100.0)
        assert exc.value.site == "queries.settle"
        with Deadline(2.0, clock=TickingClock()).activate():
            with pytest.raises(DeadlineExceeded):
                knn_query(aug, anchor, 5)

    def test_disarmed_results_unchanged(self):
        net, pts = line_network(12)
        plain = single_source(net, 0)
        with Deadline(None).activate():
            armed = single_source(net, 0)
        assert plain == armed

    def test_cancel_from_outside(self):
        net, _ = line_network(12)
        d = Deadline(None)
        d.cancel("test says stop")
        with d.activate():
            with pytest.raises(Cancelled) as exc:
                single_source(net, 0)
        assert "test says stop" in str(exc.value)


# ----------------------------------------------------------------------
# Deadline through the clustering algorithms
# ----------------------------------------------------------------------
class TestDeadlineInAlgorithms:
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_unmeetable_deadline_interrupts_and_tags(self, name, workload):
        net, pts = workload
        algo = MAKERS[name](net, pts)
        algo.deadline = Deadline(0.0)
        with pytest.raises(DeadlineExceeded) as exc:
            algo.run()
        assert exc.value.algorithm == algo.algorithm_name
        assert exc.value.checks == 1

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_generous_deadline_does_not_perturb(self, name, workload, baselines):
        net, pts = workload
        algo = MAKERS[name](net, pts)
        algo.deadline = Deadline(3600.0)
        assert _same(baselines[name], algo.run())
        assert algo.deadline.checks > 0, f"{name} hit no cooperative checks"


class TestDeadlineResume:
    """Interrupt at arbitrary cooperative checks; resume must be identical."""

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_interrupt_anywhere_then_resume_identical(
        self, name, workload, baselines
    ):
        net, pts = workload
        # Size the sweep: total cooperative checks of an uninterrupted run.
        counter = MAKERS[name](net, pts)
        counter.deadline = Deadline(None)
        assert _same(baselines[name], counter.run())
        total = counter.deadline.checks
        assert total > 0, f"{name} never reached a cooperative check"
        sweep = sorted({1, total // 3, (2 * total) // 3, total - 1} - {0})
        for at in sweep:
            algo = MAKERS[name](net, pts)
            # TickingClock: the deadline expires at exactly check `at`.
            algo.deadline = Deadline(float(at), clock=TickingClock())
            cap = _Capture()
            algo.checkpoint = cap
            with pytest.raises(DeadlineExceeded):
                algo.run()
            resumed = MAKERS[name](net, pts)
            if cap.states:
                resumed.resume_from(cap.states[-1])
            # else: interrupted before the first snapshot — fresh run IS
            # the correct resume.
            assert _same(baselines[name], resumed.run()), (
                f"{name} diverged after interrupt at check {at}/{total}"
            )


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_parameters_validated(self):
        with pytest.raises(ParameterError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ParameterError):
            CircuitBreaker(reset_timeout_s=-1.0)
        with pytest.raises(ParameterError):
            CircuitBreaker(half_open_probes=0)

    def test_trip_reject_halfopen_close_cycle(self):
        vc = VirtualClock()
        br = CircuitBreaker(
            failure_threshold=3, reset_timeout_s=10.0, clock=vc.monotonic
        )
        assert br.state == CLOSED
        for _ in range(2):
            br.record_failure()
        assert br.state == CLOSED  # below threshold
        br.record_failure()
        assert br.state == OPEN
        assert br.trips == 1
        with pytest.raises(CircuitOpenError) as exc:
            br.allow("pager.read_page")
        assert br.rejections == 1
        assert 0 < exc.value.retry_after_s <= 10.0
        vc.advance(10.0)
        assert br.state == HALF_OPEN
        br.allow("pager.read_page")  # the single probe slot
        with pytest.raises(CircuitOpenError):
            br.allow("pager.read_page")  # probes exhausted
        br.record_success()
        assert br.state == CLOSED
        br.allow("pager.read_page")  # closed again: flows freely

    def test_halfopen_probe_failure_reopens(self):
        vc = VirtualClock()
        br = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=5.0, clock=vc.monotonic
        )
        br.record_failure()
        assert br.state == OPEN
        vc.advance(5.0)
        assert br.state == HALF_OPEN
        br.allow("x")
        br.record_failure()
        assert br.state == OPEN
        assert br.trips == 2

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(failure_threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == CLOSED  # never 2 *consecutive* failures

    def test_call_classifies_failures(self):
        br = CircuitBreaker(failure_threshold=1, reset_timeout_s=1e9)

        def boom():
            raise ParameterError("not a dependency failure")

        with pytest.raises(ParameterError):
            br.call("x", boom)
        assert br.state == CLOSED  # uncounted

        def io_boom():
            raise OSError("disk died")

        with pytest.raises(OSError):
            br.call("x", io_boom)
        assert br.state == OPEN

    def test_uncounted_exception_releases_probe_slot(self):
        vc = VirtualClock()
        br = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=vc.monotonic
        )
        br.record_failure()
        vc.advance(1.0)
        assert br.state == HALF_OPEN

        def boom():
            raise ParameterError("probe aborted for unrelated reasons")

        with pytest.raises(ParameterError):
            br.call("x", boom)
        # The slot must be free again or the breaker wedges half-open.
        assert br.call("x", lambda: 42) == 42
        assert br.state == CLOSED

    def test_allow_reports_probe_admission(self):
        vc = VirtualClock()
        br = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=vc.monotonic
        )
        assert br.allow("x") is False  # closed: no probe slot held
        br.record_failure()
        vc.advance(1.0)
        assert br.allow("x") is True  # half-open: took the probe slot

    def test_closed_admission_cannot_free_anothers_probe_slot(self):
        """A call admitted while CLOSED that fails with an uncounted
        exception after the breaker half-opened must not release the slot
        a real probe is holding (that would over-admit probes)."""
        vc = VirtualClock()
        br = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=vc.monotonic
        )
        started = threading.Event()
        release = threading.Event()
        outcome: list[BaseException] = []

        def slow_then_interrupted():
            started.set()
            assert release.wait(10)
            raise ParameterError("uncounted: not a dependency failure")

        def closed_caller():
            try:
                br.call("x", slow_then_interrupted)
            except BaseException as exc:
                outcome.append(exc)

        t = threading.Thread(target=closed_caller, daemon=True)
        t.start()
        assert started.wait(10)  # admitted while CLOSED
        br.record_failure()  # trips open behind its back
        vc.advance(1.0)
        assert br.state == HALF_OPEN
        assert br.allow("probe") is True  # the one probe slot is now held
        release.set()
        t.join(10)
        assert isinstance(outcome[0], ParameterError)
        # The probe slot must still be occupied by the real probe.
        with pytest.raises(CircuitOpenError):
            br.allow("x")

    def test_obs_counters(self):
        obs.reset()
        obs.enable()
        try:
            vc = VirtualClock()
            br = CircuitBreaker(
                failure_threshold=1, reset_timeout_s=1.0, clock=vc.monotonic
            )
            br.record_failure()  # trip
            with pytest.raises(CircuitOpenError):
                br.allow("x")
            vc.advance(1.0)
            br.allow("x")  # half-open probe
            br.record_success()  # close
            counters = obs.snapshot()["counters"]
            assert counters.get("breaker.trips") == 1
            assert counters.get("breaker.rejections") == 1
            assert counters.get("breaker.half_opens") == 1
            assert counters.get("breaker.closes") == 1
            assert counters.get("breaker.failures") == 1
            assert counters.get("breaker.transitions.open") == 1
            assert counters.get("breaker.transitions.closed") == 1
        finally:
            obs.disable()
            obs.reset()


# ----------------------------------------------------------------------
# Breaker on the pager read path
# ----------------------------------------------------------------------
def _paged_file(tmp_path, pages: int = 4) -> PagedFile:
    pf = PagedFile(tmp_path / "data.pag", page_size=512)
    for i in range(pages):
        pid = pf.allocate()
        pf.write_page(pid, bytes([i]) * 16)
    pf.commit()
    return pf


class TestBreakerOnPager:
    def test_persistent_fault_trips_then_fails_fast(self, tmp_path):
        pf = _paged_file(tmp_path)
        vc = VirtualClock()
        br = CircuitBreaker(
            failure_threshold=3, reset_timeout_s=60.0, clock=vc.monotonic
        )
        rule = FaultRule(
            "pager.read_page", "error", probability=1.0, times=None,
            transient=True,
        )
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, sleep=vc.sleep)
        with faults.plan(rule), retrying(policy), breaking(br):
            # The tripping call itself surfaces CircuitOpen: the breaker
            # opens mid-retry and CircuitOpenError is not retryable.
            with pytest.raises(CircuitOpenError):
                pf.read_page(1)
            assert br.state == OPEN
            assert rule.fired == 3  # threshold attempts, not 5
            # Every later read fails fast without touching the store.
            with pytest.raises(CircuitOpenError):
                pf.read_page(2)
            assert rule.fired == 3
        pf.close()

    def test_recovery_closes_breaker(self, tmp_path):
        pf = _paged_file(tmp_path)
        vc = VirtualClock()
        br = CircuitBreaker(
            failure_threshold=2, reset_timeout_s=30.0, clock=vc.monotonic
        )
        rule = FaultRule(
            "pager.read_page", "error", probability=1.0, times=2,
            transient=True,
        )
        with faults.plan(rule), breaking(br):
            with pytest.raises(InjectedIOError):
                pf.read_page(1)
            with pytest.raises(InjectedIOError):
                pf.read_page(1)
            assert br.state == OPEN
            vc.advance(30.0)  # cool-down: the fault plan is exhausted now
            assert pf.read_page(1)[:16] == bytes([0]) * 16
            assert br.state == CLOSED
        pf.close()

    def test_disarmed_breaker_leaves_reads_alone(self, tmp_path):
        pf = _paged_file(tmp_path)
        assert pf.read_page(1)[:16] == bytes([0]) * 16
        pf.close()


# ----------------------------------------------------------------------
# The `delay` fault kind
# ----------------------------------------------------------------------
class TestDelayFault:
    def test_delay_kind_validated(self):
        with pytest.raises(ValueError):
            FaultRule("x", "delay", after=1)  # delay_s required
        with pytest.raises(ValueError):
            FaultRule("x", "delay", after=1, delay_s=-0.5)
        with pytest.raises(ValueError):
            FaultRule("x", "error", after=1, delay_s=1.0)  # wrong kind

    def test_delay_sleeps_and_continues(self):
        vc = VirtualClock()
        rule = FaultRule("s", "delay", probability=1.0, times=None, delay_s=0.25)
        with faults.plan(rule, sleep=vc.sleep):
            faults.fire("s")  # stalls, does not raise
            faults.fire("s")
        assert vc.monotonic() == 0.5
        assert rule.fired == 2

    def test_delay_composes_with_error_rules(self):
        vc = VirtualClock()
        with faults.plan(
            FaultRule("s", "delay", after=1, delay_s=1.0),
            FaultRule("s", "error", after=1),
            sleep=vc.sleep,
        ):
            with pytest.raises(InjectedIOError):
                faults.fire("s")  # slow AND failing: both rules apply
        assert vc.monotonic() == 1.0

    def test_plan_restores_sleep(self):
        import time as _time

        saved = faults.STATE.sleep
        vc = VirtualClock()
        with faults.plan(sleep=vc.sleep):
            assert faults.STATE.sleep == vc.sleep
        assert faults.STATE.sleep is saved is _time.sleep

    def test_delay_makes_deadline_expire(self):
        """Injected latency is observed by the next cooperative check."""
        vc = VirtualClock()
        net, _ = line_network(6)
        rule = FaultRule("dijkstra.settle", "delay", after=1, delay_s=9.0)
        with faults.plan(rule, sleep=vc.sleep):
            with Deadline(5.0, clock=vc.monotonic).activate():
                with pytest.raises(DeadlineExceeded):
                    single_source(net, 0)


# ----------------------------------------------------------------------
# CLI: --timeout-ms -> exit 3 -> resume
# ----------------------------------------------------------------------
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


class TestCLITimeout:
    ARGS = ["--algorithm", "k-medoids", "--k", "4", "--seed", "0"]

    def test_unmeetable_deadline_exits_3_then_resume(
        self, cli_workload, tmp_path, capsys
    ):
        full = tmp_path / "full.json"
        assert main([
            "cluster", str(cli_workload), *self.ARGS, "--out", str(full),
        ]) == 0
        ckpt = tmp_path / "run.ckpt"
        aborted = tmp_path / "aborted.json"
        code = main([
            "cluster", str(cli_workload), *self.ARGS, "--out", str(aborted),
            "--timeout-ms", "0", "--checkpoint", str(ckpt),
            "--checkpoint-every", "1",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "deadline exceeded" in err
        assert not aborted.exists()
        resumed = tmp_path / "resumed.json"
        assert main([
            "cluster", str(cli_workload), *self.ARGS, "--out", str(resumed),
            "--resume", str(ckpt),
        ]) == 0
        assert _result_doc(full) == _result_doc(resumed)

    def test_generous_deadline_completes(self, cli_workload, tmp_path):
        out = tmp_path / "out.json"
        assert main([
            "cluster", str(cli_workload), *self.ARGS, "--out", str(out),
            "--timeout-ms", "3600000",
        ]) == 0
        assert out.exists()
