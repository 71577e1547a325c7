"""Common base class for the network clustering algorithms."""

from __future__ import annotations

import time
from contextlib import ExitStack

from repro.core.degrade import analyze_connectivity
from repro.exceptions import Interrupted, ParameterError
from repro.network.interface import resolve_backend
from repro.network.points import PointSet
from repro.obs.core import STATE as _OBS, span as _span

__all__ = ["NetworkClusterer"]


class NetworkClusterer:
    """Shared plumbing for algorithms clustering points on a network.

    Subclasses implement :meth:`_cluster` returning a
    :class:`~repro.core.result.ClusteringResult`; :meth:`run` wraps it with
    timing.  The ``network`` argument may be any backend implementing the
    traversal protocol (``neighbors``, ``edge_weight``, ``nodes``, ...), so
    the algorithms work over both :class:`~repro.network.SpatialNetwork`
    and the disk-backed :class:`~repro.storage.NetworkStore`.

    ``backend`` selects the traversal backend: ``None``/``"dict"`` use
    ``network`` as given (the bit-exactness oracle), ``"csr"`` freezes it
    into a :class:`~repro.network.CSRNetwork` whose array kernels serve
    every traversal — results are bit-identical either way, and the point
    set may stay bound to the source network.

    Robustness contract
    -------------------
    * ``budget`` — an optional :class:`~repro.faults.OpBudget`; while the
      run executes it is the process-active budget, so every traversal and
      page read is charged against it.  Exhaustion raises
      :class:`~repro.exceptions.BudgetExceededError` (tagged with the
      algorithm name) and leaves no shared state corrupted.
    * ``deadline`` — an optional :class:`~repro.resilience.Deadline`,
      assigned like ``checkpoint`` after construction.  While the run
      executes it is the context-active deadline, observed by the
      cooperative checkpoints in every traversal loop; expiry or external
      cancellation raises :class:`~repro.exceptions.DeadlineExceeded` /
      :class:`~repro.exceptions.Cancelled` with the same clean-abort
      guarantees as a budget exhaustion.  All of these are
      :class:`~repro.exceptions.Interrupted` subtypes and compose with the
      checkpoint contract below: the periodic snapshots a run took before
      the interrupt stay valid, so a ``--resume`` completes it with a
      result identical to an uninterrupted run.
    * ``check_connectivity`` — ``None`` (default) analyses the network's
      components only for algorithms that declare
      ``handles_disconnected = False``; ``True`` forces the analysis (its
      report lands in ``result.stats``), ``False`` skips it entirely.  On a
      disconnected network, non-handling algorithms are orchestrated per
      component via :meth:`_cluster_components`, and every result carries an
      explicit ``unreachable_pairs`` count — the object pairs no distance-
      based method can relate.

    Checkpoint contract
    -------------------
    * ``checkpoint`` — an optional
      :class:`~repro.recovery.CheckpointManager`.  Checkpointable
      subclasses call :meth:`_ckpt_tick` at each deterministic iteration
      boundary; every ``checkpoint.every``-th tick snapshots the state
      returned by :meth:`_checkpoint_state`.  Because snapshots are only
      taken at such boundaries and each algorithm replays forward
      deterministically from a restored snapshot (including restored RNG
      state where one is used), a resumed run converges to the *same*
      :class:`~repro.core.result.ClusteringResult` as the uninterrupted
      run.
    * ``resume`` — the ``state`` dict of a loaded checkpoint; consumed
      once by ``_cluster`` via :meth:`_take_resume_state`.
    * ``repair_report`` — assign a
      :class:`~repro.recovery.RepairReport` (or its summary dict) before
      :meth:`run` to record that the inputs came from a salvaged store;
      its loss accounting lands in ``result.stats["repair"]``.
    """

    #: Subclasses set this to their reporting name.
    algorithm_name = "abstract"

    #: Whether :meth:`_cluster` already yields well-defined per-component
    #: results on a disconnected network (density/linkage methods do; the
    #: partitioning method does not and overrides :meth:`_cluster_components`).
    handles_disconnected = True

    def __init__(
        self,
        network,
        points: PointSet,
        budget=None,
        check_connectivity: bool | None = None,
        checkpoint=None,
        resume: dict | None = None,
        backend: str | None = None,
    ) -> None:
        network = resolve_backend(network, backend)
        if points.network is not network and not self._same_backend(network, points):
            raise ParameterError(
                "the point set was built against a different network object"
            )
        self.network = network
        self.points = points
        self.budget = budget
        self.check_connectivity = check_connectivity
        self.checkpoint = checkpoint
        #: optional repro.resilience.Deadline, active for the whole run
        self.deadline = None
        self._resume_state = resume
        #: optional RepairReport (or summary dict) describing salvaged inputs
        self.repair_report = None

    @staticmethod
    def _same_backend(network, points: PointSet) -> bool:
        """Allow a derived backend wrapping the point set's network.

        Unwraps ``source_network`` links transitively so a frozen CSR
        snapshot of a store of the point set's network still matches.
        """
        wrapped = getattr(network, "source_network", None)
        while wrapped is not None:
            if wrapped is points.network:
                return True
            wrapped = getattr(wrapped, "source_network", None)
        return False

    def run(self):
        """Execute the algorithm, recording wall-clock time in the result.

        With :mod:`repro.obs` enabled the whole run is traced as a
        ``cluster.<algorithm>`` span, the root under which the per-phase
        spans of the concrete algorithms nest.
        """
        start = time.perf_counter()
        try:
            with ExitStack() as stack:
                if self.budget is not None:
                    stack.enter_context(self.budget.activate())
                if self.deadline is not None:
                    stack.enter_context(self.deadline.activate())
                result = self._run_traced()
        except Interrupted as exc:
            if exc.algorithm is None:
                exc.algorithm = self.algorithm_name
            raise
        result.stats.setdefault("wall_time_s", time.perf_counter() - start)
        if self.repair_report is not None:
            from repro.core.degrade import repair_summary

            result.stats["repair"] = repair_summary(self.repair_report)
        return result

    def _run_traced(self):
        if _OBS.enabled:
            with _span("cluster." + self.algorithm_name):
                return self._run_checked()
        return self._run_checked()

    def _run_checked(self):
        check = self.check_connectivity
        if check is None:
            check = not self.handles_disconnected
        if not check:
            return self._cluster()
        report = analyze_connectivity(self.network, self.points)
        if report.num_populated_components <= 1 or self.handles_disconnected:
            result = self._cluster()
        else:
            result = self._cluster_components(report)
        result.stats["connectivity"] = report.summary()
        result.stats["unreachable_pairs"] = report.unreachable_pairs
        return result

    def _cluster(self):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpoint plumbing (used by checkpointable subclasses)
    # ------------------------------------------------------------------
    def _ckpt_tick(self) -> None:
        """One deterministic iteration boundary passed; maybe snapshot."""
        if self.checkpoint is not None:
            self.checkpoint.tick(self._checkpoint_state)

    def _ckpt_save(self) -> None:
        """Force a snapshot now (phase boundaries that must be captured)."""
        if self.checkpoint is not None:
            self.checkpoint.save(self._checkpoint_state())

    def _checkpoint_state(self) -> dict:
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def resume_from(self, state: dict | None) -> None:
        """Install a loaded checkpoint's ``state`` for the next run."""
        self._resume_state = state

    def _take_resume_state(self) -> dict | None:
        """The resume snapshot, handed out exactly once."""
        state, self._resume_state = self._resume_state, None
        return state

    def _cluster_components(self, report):
        """Per-component orchestration on a disconnected network.

        Only reached when ``handles_disconnected`` is ``False``; such
        subclasses must override this to run themselves once per populated
        component and merge the results.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares handles_disconnected=False "
            "but does not implement _cluster_components"
        )
