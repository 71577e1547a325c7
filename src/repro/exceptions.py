"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses distinguish the main
failure categories: malformed network data, invalid object placements,
unreachable shortest-path queries, bad algorithm parameters, and storage-layer
corruption.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NetworkError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "InvalidWeightError",
    "MissingCoordinatesError",
    "StaleBackendError",
    "PointError",
    "PointNotFoundError",
    "InvalidPositionError",
    "UnreachableError",
    "ParameterError",
    "Interrupted",
    "BudgetExceededError",
    "DeadlineExceeded",
    "Cancelled",
    "Overloaded",
    "CircuitOpenError",
    "WorkerCrashed",
    "PoisonRequest",
    "StorageError",
    "PageError",
    "ChecksumError",
    "PageCorruptError",
    "CorruptRecordError",
    "IndexStaleError",
    "TreeError",
    "RecoveryError",
    "CheckpointError",
    "RepairError",
    "WalCorruptError",
    "MutationConflict",
    "ReplayError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetworkError(ReproError):
    """Base class for errors relating to the spatial network structure."""


class NodeNotFoundError(NetworkError, KeyError):
    """A referenced node id does not exist in the network."""

    def __init__(self, node: int) -> None:
        super().__init__(f"node {node!r} does not exist in the network")
        self.node = node


class EdgeNotFoundError(NetworkError, KeyError):
    """A referenced edge does not exist in the network."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) does not exist in the network")
        self.edge = (u, v)


class InvalidWeightError(NetworkError, ValueError):
    """An edge weight is not a positive finite real number."""


class MissingCoordinatesError(NetworkError):
    """A node exists but carries no planar coordinates.

    Raised by ``node_coords`` accessors.  Kept distinct from
    :class:`NodeNotFoundError` (and from injected I/O faults) so callers
    that degrade gracefully without coordinates — e.g. the A* heuristic
    falling back to h = 0 — can catch exactly this condition and let every
    real failure propagate.
    """

    def __init__(self, node: int) -> None:
        super().__init__(f"node {node} has no coordinates")
        self.node = node


class StaleBackendError(NetworkError):
    """A frozen backend's source network mutated after the freeze.

    Raised by :class:`~repro.network.csr.CSRNetwork` when the
    :class:`~repro.network.graph.SpatialNetwork` it was frozen from has
    been structurally modified since: serving distances off the stale
    arrays would silently disagree with the live network, so every public
    accessor fails loudly instead.  Re-freeze the network to continue.
    """


class PointError(ReproError):
    """Base class for errors relating to objects placed on the network."""


class PointNotFoundError(PointError, KeyError):
    """A referenced point id does not exist in the point set."""

    def __init__(self, point_id: int) -> None:
        super().__init__(f"point {point_id!r} does not exist in the point set")
        self.point_id = point_id


class InvalidPositionError(PointError, ValueError):
    """A point position (edge, offset) is outside the edge it refers to."""


class UnreachableError(ReproError):
    """A shortest-path query between disconnected network locations."""


class ParameterError(ReproError, ValueError):
    """An algorithm parameter is invalid (e.g. k < 1, eps <= 0)."""


class Interrupted(ReproError):
    """Base class for *clean typed interrupts* of a long-running computation.

    An interrupt is not a failure: the run was stopped on purpose — by an
    operation budget (:class:`BudgetExceededError`), a wall-clock deadline
    (:class:`DeadlineExceeded`), or an external cancellation such as SIGTERM
    (:class:`Cancelled`).  All three share one contract:

    * no shared state is corrupted — the abort happens at a cooperative
      checkpoint, between mutations;
    * any periodic checkpoint snapshot taken so far remains valid, so the
      run can be resumed with ``--resume`` to an identical result;
    * the CLI maps every :class:`Interrupted` to exit code 3.

    Attributes
    ----------
    partial:
        Best-effort partial progress at interrupt time (e.g. the distances
        settled by an interrupted Dijkstra); may be ``None``.
    algorithm:
        Set by :meth:`repro.core.NetworkClusterer.run` when the interrupt
        surfaced through a clustering run.
    """

    partial: object | None = None
    algorithm: str | None = None


class BudgetExceededError(Interrupted):
    """An operation budget (:class:`repro.faults.OpBudget`) was exhausted.

    Raised by traversal and clustering code when a caller-imposed limit on
    expansions, distance computations, or page reads is hit.  The abort is
    *clean*: no shared state is corrupted, and the exception carries what was
    computed so far.

    Attributes
    ----------
    op:
        The exhausted operation class (``"expansions"``,
        ``"distance_computations"``, ``"page_reads"``).
    limit / spent:
        The configured ceiling and the count that tripped it.
    partial:
        Best-effort partial state at abort time (e.g. the distances settled
        by an interrupted Dijkstra); may be ``None``.
    algorithm:
        Set by :meth:`repro.core.NetworkClusterer.run` when the abort
        surfaced through a clustering run.
    """

    def __init__(
        self,
        op: str,
        limit: int,
        spent: int,
        partial: object | None = None,
    ) -> None:
        super().__init__(
            f"operation budget exhausted: {op} limit {limit} reached "
            f"(spent {spent})"
        )
        self.op = op
        self.limit = limit
        self.spent = spent
        self.partial = partial
        self.algorithm: str | None = None


class DeadlineExceeded(Interrupted):
    """A wall-clock deadline (:class:`repro.resilience.Deadline`) expired.

    Raised at a cooperative checkpoint inside a traversal or clustering
    loop once the deadline's monotonic-clock budget is spent.

    Attributes
    ----------
    site:
        The cooperative checkpoint that observed the expiry (same naming
        scheme as fault-injection sites, e.g. ``"dijkstra.settle"``).
    timeout_s / elapsed_s:
        The configured budget and the time actually consumed.
    checks:
        Number of cooperative checks the deadline performed before expiry —
        a cheap progress measure that is deterministic across runs.
    """

    def __init__(
        self,
        site: str,
        timeout_s: float,
        elapsed_s: float,
        checks: int = 0,
        partial: object | None = None,
    ) -> None:
        super().__init__(
            f"deadline exceeded at {site}: {elapsed_s:.3f}s elapsed of "
            f"{timeout_s:.3f}s budget ({checks} cooperative checks)"
        )
        self.site = site
        self.timeout_s = timeout_s
        self.elapsed_s = elapsed_s
        self.checks = checks
        self.partial = partial
        self.algorithm: str | None = None


class Cancelled(Interrupted):
    """The run was cancelled externally (CancelToken, SIGTERM, shutdown).

    Attributes
    ----------
    reason:
        Why the token was cancelled (e.g. ``"SIGTERM"``, ``"shutdown"``).
    site:
        The cooperative checkpoint that observed the cancellation, or ``""``
        when the cancellation was raised outside a traversal loop.
    """

    def __init__(
        self,
        reason: str = "cancelled",
        site: str = "",
        partial: object | None = None,
    ) -> None:
        where = f" at {site}" if site else ""
        super().__init__(f"cancelled{where}: {reason}")
        self.reason = reason
        self.site = site
        self.partial = partial
        self.algorithm: str | None = None


class Overloaded(ReproError):
    """A request was shed: the service cannot take more work now.

    Load-shedding rejection from either serve tier
    (:class:`repro.serve.QueryService`, :class:`repro.serve.SupervisedPool`):
    the bounded admission queue already holds ``queue_depth`` requests, so
    admitting more would only grow latency unboundedly — or, on the
    supervised pool, every worker slot's restart circuit is open (fully
    degraded), so no worker is left to run it.  The message names the
    queue bound either way.  The caller should back off and retry;
    nothing was executed.
    """

    def __init__(self, queue_depth: int) -> None:
        super().__init__(
            f"service overloaded: admission queue full ({queue_depth} pending)"
        )
        self.queue_depth = queue_depth


class CircuitOpenError(ReproError):
    """A call was rejected because a circuit breaker is open.

    The protected dependency (e.g. the pager read path) failed persistently,
    so the breaker fails fast instead of retrying every call.  Carries how
    long until the breaker will allow a probe again.
    """

    def __init__(self, name: str, site: str, retry_after_s: float) -> None:
        super().__init__(
            f"circuit breaker {name!r} is open at {site}: "
            f"failing fast (probe allowed in {max(retry_after_s, 0.0):.3f}s)"
        )
        self.name = name
        self.site = site
        self.retry_after_s = retry_after_s


class WorkerCrashed(ReproError):
    """The worker process executing a request died before answering.

    Raised by the supervised multi-process pool
    (:class:`repro.serve.SupervisedPool`) when a worker exits — SIGKILL,
    OOM, segfault-class bug — while holding a request that cannot be
    safely retried on another worker (or whose one failover retry is not
    available).  The request may or may not have had side effects on the
    worker; nothing was corrupted in the shared store, which is opened
    read-only by every worker.

    Attributes
    ----------
    request_id:
        The client-chosen ``id`` of the doomed request, if any.
    pid:
        Process id of the worker that died, when known.
    """

    def __init__(self, detail: str, request_id: object = None,
                 pid: int | None = None) -> None:
        super().__init__(f"worker crashed while executing request: {detail}")
        self.request_id = request_id
        self.pid = pid


class PoisonRequest(ReproError):
    """A request whose execution has repeatedly killed worker processes.

    The supervised pool fingerprints every request that is in flight when
    a worker dies; once the same fingerprint has killed workers twice it
    is *quarantined* — rejected immediately with this error instead of
    being allowed to cycle the whole pool through crash/restart.

    Attributes
    ----------
    fingerprint:
        The canonical request fingerprint (id/trace fields stripped).
    deaths:
        How many worker deaths this fingerprint has caused.
    """

    def __init__(self, fingerprint: str, deaths: int) -> None:
        super().__init__(
            f"request quarantined as poison after killing {deaths} "
            f"worker(s): {fingerprint}"
        )
        self.fingerprint = fingerprint
        self.deaths = deaths


class StorageError(ReproError):
    """Base class for disk-storage-layer errors."""


class PageError(StorageError):
    """A page id is out of range or a page is corrupt."""


class ChecksumError(StorageError):
    """Stored data failed its integrity checksum.

    Base class for corruption detected by the per-page CRC32 trailer; what
    was read from disk does not match what was written, so the content must
    not be trusted (torn write, bit rot, or external modification).
    """


class PageCorruptError(ChecksumError, PageError):
    """A page's CRC32 trailer does not match its contents.

    Carries the page id and the byte offset of the physical page in the
    file, so corruption can be located with a hex editor or ``repro check``.
    """

    def __init__(self, page_id: int, offset: int, path: str = "", reason: str = "") -> None:
        where = f"{path}: " if path else ""
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"{where}page {page_id} at file offset {offset} is corrupt{detail}"
        )
        self.page_id = page_id
        self.offset = offset
        self.path = path


class CorruptRecordError(StorageError):
    """A stored record decodes to an impossible structure.

    Raised when a record's own length/count fields are inconsistent (e.g. an
    adjacency record whose neighbour count overruns the record) — logical
    corruption that a page checksum cannot catch because the page itself was
    written that way.
    """


class IndexStaleError(StorageError):
    """A landmark index no longer answers for the served network.

    :meth:`repro.perf.DistanceAccelerator.point_vector` raises it when
    the accelerator has no index left to answer from: none was given, or
    a reweigh dropped it, because the landmark node tables bind to edge
    weights and an index is never silently rebuilt.
    """


class TreeError(StorageError):
    """A structural invariant of a disk-based B+-tree was violated."""


class RecoveryError(ReproError):
    """Base class for errors in the recovery layer (:mod:`repro.recovery`)."""


class CheckpointError(RecoveryError):
    """A checkpoint file is damaged, truncated, or incompatible.

    Raised by :func:`repro.recovery.load_checkpoint` when the snapshot's
    magic, version, length, or CRC32 trailer does not check out, or when a
    resume is attempted against a workload/algorithm that does not match
    the checkpoint's recorded metadata.
    """


class RepairError(RecoveryError):
    """A store salvage pass could not produce a usable result."""


class WalCorruptError(ChecksumError):
    """A write-ahead mutation log (``RWAL`` file) failed integrity checks.

    Raised by :class:`repro.live.WriteAheadLog` when the header or a record
    CRC32 does not match *before* the final record, the magic is foreign,
    the format version skews, or record sequence numbers are discontinuous.
    Damage confined to the final record is not corruption — fsync-before-ack
    means a torn tail is the expected residue of a crash, and it is
    truncated away on open instead of raising.
    """


class MutationConflict(ReproError):
    """A live mutation references state that contradicts the served world.

    Raised *before* the mutation reaches the write-ahead log — inserting a
    point with an id that already exists, removing an unknown point, or
    reweighing an edge that is not in the network.  Nothing was logged or
    applied; the serve tier maps it to a client error, not a crash.

    Attributes
    ----------
    kind:
        The mutation kind (``"insert_point"`` / ``"remove_point"`` /
        ``"reweigh_edge"``).
    """

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind} conflicts with the served state: {detail}")
        self.kind = kind


class ReplayError(RecoveryError):
    """WAL replay could not bring a session to the required epoch.

    Raised when applying a logged mutation fails against the rebuilt state,
    when a replay observes a sequence gap, or when a worker's log ends
    before the pool epoch it was told to reach — the worker must not report
    ready (and never serve) from a stale world.
    """
