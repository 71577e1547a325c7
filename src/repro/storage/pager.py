"""Paged file storage with an LRU buffer manager.

The paper's experiments run against a disk-based representation with "a
memory buffer of 1Mb and the page size ... set to 4Kb"; this module provides
those two layers:

* :class:`PagedFile` — a file divided into fixed-size pages with a small
  header page (magic, format version, commit flag, page size, page count,
  and a metadata area that higher layers use to persist root pointers),
  counting physical reads/writes;
* :class:`BufferManager` — a fixed-capacity LRU page cache with write-back
  of dirty pages, counting hits, misses, and evictions.

Crash consistency (format version 2)
------------------------------------
Every page — the header included — is stored as a *frame* of
``page_size + 4`` bytes: the page payload followed by a CRC32 trailer
computed over the payload.  :meth:`PagedFile.read_page` verifies the trailer
and raises :class:`~repro.exceptions.PageCorruptError` (with the page id and
file offset) on mismatch, so torn writes and bit rot surface as typed errors
instead of silently decoded garbage.  The logical page size upper layers see
is unchanged; only the physical stride grows by four bytes.

The header carries a **commit flag**: it is clear while a file is being
built or mutated and set (with an fsync) by a clean :meth:`PagedFile.close`
/ :meth:`PagedFile.commit`.  Reopening a file whose flag is clear raises a
clean :class:`~repro.exceptions.StorageError` — a half-written file from a
crashed build can never reopen as data (pass ``allow_uncommitted=True`` for
forensic tools like ``repro check``).

Thread safety
-------------
Both layers may be shared across threads — the ``repro serve`` worker
pool reads one disk-backed store concurrently.  A per-:class:`PagedFile`
reentrant lock serializes every seek+read / seek+write pair on the
underlying handle (an interleaved seek from another thread would return
the wrong page's frame, whose CRC still validates), and a
per-:class:`BufferManager` lock guards the LRU bookkeeping, whose
``move_to_end`` racing an eviction would otherwise raise.

Decoded pages
-------------
:meth:`BufferManager.read_decoded` keeps the result of a caller's decode
function beside the frame it came from, so a page that stays resident is
decoded at most once per decoder.  The decoded object lives exactly as
long as its frame: eviction, :meth:`BufferManager.write`,
:meth:`BufferManager.drop_cache` and :meth:`BufferManager.abort` drop it,
so it is bounded by the buffer's capacity and can never outlive the bytes
it was decoded from.  Every call is still one logical read with the same
hit/miss/eviction accounting as :meth:`BufferManager.read` — only the CPU
cost of re-parsing a resident page goes away.

The buffer statistics are the hardware-independent cost measure of the
storage experiments: both layers keep their per-instance counters *and*
mirror every event into the unified :mod:`repro.obs` registry
(``storage.physical_reads``, ``storage.buffer_hits``,
``storage.checksum_failures``, ...).  All physical I/O routes through
:mod:`repro.faults` injection sites (``pager.read_page``,
``pager.write_page``, ``pager.write_header``, ``pager.allocate``,
``pager.flush``) and charges any active page-read budget.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from collections import OrderedDict
from collections.abc import Callable
from typing import Any

from repro.exceptions import PageCorruptError, PageError, StorageError
from repro.faults.core import STATE as _FAULTS, CrashPoint, fire as _fault, tear as _tear
from repro.obs.core import add as _obs_add
from repro.recovery.retry import STATE as _RETRY
from repro.resilience.breaker import STATE as _BREAKER

__all__ = [
    "PagedFile",
    "BufferManager",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_BUFFER_BYTES",
    "FORMAT_VERSION",
    "CHECKSUM_BYTES",
]

DEFAULT_PAGE_SIZE = 4096  # the paper's 4 KB pages
DEFAULT_BUFFER_BYTES = 1 << 20  # the paper's 1 MB buffer

FORMAT_VERSION = 2  # version 1 had no checksums and no commit flag
CHECKSUM_BYTES = 4  # CRC32 trailer appended to every physical page

_MAGIC = b"RPRO"
_HEADER_FMT = "<4sHHIQ"  # magic, version, flags, page_size, num_pages
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_META_CAPACITY = 256  # bytes reserved in the header page for callers
_FLAG_COMMITTED = 0x0001


def _crc(payload: bytes) -> bytes:
    return struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


class PagedFile:
    """A file of fixed-size checksummed pages, page 0 being the header.

    Parameters
    ----------
    path:
        File location; created when absent, validated when present.
    page_size:
        Logical page size in bytes (only used at creation; reopening reads
        it back).  The physical on-disk stride is ``page_size + 4`` for the
        CRC32 trailer.
    allow_uncommitted:
        Permit reopening a file whose commit flag is clear (a crashed
        build).  Default ``False``: such files raise ``StorageError``.
    """

    def __init__(
        self,
        path: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        allow_uncommitted: bool = False,
    ) -> None:
        self.path = os.fspath(path)
        self.reads = 0
        self.writes = 0
        # Serializes every seek+read/seek+write pair on the shared handle:
        # QueryService workers read one PagedFile concurrently, and an
        # interleaved seek from another thread would return the wrong
        # page's frame (whose CRC still validates — the trailer does not
        # bind the page id).  Reentrant because allocate()/_uncommit()
        # write the header while already holding the lock.
        self._io_lock = threading.RLock()
        exists = os.path.exists(self.path)
        if exists and os.path.getsize(self.path) == 0:
            raise StorageError(
                f"{self.path}: existing file is empty — not a paged file "
                "(interrupted creation?)"
            )
        if not exists and page_size < _HEADER_SIZE + 2 + _META_CAPACITY:
            raise StorageError(
                f"page_size must be at least {_HEADER_SIZE + 2 + _META_CAPACITY}"
            )
        try:
            self._fh = open(self.path, "r+b" if exists else "w+b")
        except OSError as exc:
            raise StorageError(f"{self.path}: cannot open: {exc}") from exc
        try:
            if exists:
                self._load_header(allow_uncommitted)
            else:
                self.page_size = int(page_size)
                self._num_pages = 1  # the header page
                self._meta = b""
                self.committed = False
                self._write_header()
        except BaseException:
            self._fh.close()
            raise

    @property
    def stride(self) -> int:
        """Physical bytes per page on disk (payload + CRC trailer)."""
        return self.page_size + CHECKSUM_BYTES

    # ------------------------------------------------------------------
    # Header handling
    # ------------------------------------------------------------------
    def _load_header(self, allow_uncommitted: bool) -> None:
        # The whole load is wrapped: a truncated or garbage header must
        # surface as StorageError with the path and reason, never as a raw
        # struct.error / OSError from half-parsed bytes.
        try:
            self._fh.seek(0)
            raw = self._fh.read(_HEADER_SIZE)
            if len(raw) < _HEADER_SIZE:
                raise StorageError(f"{self.path}: truncated header")
            magic, version, flags, page_size, num_pages = struct.unpack(
                _HEADER_FMT, raw
            )
            if magic != _MAGIC:
                raise StorageError(f"{self.path}: not a repro paged file")
            if version != FORMAT_VERSION:
                raise StorageError(
                    f"{self.path}: unsupported paged-file format version "
                    f"{version} (this build reads version {FORMAT_VERSION})"
                )
            if page_size < _HEADER_SIZE + 2 + _META_CAPACITY:
                raise StorageError(
                    f"{self.path}: implausible page size {page_size} in header"
                )
            # Verify the header frame's CRC before trusting anything else.
            self._fh.seek(0)
            frame = self._fh.read(page_size + CHECKSUM_BYTES)
            if len(frame) < page_size + CHECKSUM_BYTES:
                raise StorageError(f"{self.path}: truncated header page")
            payload, trailer = frame[:page_size], frame[page_size:]
            if _crc(payload) != trailer:
                _obs_add("storage.checksum_failures")
                raise PageCorruptError(
                    0, 0, path=self.path, reason="header checksum mismatch"
                )
            self.page_size = page_size
            self._num_pages = num_pages
            self.committed = bool(flags & _FLAG_COMMITTED)
            if not self.committed and not allow_uncommitted:
                raise StorageError(
                    f"{self.path}: file was never cleanly committed "
                    "(crashed or interrupted build) — refusing to open"
                )
            (meta_len,) = struct.unpack_from("<H", payload, _HEADER_SIZE)
            if meta_len > _META_CAPACITY:
                raise StorageError(f"{self.path}: corrupt metadata length")
            meta_off = _HEADER_SIZE + 2
            self._meta = payload[meta_off : meta_off + meta_len]
        except StorageError:
            raise
        except (struct.error, OSError, ValueError) as exc:
            raise StorageError(
                f"{self.path}: cannot load paged-file header: {exc}"
            ) from exc

    def _write_header(self) -> None:
        if _FAULTS.engaged:
            _fault("pager.write_header")
        flags = _FLAG_COMMITTED if self.committed else 0
        payload = struct.pack(
            _HEADER_FMT, _MAGIC, FORMAT_VERSION, flags, self.page_size,
            self._num_pages,
        )
        payload += struct.pack("<H", len(self._meta)) + self._meta
        payload = payload.ljust(self.page_size, b"\x00")
        frame = payload + _crc(payload)
        with self._io_lock:
            self._fh.seek(0)
            if _FAULTS.engaged:
                cut = _tear("pager.write_header", len(frame))
                if cut is not None:
                    self._fh.write(frame[:cut])
                    self._fh.flush()
                    raise CrashPoint("pager.write_header")
            self._fh.write(frame)

    def _uncommit(self) -> None:
        """Clear the commit flag *before* mutating data pages.

        Only reopened-committed files pay the extra header write; files
        under construction are already uncommitted.  The cleared flag is
        flushed to the OS immediately so it can never be reordered after
        the data writes it guards.
        """
        with self._io_lock:
            if self.committed:
                self.committed = False
                self._write_header()
                self._fh.flush()

    def get_meta(self) -> bytes:
        """Caller-managed metadata persisted in the header page."""
        return self._meta

    def set_meta(self, meta: bytes) -> None:
        if len(meta) > _META_CAPACITY:
            raise StorageError(
                f"metadata limited to {_META_CAPACITY} bytes, got {len(meta)}"
            )
        self._meta = bytes(meta)
        self.committed = False
        self._write_header()

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        """Total pages including the header page."""
        return self._num_pages

    def allocate(self) -> int:
        """Append a zeroed page and return its id."""
        if _FAULTS.engaged:
            _fault("pager.allocate")
        with self._io_lock:
            self._uncommit()
            pid = self._num_pages
            self._num_pages += 1
            payload = b"\x00" * self.page_size
            self._fh.seek(pid * self.stride)
            self._fh.write(payload + _crc(payload))
            self._write_header()
        return pid

    def _check_pid(self, pid: int) -> None:
        if not 1 <= pid < self._num_pages:
            raise PageError(
                f"page id {pid} out of range [1, {self._num_pages - 1}]"
            )

    def read_page(self, pid: int) -> bytes:
        """One logical page read; the single physical-read chokepoint.

        Every flat-file, B+-tree, and network-store read funnels through
        here, so this is also where the retry layer
        (:mod:`repro.recovery.retry`) wraps transient I/O failures: each
        attempt re-enters ``_read_page_attempt`` (re-firing the fault site
        and re-charging any page-read budget), so injected transient
        errors and retries compose deterministically.

        An installed :class:`~repro.resilience.CircuitBreaker` guards each
        *attempt* (see ``_read_page_attempt``), i.e. it sits inside the
        retry loop: persistent faults trip it mid-backoff and the
        non-retryable :class:`~repro.exceptions.CircuitOpenError` then
        fails this and every following read fast.
        """
        self._check_pid(pid)
        policy = _RETRY.policy
        if policy is None:
            return self._read_page_attempt(pid)
        return policy.run(
            "pager.read_page", lambda: self._read_page_attempt(pid)
        )

    def _read_page_attempt(self, pid: int) -> bytes:
        breaker = _BREAKER.breaker
        if breaker is None:
            return self._read_page_raw(pid)
        return breaker.call("pager.read_page", lambda: self._read_page_raw(pid))

    def _read_page_raw(self, pid: int) -> bytes:
        if _FAULTS.engaged:
            _fault("pager.read_page")
            budget = _FAULTS.budget
            if budget is not None:
                budget.spend_page_reads(1)
        _obs_add("storage.physical_reads")
        offset = pid * self.stride
        with self._io_lock:
            self.reads += 1
            self._fh.seek(offset)
            frame = self._fh.read(self.stride)
        if len(frame) != self.stride:
            _obs_add("storage.checksum_failures")
            raise PageCorruptError(
                pid, offset, path=self.path, reason="truncated page"
            )
        payload, trailer = frame[: self.page_size], frame[self.page_size :]
        if _crc(payload) != trailer:
            _obs_add("storage.checksum_failures")
            raise PageCorruptError(
                pid, offset, path=self.path, reason="CRC32 mismatch"
            )
        return payload

    def write_page(self, pid: int, data: bytes) -> None:
        self._check_pid(pid)
        if len(data) > self.page_size:
            raise PageError(
                f"data of {len(data)} bytes exceeds page size {self.page_size}"
            )
        if _FAULTS.engaged:
            _fault("pager.write_page")
        _obs_add("storage.physical_writes")
        payload = bytes(data).ljust(self.page_size, b"\x00")
        frame = payload + _crc(payload)
        with self._io_lock:
            self._uncommit()
            self.writes += 1
            self._fh.seek(pid * self.stride)
            if _FAULTS.engaged:
                cut = _tear("pager.write_page", len(frame))
                if cut is not None:
                    # A torn write: persist a prefix of the frame, then
                    # "die".  The stale/garbage trailer makes the next
                    # read fail its CRC.
                    self._fh.write(frame[:cut])
                    self._fh.flush()
                    raise CrashPoint("pager.write_page")
            self._fh.write(frame)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if _FAULTS.engaged:
            _fault("pager.flush")
        with self._io_lock:
            self._fh.flush()
            try:
                os.fsync(self._fh.fileno())
            except OSError:  # pragma: no cover - e.g. pipes in exotic setups
                pass

    def commit(self) -> None:
        """Durably mark the file consistent (header flag + fsync)."""
        if not self._fh.closed:
            self.committed = True
            self._write_header()
            self.flush()

    def close(self) -> None:
        """Commit and close: a cleanly closed file always reopens."""
        if not self._fh.closed:
            self.commit()
            self._fh.close()

    def abort(self) -> None:
        """Close the file handle *without* committing (crash simulation /
        error cleanup). On-disk state is left exactly as last written."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "PagedFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"PagedFile(path={self.path!r}, pages={self._num_pages}, "
            f"page_size={self.page_size}, committed={self.committed})"
        )


class BufferManager:
    """A write-back LRU page cache over a :class:`PagedFile`.

    Parameters
    ----------
    file:
        The underlying paged file.
    capacity_bytes:
        Total buffer size; capacity in pages is ``capacity_bytes //
        page_size`` (minimum 1).
    """

    def __init__(
        self, file: PagedFile, capacity_bytes: int = DEFAULT_BUFFER_BYTES
    ) -> None:
        self.file = file
        self.capacity_pages = max(1, capacity_bytes // file.page_size)
        self._frames: OrderedDict[int, bytes] = OrderedDict()
        # pid -> (decode, decode(frame)) for resident frames only; every
        # path that replaces or drops a frame drops its entry here too.
        self._decoded: dict[int, tuple[Callable[[bytes], Any], Any]] = {}
        self._dirty: set[int] = set()
        # The LRU bookkeeping (OrderedDict moves/evictions) is shared by
        # every thread reading a served store; an unguarded move_to_end
        # racing an eviction raises KeyError.  Reentrant: flush() runs
        # under the lock and close()/drop_cache() call it while holding.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def read(self, pid: int) -> bytes:
        """Page contents, from cache when possible."""
        with self._lock:
            return self._frame(pid)

    def read_decoded(self, pid: int, decode: Callable[[bytes], Any]) -> Any:
        """``decode(page)``, decoded once per resident frame.

        One logical read, accounted exactly like :meth:`read`.  The
        decoded object is shared by every later caller until the frame is
        evicted, overwritten or dropped, so callers must treat it as
        read-only.  ``decode`` is matched by identity: pass a module-level
        function or class, not a fresh closure.  A ``decode`` that raises
        caches nothing.
        """
        with self._lock:
            memo = self._decoded.get(pid)
            if memo is not None and memo[0] is decode:
                # A memo implies a resident frame: account the hit as
                # _frame() would.
                self.hits += 1
                _obs_add("storage.buffer_hits")
                self._frames.move_to_end(pid)
                return memo[1]
            value = decode(self._frame(pid))
            self._decoded[pid] = (decode, value)
            return value

    def _frame(self, pid: int) -> bytes:
        # Caller holds the lock.
        frame = self._frames.get(pid)
        if frame is not None:
            self.hits += 1
            _obs_add("storage.buffer_hits")
            self._frames.move_to_end(pid)
            return frame
        self.misses += 1
        _obs_add("storage.buffer_misses")
        data = self.file.read_page(pid)
        self._admit(pid, data)
        return data

    def write(self, pid: int, data: bytes) -> None:
        """Replace page contents (write-back: flushed on eviction/close)."""
        if len(data) > self.file.page_size:
            raise PageError(
                f"data of {len(data)} bytes exceeds page size {self.file.page_size}"
            )
        data = bytes(data).ljust(self.file.page_size, b"\x00")
        with self._lock:
            if pid in self._frames:
                self._frames[pid] = data
                self._frames.move_to_end(pid)
                self._decoded.pop(pid, None)
            else:
                self._admit(pid, data)
            self._dirty.add(pid)

    def allocate(self) -> int:
        """Allocate a fresh page in the underlying file."""
        return self.file.allocate()

    def _admit(self, pid: int, data: bytes) -> None:
        while len(self._frames) >= self.capacity_pages:
            old_pid, old_data = self._frames.popitem(last=False)
            self._decoded.pop(old_pid, None)
            self.evictions += 1
            _obs_add("storage.buffer_evictions")
            if old_pid in self._dirty:
                self.file.write_page(old_pid, old_data)
                self._dirty.discard(old_pid)
        self._frames[pid] = data

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write all dirty pages through to the file."""
        with self._lock:
            for pid in sorted(self._dirty):
                self.file.write_page(pid, self._frames[pid])
            self._dirty.clear()
            self.file.flush()

    def close(self) -> None:
        with self._lock:
            self.flush()
            self.file.close()

    def abort(self) -> None:
        """Drop all cached state and close without flushing or committing
        (crash simulation / error cleanup)."""
        with self._lock:
            self._frames.clear()
            self._decoded.clear()
            self._dirty.clear()
            self.file.abort()

    def reset_stats(self) -> None:
        """Zero the cache and file counters (used between experiment runs)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.file.reads = 0
        self.file.writes = 0

    def drop_cache(self) -> None:
        """Flush and empty the cache and its decoded pages (simulates a
        cold start)."""
        with self._lock:
            self.flush()
            self._frames.clear()
            self._decoded.clear()

    def stats(self) -> dict[str, int]:
        return {
            "buffer_hits": self.hits,
            "buffer_misses": self.misses,
            "evictions": self.evictions,
            "physical_reads": self.file.reads,
            "physical_writes": self.file.writes,
        }

    def __enter__(self) -> "BufferManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
