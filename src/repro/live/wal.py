"""Durable write-ahead mutation log (the ``RWAL`` format).

The serve tier's live-mutation subsystem must never lose an acknowledged
mutation and never resurrect an unacknowledged one.  This module provides
the durability half of that contract: an append-only, CRC-trailed log in
the house style of the ``RPCK`` checkpoint, where every mutation is
written and fsynced *before* the caller acknowledges it to the client.

On-disk layout (``RWAL``, little-endian, format version 1)::

    offset 0   header (16 bytes)
               <4s H H I I> = magic b"RWAL", format version, flags
               (bit 0 = committed), meta length, CRC32 of bytes [0:12)
    offset 16  meta section: UTF-8 JSON padded with spaces to an 8-byte
               boundary, then an 8-byte trailer <I I> = CRC32, 0
    then       records, each 8-byte aligned:
               <Q I I I I> = sequence number (1, 2, 3, ...), payload
               length (unpadded), CRC32 of the *padded* payload, a zero
               word (checked), CRC32 of the preceding 20 bytes; then the
               payload — canonical JSON of one mutation — padded with
               spaces to an 8-byte boundary.

Recovery semantics follow from the append discipline.  Each ``append``
performs exactly one fault-instrumented physical write followed by an
fsync, and only then returns the sequence number that the serve tier
acknowledges, so after a crash:

* damage coinciding with the physical **tail** (short record header, a
  header-CRC mismatch on a header that is itself the end of file, payload
  past EOF, payload-CRC mismatch on the final record) is the torn residue
  of an unacknowledged append — ``open`` truncates it away and the log
  reads exactly the acknowledged prefix;
* damage **before** the tail can only be bit rot or external modification
  — never a torn write — and raises a typed
  :class:`~repro.exceptions.WalCorruptError`, as does a sequence-number
  discontinuity.

Creation writes the header uncommitted, fsyncs the meta section, then
flips the commit flag and fsyncs again; an uncommitted header on open is
the residue of a crashed creation (nothing was ever acknowledged) and the
log is recreated in place.  A foreign magic always refuses.

Every write passes through the :mod:`repro.faults` sites in
:data:`APPEND_WRITE_SITES`, and replay fires ``wal.replay.record`` before
handing each record to the apply callback, so the standard crash / torn /
kill sweeps in ``tests/test_wal.py`` and ``tests/test_live_chaos.py``
cover every byte that reaches the disk and every record that leaves it.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import time
import zlib

from repro.exceptions import ParameterError, WalCorruptError
from repro.faults.core import fire as _fault
from repro.framing import (
    FLAG_COMMITTED as _FLAG_COMMITTED,
    HEADER as _HEADER,
    TRAILER as _TRAILER,
    header_bytes,
    section as _section,
    write_blob as _write_blob,
)
from repro.obs.core import add as _obs_add
from repro.obs.metrics import REGISTRY as _METRICS

__all__ = [
    "APPEND_WRITE_SITES",
    "FORMAT_VERSION",
    "REPLAY_SITES",
    "WriteAheadLog",
    "verify_wal",
]

MAGIC = b"RWAL"
FORMAT_VERSION = 1

#: record prefix = sequence number, unpadded payload length, CRC32 of the
#: padded payload, a zero word, CRC32 of the preceding 20 bytes.
_RECORD = struct.Struct("<QIIII")

#: Every site through which WAL bytes reach the disk, in write order —
#: the crash/torn durability sweep in ``tests/test_wal.py`` injects at
#: each one and asserts that reopening recovers exactly the acknowledged
#: prefix.
APPEND_WRITE_SITES = (
    "wal.append.header",
    "wal.append.meta",
    "wal.append.commit_header",
    "wal.append.record",
)

#: Replay-side sites: ``wal.replay.truncate`` guards the torn-tail
#: truncation write, ``wal.replay.record`` fires before each record is
#: handed to the apply callback (the kill-mid-replay lever).
REPLAY_SITES = (
    "wal.replay.truncate",
    "wal.replay.record",
)


def _canonical_payload(mutation: dict) -> bytes:
    """Canonical JSON bytes of one mutation (stable across processes)."""
    return json.dumps(
        mutation, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _record_bytes(seq: int, payload: bytes) -> bytes:
    padded = payload + b" " * ((-len(payload)) % 8)
    prefix = _RECORD.pack(seq, len(payload), zlib.crc32(padded), 0, 0)[:-4]
    return prefix + struct.pack("<I", zlib.crc32(prefix)) + padded


class _Scan:
    """Result of scanning a log's record region."""

    __slots__ = ("records", "valid_end", "error")

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.valid_end = 0
        self.error: str | None = None


def _scan_records(buf: bytes, path: str, records_off: int) -> _Scan:
    """Walk the record region; stop at a torn tail, raise on mid-log rot.

    A record is *torn* (recoverable) only when the damage coincides with
    the physical end of file — anything wrong with more bytes following it
    is corruption, because fsync-before-ack means no later record can ever
    have been written after a torn one.
    """
    scan = _Scan()
    scan.valid_end = records_off
    size = len(buf)
    offset = records_off
    expect_seq = 1
    while offset < size:
        if size - offset < _RECORD.size:
            scan.error = (
                f"short record header at offset {offset} "
                f"({size - offset} bytes)"
            )
            return scan
        head = buf[offset:offset + _RECORD.size]
        seq, payload_len, payload_crc, zero, stored = _RECORD.unpack(head)
        if zlib.crc32(head[:-4]) != stored or zero != 0:
            if offset + _RECORD.size == size:
                scan.error = (
                    f"record header CRC mismatch at end of file "
                    f"(offset {offset})"
                )
                return scan
            # A torn append writes a prefix of correct bytes, so it can
            # only leave a short header or a valid header with a torn
            # payload — never a complete-but-wrong header with bytes
            # after it.
            raise WalCorruptError(
                f"{path}: record header CRC mismatch at offset {offset} "
                f"with {size - offset - _RECORD.size} bytes following — "
                "mid-log corruption, not a torn tail"
            )
        padded_len = payload_len + ((-payload_len) % 8)
        end = offset + _RECORD.size + padded_len
        if end > size:
            scan.error = (
                f"record {seq} payload extends past end of file "
                f"(offset {offset})"
            )
            return scan
        padded = buf[offset + _RECORD.size:end]
        if zlib.crc32(padded) != payload_crc:
            if end == size:
                scan.error = (
                    f"record {seq} payload CRC mismatch at end of file "
                    f"(offset {offset})"
                )
                return scan
            # Bytes follow the damaged record, so it was once complete
            # and fsynced: this is rot, not a torn append.
            raise WalCorruptError(
                f"{path}: record {seq} payload CRC mismatch at offset "
                f"{offset} with {size - end} bytes following — "
                "mid-log corruption, not a torn tail"
            )
        if seq != expect_seq:
            raise WalCorruptError(
                f"{path}: sequence discontinuity at offset {offset} "
                f"(found record {seq}, expected {expect_seq})"
            )
        try:
            doc = json.loads(padded[:payload_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WalCorruptError(
                f"{path}: record {seq} payload does not decode: {exc}"
            ) from None
        if not isinstance(doc, dict):
            raise WalCorruptError(
                f"{path}: record {seq} payload is not an object"
            )
        scan.records.append(doc)
        scan.valid_end = end
        offset = end
        expect_seq += 1
    return scan


def _read_header(buf: bytes, path: str) -> tuple[int, bool]:
    """(meta_len, committed) — raises WalCorruptError on foreign/bad data.

    An *uncommitted-but-intact* header is reported via ``committed=False``
    rather than raised, so read-write opens can recreate the crashed log.
    """
    if len(buf) < _HEADER.size:
        if len(buf) >= 4 and buf[:4] != MAGIC:
            raise WalCorruptError(
                f"{path}: not an RWAL mutation log (magic {buf[:4]!r})"
            )
        return -1, False
    head = bytes(buf[:_HEADER.size])
    magic, version, flags, meta_len, stored = _HEADER.unpack(head)
    if magic != MAGIC:
        raise WalCorruptError(
            f"{path}: not an RWAL mutation log (magic {magic!r})"
        )
    if zlib.crc32(head[:-4]) != stored:
        return -1, False
    if version != FORMAT_VERSION:
        raise WalCorruptError(
            f"{path}: format version skew — file is v{version}, this "
            f"build reads v{FORMAT_VERSION}"
        )
    return meta_len, bool(flags & _FLAG_COMMITTED)


class WriteAheadLog:
    """Append-only durable mutation log with crash-consistent open.

    Opening read-write scans the whole file, truncates any torn tail, and
    leaves the log positioned for appends; every :meth:`append` is fsynced
    before its sequence number is returned, which is the acknowledgement
    point for the serve tier.  Opening ``read_only=True`` (worker
    processes sharing the supervisor's log) serves the valid prefix and
    never writes — a torn tail is simply ignored.

    Attributes
    ----------
    last_seq:
        Sequence number of the newest durable record (0 when empty).
    appended / replayed:
        Process-local operation counters, mirrored to the ``wal.*``
        metrics namespace.
    last_fsync_s:
        Duration of the most recent append's fsync, for stats surfaces.
    """

    def __init__(self, path: str, *, read_only: bool = False) -> None:
        if path.endswith(".tmp"):
            raise ParameterError(
                f"refusing to open a mutation log at a temp path: {path}"
            )
        self.path = path
        self.read_only = read_only
        self.appended = 0
        self.replayed = 0
        self.last_fsync_s = 0.0
        self._records: list[dict] = []
        self._fh = None
        self._closed = False
        exists = os.path.exists(path)
        if not exists:
            if read_only:
                raise OSError(f"mutation log missing: {path}")
            self._create()
            return
        with open(path, "rb") as fh:
            buf = fh.read()
        meta_len, committed = _read_header(buf, path)
        if meta_len < 0 or not committed:
            # Crashed creation: nothing was ever acknowledged from this
            # file, so a fresh log is the correct recovery.
            if read_only:
                raise WalCorruptError(
                    f"{path}: uncommitted mutation log (crashed creation?)"
                )
            self._create()
            return
        records_off = self._check_meta(buf, meta_len)
        scan = _scan_records(buf, path, records_off)
        self._records = scan.records
        if read_only:
            return
        self._fh = open(path, "r+b")
        if scan.error is not None:
            # Torn tail: the residue of an unacknowledged append.
            _obs_add("wal.truncated")
            _fault("wal.replay.truncate")
            self._fh.truncate(scan.valid_end)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self._fh.seek(0, os.SEEK_END)

    def _check_meta(self, buf: bytes, meta_len: int) -> int:
        """Validate the meta section; returns the record-region offset."""
        pad = (-meta_len) % 8
        records_off = _HEADER.size + meta_len + pad + _TRAILER.size
        if records_off > len(buf):
            raise WalCorruptError(
                f"{self.path}: truncated meta section "
                f"(need {records_off} bytes, file has {len(buf)})"
            )
        padded = buf[_HEADER.size:_HEADER.size + meta_len + pad]
        stored, zero = _TRAILER.unpack_from(buf, _HEADER.size + meta_len + pad)
        if zero != 0 or zlib.crc32(padded) != stored:
            # The meta section was fsynced before the commit flag flipped,
            # so a committed header with a bad meta is rot, not a crash.
            raise WalCorruptError(
                f"{self.path}: meta section CRC mismatch"
            )
        try:
            meta = json.loads(padded[:meta_len].decode("utf-8"))
            str(meta["format"])
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError,
                TypeError) as exc:
            raise WalCorruptError(
                f"{self.path}: meta section does not decode: {exc}"
            ) from None
        return records_off

    def _create(self) -> None:
        meta = {"format": "repro-mutation-wal", "version": FORMAT_VERSION}
        meta_payload = json.dumps(meta, sort_keys=True).encode("utf-8")
        meta_section = _section(meta_payload)
        fh = open(self.path, "w+b")
        try:
            _write_blob(fh, "wal.append.header",
                        header_bytes(MAGIC, FORMAT_VERSION, len(meta_payload),
                                     committed=False))
            _write_blob(fh, "wal.append.meta", meta_section)
            fh.flush()
            os.fsync(fh.fileno())
            # Commit point: the header flips only after the meta is
            # durable.  No rename dance is needed — an empty committed
            # log is valid, and nothing is acknowledged before this.
            fh.seek(0)
            _write_blob(fh, "wal.append.commit_header",
                        header_bytes(MAGIC, FORMAT_VERSION, len(meta_payload),
                                     committed=True))
            fh.flush()
            os.fsync(fh.fileno())
        except BaseException:
            with contextlib.suppress(OSError):
                fh.close()
            raise
        fh.seek(0, os.SEEK_END)
        self._fh = fh

    # -- append / read -------------------------------------------------
    @property
    def last_seq(self) -> int:
        return len(self._records)

    def append(self, mutation: dict) -> int:
        """Durably log one mutation; returns its sequence number.

        The record is written in a single fault-instrumented write and
        fsynced before this method returns — there is no code path on
        which a caller holds a sequence number whose record is not on
        disk, and no path on which a record survives a crash without its
        sequence number having been handed out *unless* it is the torn
        tail that the next open truncates.
        """
        if self.read_only or self._fh is None:
            raise ParameterError(
                f"mutation log {self.path} is open read-only"
            )
        seq = self.last_seq + 1
        blob = _record_bytes(seq, _canonical_payload(mutation))
        _write_blob(self._fh, "wal.append.record", blob)
        self._fh.flush()
        started = time.perf_counter()
        os.fsync(self._fh.fileno())
        self.last_fsync_s = time.perf_counter() - started
        self._records.append(dict(mutation))
        self.appended += 1
        _obs_add("wal.appended")
        _METRICS.histogram("wal.fsync_latency").observe(self.last_fsync_s)
        return seq

    def records(self, from_seq: int = 0):
        """Yield ``(seq, mutation)`` for every record with seq > from_seq."""
        for index in range(max(from_seq, 0), len(self._records)):
            yield index + 1, dict(self._records[index])

    def replay(self, apply, from_seq: int = 0, to_seq: int | None = None):
        """Hand each logged mutation after ``from_seq`` to ``apply``.

        ``apply(seq, mutation)`` is invoked in sequence order; the
        ``wal.replay.record`` fault site fires before each call, so kill
        and crash faults land *between* durably-logged records — replay
        after such a death is idempotent because the applier skips
        sequence numbers at or below its epoch.  Returns the number of
        records delivered.
        """
        last = self.last_seq if to_seq is None else min(to_seq, self.last_seq)
        delivered = 0
        for seq, mutation in self.records(from_seq):
            if seq > last:
                break
            _fault("wal.replay.record")
            apply(seq, mutation)
            delivered += 1
            self.replayed += 1
            _obs_add("wal.replayed")
        return delivered

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            with contextlib.suppress(OSError):
                self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def verify_wal(path: str) -> list:
    """Offline verification for ``repro wal verify``: returns
    :class:`~repro.storage.verify.Finding` objects instead of raising, so
    one pass reports all detectable damage.  Read-only.

    A torn tail is reported as a *warning* (it is recoverable — the next
    read-write open truncates it); mid-log corruption, header damage, and
    sequence discontinuities are errors.
    """
    from repro.storage.verify import Finding

    findings: list = []
    if not os.path.exists(path):
        return [Finding("error", "wal", f"mutation log missing: {path}")]
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        return [Finding("error", "wal", f"cannot open mutation log: {exc}")]
    try:
        meta_len, committed = _read_header(buf, path)
    except WalCorruptError as exc:
        return [Finding("error", "wal", str(exc), offset=0)]
    if meta_len < 0:
        return [Finding(
            "error", "wal",
            "damaged header (crashed creation?) — a read-write open "
            "would recreate the log",
            offset=0,
        )]
    if not committed:
        return [Finding(
            "warning", "wal",
            "uncommitted mutation log (crashed creation) — a read-write "
            "open recreates it; nothing was ever acknowledged",
            offset=0,
        )]
    probe = WriteAheadLog.__new__(WriteAheadLog)
    probe.path = path
    try:
        records_off = probe._check_meta(buf, meta_len)
    except WalCorruptError as exc:
        return [Finding("error", "wal", str(exc), offset=_HEADER.size)]
    try:
        scan = _scan_records(buf, path, records_off)
    except WalCorruptError as exc:
        findings.append(Finding("error", "wal", str(exc)))
        return findings
    if scan.error is not None:
        findings.append(Finding(
            "warning", "wal",
            f"torn tail: {scan.error} — {len(buf) - scan.valid_end} "
            "trailing byte(s) will be truncated on the next read-write "
            "open",
            offset=scan.valid_end,
        ))
    return findings
