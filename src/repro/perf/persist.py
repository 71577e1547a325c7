"""Persistent, integrity-checked landmark indexes (the ``RLIX`` format).

A :class:`~repro.perf.LandmarkIndex` costs one full Dijkstra per landmark
to build — cheap once, wasteful when every serve worker process repeats it
on start *and again on every crash-restart*.  This module makes the index
a durable artifact instead: build once offline (``repro index build``),
then every worker maps the same file read-only, so N processes share one
build and a restarted worker is ready in milliseconds.

On-disk layout (``RLIX``, little-endian, format version 1)::

    offset 0   header (16 bytes)
               <4s H H I I> = magic b"RLIX", format version, flags
               (bit 0 = committed), meta length, CRC32 of bytes [0:12)
    offset 16  meta section: UTF-8 JSON padded with spaces to an 8-byte
               boundary, then an 8-byte trailer <I I> = CRC32, 0
    then       nodes section: num_nodes int64 node ids, ascending,
               then the 8-byte CRC trailer
    then       tables section: num_landmarks x num_nodes float64
               distances (row l = distances from landmark l, ``inf``
               where unreached), then the 8-byte CRC trailer

The header and the section framing are :mod:`repro.framing`'s, shared
with the ``RWAL`` mutation log.  The nodes and tables sections are the
index's own ``ids`` and ``tables`` arrays byte for byte: :func:`save_index`
writes them as they are, and :func:`load_index` returns a
:class:`~repro.perf.LandmarkIndex` whose arrays are zero-copy views over
the mapped file — one class, one bound arithmetic, for built and loaded
indexes alike.

Every byte of the file is covered by a checksum — the header by its own
CRC, each section (padding included) by its trailer, and a flip inside a
trailer fails the comparison itself — so *any* single-bit corruption is
detected at load time with a typed :class:`~repro.exceptions
.IndexCorruptError`.  The trailer's high word must read zero, which keeps
section payloads 8-byte aligned for zero-copy ``numpy.frombuffer`` views
over the mmap.

The meta JSON binds the artifact to its source data: it records a
:func:`network_fingerprint` (SHA-256 over the sorted node ids and
canonical weighted edges — identical for the in-memory network, the
workload JSON, and the paged :class:`~repro.storage.NetworkStore`, since
all three expose the same traversal protocol), the landmark count, the
selection seed, and the format version.  Loading against a network whose
fingerprint differs raises :class:`~repro.exceptions.IndexStaleError`
instead of silently serving wrong bounds; so does a format-version skew.

Writes are crash-consistent the same way :meth:`NetworkStore.build` is:
everything goes to ``path + ".tmp"``, the header is first written
*uncommitted*, the commit flag is set only after the payload is fsynced,
and the temp file is renamed over the target last.  Loaders refuse
``.tmp`` paths and uncommitted files, and every write passes through the
:mod:`repro.faults` sites in :data:`BUILD_WRITE_SITES` so the standard
crash/torn sweeps apply (``tests/test_index_persist.py``).

Consumers should not let a bad artifact take a worker down:
:func:`load_index_or_degrade` maps every load failure — missing file,
corrupt section, stale fingerprint, version skew — to ``(None, reason)``
and bumps the ``perf.index.degraded`` counter, so callers fall back to
the unaccelerated (still bit-identical) query path.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
import struct
import zlib

import numpy as np

from repro.exceptions import IndexCorruptError, IndexStaleError, ParameterError
from repro.faults.core import CrashPoint, fire as _fault
from repro.framing import (
    FLAG_COMMITTED as _FLAG_COMMITTED,
    HEADER as _HEADER,
    TRAILER as _TRAILER,
    header_bytes,
    section as _section,
    write_blob as _write_blob,
)
from repro.obs.core import add as _obs_add, span as _span
from repro.perf.landmarks import LandmarkIndex

__all__ = [
    "BUILD_WRITE_SITES",
    "FORMAT_VERSION",
    "build_index_file",
    "load_index",
    "load_index_or_degrade",
    "network_fingerprint",
    "save_index",
    "verify_index",
]

MAGIC = b"RLIX"
FORMAT_VERSION = 1

#: Every site through which build-time bytes reach the disk, in write
#: order — the crash/torn sweep in ``tests/test_index_persist.py``
#: injects at each one.
BUILD_WRITE_SITES = (
    "index.build.header",
    "index.build.meta",
    "index.build.nodes",
    "index.build.tables",
    "index.build.commit_header",
    "index.build.commit",
)

def network_fingerprint(network) -> str:
    """SHA-256 content fingerprint of a network's nodes and weighted edges.

    Backend-independent: computed from the traversal protocol (sorted node
    ids, canonical ``(u, v, weight)`` triples with ``u < v``), so the
    in-memory :class:`~repro.network.SpatialNetwork`, a workload JSON just
    loaded from disk, and the paged :class:`~repro.storage.NetworkStore`
    all fingerprint identically when they hold the same graph.  Weights
    hash as their exact float64 bytes — a one-ULP reweigh changes the
    fingerprint.
    """
    digest = hashlib.sha256()
    for node in sorted(network.nodes()):
        digest.update(struct.pack("<q", node))
    digest.update(b"|edges|")
    for u, v, w in sorted(network.edges()):
        digest.update(struct.pack("<qqd", u, v, w))
    return digest.hexdigest()


def save_index(path: str, index: LandmarkIndex, network, *,
               seed: int = 0) -> dict:
    """Persist a :class:`LandmarkIndex` (built or loaded) atomically as
    ``RLIX``.

    Everything is written to ``path + ".tmp"`` (uncommitted header first,
    commit flag set only after the payload is fsynced) and renamed over
    ``path`` last, so a crash at any write site leaves either no artifact
    or a fully valid one — never a half-built file at the target path.
    Returns a summary dict (landmarks, nodes, bytes, fingerprint).
    """
    if path.endswith(".tmp"):
        raise ParameterError(
            f"refusing to write an index at a temp path: {path}"
        )
    if index.ids.tolist() != sorted(network.nodes()):
        raise ParameterError(
            "the index does not cover exactly the network's nodes"
        )
    meta = {
        "format": "repro-landmark-index",
        "version": FORMAT_VERSION,
        "fingerprint": network_fingerprint(network),
        "num_landmarks": len(index),
        "num_nodes": len(index.ids),
        "landmarks": list(index.landmarks),
        "scale": index.scale,
        "seed": int(seed),
    }
    meta_section = _section(json.dumps(meta, sort_keys=True).encode("utf-8"))
    nodes_section = _section(index.ids.tobytes())
    tables_section = _section(index.tables.tobytes())
    meta_len = len(meta_section) - _TRAILER.size
    tmp = path + ".tmp"
    if os.path.exists(tmp):
        # Leftover from a crashed build: stale by construction, replaced.
        os.remove(tmp)
    try:
        with open(tmp, "wb") as fh:
            _write_blob(fh, "index.build.header",
                        header_bytes(MAGIC, FORMAT_VERSION, meta_len,
                                     committed=False))
            _write_blob(fh, "index.build.meta", meta_section)
            _write_blob(fh, "index.build.nodes", nodes_section)
            _write_blob(fh, "index.build.tables", tables_section)
            fh.flush()
            os.fsync(fh.fileno())
            # Commit point: only after every payload byte is durable does
            # the header flip to committed — a torn tail can never read
            # as a valid index.
            fh.seek(0)
            _write_blob(fh, "index.build.commit_header",
                        header_bytes(MAGIC, FORMAT_VERSION, meta_len,
                                     committed=True))
            fh.flush()
            os.fsync(fh.fileno())
    except CrashPoint:
        raise  # simulated power loss: leave the temp file exactly as-is
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    _fault("index.build.commit")
    os.replace(tmp, path)
    return {
        "path": path,
        "landmarks": len(index),
        "nodes": len(index.ids),
        "bytes": _HEADER.size + len(meta_section) + len(nodes_section)
        + len(tables_section),
        "fingerprint": meta["fingerprint"],
    }


def build_index_file(path: str, network, *, num_landmarks: int = 8,
                     seed: int = 0) -> dict:
    """Build a fresh landmark index over ``network`` and persist it."""
    with _span("perf.index.build"):
        index = LandmarkIndex(network, num_landmarks)
        return save_index(path, index, network, seed=seed)


class _Reader:
    """Validated access to one RLIX file's bytes (mmap when possible)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "rb")
        self.size = os.fstat(self._fh.fileno()).st_size
        try:
            self.buf = mmap.mmap(self._fh.fileno(), 0,
                                 access=mmap.ACCESS_READ)
            self._mapped = True
        except (ValueError, OSError):
            # Empty or unmappable file: fall back to a plain read; the
            # size checks below reject anything actually damaged.
            self.buf = self._fh.read()
            self._mapped = False

    def close(self) -> None:
        if self._mapped:
            with contextlib.suppress(BufferError):
                self.buf.close()
        self._fh.close()

    def section(self, offset: int, payload_len: int) -> memoryview:
        """CRC-verified view of the section payload at ``offset``."""
        end = offset + payload_len + _TRAILER.size
        if end > self.size:
            raise IndexCorruptError(
                f"{self.path}: truncated section at offset {offset} "
                f"(need {end} bytes, file has {self.size})"
            )
        view = memoryview(self.buf)
        payload = view[offset:offset + payload_len]
        stored, zero = _TRAILER.unpack_from(self.buf, offset + payload_len)
        if zero != 0:
            raise IndexCorruptError(
                f"{self.path}: section trailer at offset "
                f"{offset + payload_len} has a non-zero pad word"
            )
        if zlib.crc32(payload) != stored:
            raise IndexCorruptError(
                f"{self.path}: section CRC mismatch at offset {offset}"
            )
        return payload


def _read_header(reader: _Reader) -> int:
    """Validate the header; returns the meta section's payload length."""
    if reader.size < _HEADER.size:
        raise IndexCorruptError(
            f"{reader.path}: truncated header "
            f"({reader.size} bytes, need {_HEADER.size})"
        )
    head = bytes(reader.buf[:_HEADER.size])
    magic, version, flags, meta_len, stored = _HEADER.unpack(head)
    if magic != MAGIC:
        raise IndexCorruptError(
            f"{reader.path}: not an RLIX landmark index (magic {magic!r})"
        )
    if zlib.crc32(head[:-4]) != stored:
        raise IndexCorruptError(f"{reader.path}: header CRC mismatch")
    if version != FORMAT_VERSION:
        raise IndexStaleError(
            f"{reader.path}: format version skew — file is v{version}, "
            f"this build reads v{FORMAT_VERSION}; rebuild the index"
        )
    if not flags & _FLAG_COMMITTED:
        raise IndexCorruptError(
            f"{reader.path}: uncommitted index (crashed build?) — "
            "refusing to serve bounds from it"
        )
    return meta_len


def _parse_meta(reader: _Reader, meta_len: int) -> dict:
    payload = reader.section(_HEADER.size, meta_len)
    try:
        meta = json.loads(bytes(payload).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexCorruptError(
            f"{reader.path}: meta section does not decode: {exc}"
        ) from None
    try:
        num_landmarks = int(meta["num_landmarks"])
        num_nodes = int(meta["num_nodes"])
        landmarks = [int(x) for x in meta["landmarks"]]
        float(meta["scale"])
        str(meta["fingerprint"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexCorruptError(
            f"{reader.path}: meta section is inconsistent: {exc}"
        ) from None
    if len(landmarks) != num_landmarks or num_landmarks < 0 or num_nodes < 0:
        raise IndexCorruptError(
            f"{reader.path}: meta counts are inconsistent "
            f"({num_landmarks} landmarks, {len(landmarks)} listed)"
        )
    return meta


def _section_layout(meta: dict, meta_len: int) -> tuple[int, int, int, int]:
    """(nodes_off, nodes_len, tables_off, tables_len) from the meta."""
    num_landmarks = int(meta["num_landmarks"])
    num_nodes = int(meta["num_nodes"])
    nodes_off = _HEADER.size + meta_len + _TRAILER.size
    nodes_len = num_nodes * 8
    tables_off = nodes_off + nodes_len + _TRAILER.size
    tables_len = num_landmarks * num_nodes * 8
    return nodes_off, nodes_len, tables_off, tables_len


def load_index(path: str, network) -> LandmarkIndex:
    """Open a persisted index read-only, verifying every byte first.

    The returned :class:`LandmarkIndex` views the mapped file; its
    :meth:`~LandmarkIndex.close` unmaps it.

    Raises
    ------
    IndexCorruptError
        Bad magic, header/section CRC mismatch, truncated tail, non-zero
        trailer padding, undecodable meta, or an uncommitted file — any
        single-bit flip anywhere in the file lands here (or in the stale
        class below when it flips the version field's *valid* encoding).
    IndexStaleError
        The file is valid but does not belong to ``network`` (fingerprint
        mismatch) or was written by a different format version.
    OSError
        The file is missing or unreadable.

    The whole file is checksummed eagerly — the one sequential pass also
    warms the page cache the mmap reads from — so a worker that gets past
    this call can never SIGBUS or serve a wrong bound off a bad page.
    """
    if path.endswith(".tmp"):
        raise IndexCorruptError(
            f"{path}: refusing an uncommitted temp index file"
        )
    reader = _Reader(path)
    try:
        meta_len = _read_header(reader)
        meta = _parse_meta(reader, meta_len)
        nodes_off, nodes_len, tables_off, tables_len = _section_layout(
            meta, meta_len
        )
        expected = tables_off + tables_len + _TRAILER.size
        if reader.size != expected:
            raise IndexCorruptError(
                f"{path}: file size {reader.size} does not match the "
                f"declared layout ({expected} bytes)"
            )
        nodes_view = reader.section(nodes_off, nodes_len)
        tables_view = reader.section(tables_off, tables_len)
        fingerprint = network_fingerprint(network)
        if meta["fingerprint"] != fingerprint:
            raise IndexStaleError(
                f"{path}: index fingerprint {meta['fingerprint'][:12]}… "
                f"does not match the served network "
                f"({fingerprint[:12]}…); rebuild with `repro index build`"
            )
        num_nodes = int(meta["num_nodes"])
        ids = np.frombuffer(nodes_view, dtype=np.int64, count=num_nodes)
        if num_nodes > 1 and not bool(np.all(ids[:-1] < ids[1:])):
            raise IndexCorruptError(
                f"{path}: node-id section is not strictly ascending"
            )
        tables = np.frombuffer(
            tables_view, dtype=np.float64,
            count=int(meta["num_landmarks"]) * num_nodes,
        ).reshape(int(meta["num_landmarks"]), num_nodes)
    except BaseException:
        reader.close()
        raise
    return LandmarkIndex.from_tables(network, meta["landmarks"], ids, tables,
                                     meta["scale"], reader)


def load_index_or_degrade(path: str, network):
    """(index, None) on success; (None, reason) on *any* load failure.

    The graceful-degradation seam for the serve tier: a missing, corrupt,
    stale, or version-skewed artifact must cost a worker its acceleration,
    never its life.  Every failure bumps the ``perf.index.degraded``
    counter and is summarised in ``reason``; successes bump
    ``perf.index.loaded``.
    """
    try:
        index = load_index(path, network)
    except (OSError, ParameterError, IndexCorruptError,
            IndexStaleError) as exc:
        _obs_add("perf.index.degraded")
        return None, f"{type(exc).__name__}: {exc}"
    _obs_add("perf.index.loaded")
    return index, None


def verify_index(path: str, network=None) -> list:
    """Offline verification for ``repro check --index`` / ``repro index
    check``: returns :class:`~repro.storage.verify.Finding` objects
    instead of raising, so one pass reports all detectable damage.

    Checks the header (magic, CRC, version, commit flag), the declared
    layout against the physical file size, every section CRC, the meta
    structure, and — when a ``network`` is supplied — the content
    fingerprint.  Read-only.
    """
    from repro.storage.verify import Finding

    findings: list = []
    if not os.path.exists(path):
        return [Finding("error", "index", f"index file missing: {path}")]
    if path.endswith(".tmp"):
        findings.append(Finding(
            "warning", "index",
            "examining an uncommitted temp index file",
        ))
    try:
        reader = _Reader(path)
    except OSError as exc:
        return [Finding("error", "index", f"cannot open index: {exc}")]
    try:
        try:
            meta_len = _read_header(reader)
        except (IndexCorruptError, IndexStaleError) as exc:
            findings.append(Finding("error", "index", str(exc), offset=0))
            return findings
        try:
            meta = _parse_meta(reader, meta_len)
        except IndexCorruptError as exc:
            findings.append(Finding(
                "error", "index", str(exc), offset=_HEADER.size
            ))
            return findings
        nodes_off, nodes_len, tables_off, tables_len = _section_layout(
            meta, meta_len
        )
        expected = tables_off + tables_len + _TRAILER.size
        if reader.size != expected:
            findings.append(Finding(
                "error", "index",
                f"file size {reader.size} does not match the declared "
                f"layout ({expected} bytes)",
            ))
        for name, off, length in (
            ("nodes", nodes_off, nodes_len),
            ("tables", tables_off, tables_len),
        ):
            try:
                reader.section(off, length)
            except IndexCorruptError as exc:
                findings.append(Finding(
                    "error", "index", f"{name} section: {exc}", offset=off
                ))
        if network is not None:
            fingerprint = network_fingerprint(network)
            if meta["fingerprint"] != fingerprint:
                findings.append(Finding(
                    "error", "index",
                    f"stale index: fingerprint "
                    f"{meta['fingerprint'][:12]}… does not match the "
                    f"network ({fingerprint[:12]}…)",
                ))
    finally:
        reader.close()
    return findings
