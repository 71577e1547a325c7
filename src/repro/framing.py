"""CRC-framed file writing for the ``RWAL`` mutation log.

The format opens with a 16-byte header ``<4s H H I I>`` = magic, format
version, flags (bit 0 = committed), meta length, CRC32 of bytes
``[0:12)``, and frames a section as the payload padded with spaces to an
8-byte boundary, then an 8-byte trailer ``<I I>`` = CRC32 of the padded
payload and a zero word that keeps the next section aligned.  The reader
stays with the log (:mod:`repro.live.wal`), with its error types and its
torn-tail recovery.
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.faults.core import CrashPoint, fire as _fault, tear as _tear

HEADER = struct.Struct("<4sHHII")
TRAILER = struct.Struct("<II")
FLAG_COMMITTED = 0x1


def section(payload: bytes) -> bytes:
    """Payload padded to an 8-byte boundary plus its CRC trailer."""
    padded = payload + b" " * ((-len(payload)) % 8)
    return padded + TRAILER.pack(zlib.crc32(padded), 0)


def header_bytes(magic: bytes, version: int, meta_len: int,
                 committed: bool) -> bytes:
    """The 16-byte header, its CRC over the first 12 bytes."""
    flags = FLAG_COMMITTED if committed else 0
    prefix = HEADER.pack(magic, version, flags, meta_len, 0)[:-4]
    return prefix + struct.pack("<I", zlib.crc32(prefix))


def write_blob(fh, site: str, payload: bytes) -> None:
    """One fault-instrumented physical write (error / crash / torn)."""
    _fault(site)
    torn = _tear(site, len(payload))
    if torn is not None:
        fh.write(payload[:torn])
        fh.flush()
        os.fsync(fh.fileno())
        raise CrashPoint(f"torn write at {site}")
    fh.write(payload)
