"""Flat record files over slotted pages.

The paper stores adjacency lists and point groups "in two separate flat
files ... indexed by B+ trees".  :class:`RecordFile` provides that flat-file
layer: variable-length byte records appended to slotted 4 KB pages, each
record addressed by a compact integer *rid* (page id and slot number).
Records larger than a page spill into a chain of overflow pages, so
arbitrarily long adjacency lists and point groups are supported.

Page layout (slotted page)::

    [n_slots: u16][free_end: u16] [slot 0: off u16, len u16] [slot 1] ...
    ... free space ...  [record data packed from the page end backwards]

Overflow records are stored as a stub in the slotted page —
``(OVERFLOW_TAG: u16, total_len: u32, first_overflow_pid: u64)`` — with the
payload in a chain of dedicated pages, each ``[next_pid: u64][payload]``.

:meth:`RecordFile.read_decoded` memoises a caller's decode of an inline
record beside its page frame (see :meth:`BufferManager.read_decoded`), so
a record read again while its page is resident is not parsed again.
Overflow records span pages with independent lifetimes and are decoded
afresh on every read.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from typing import Any

from repro.exceptions import PageError, StorageError
from repro.faults.core import STATE as _FAULTS, fire as _fault
from repro.storage.pager import BufferManager

__all__ = ["RecordFile", "rid_encode", "rid_decode"]

_PAGE_HEADER = struct.Struct("<HH")  # n_slots, free_end
_SLOT = struct.Struct("<HH")  # offset, length (high bit: overflow stub)
_OVERFLOW_STUB = struct.Struct("<IQ")  # total_len, first_pid
_OVERFLOW_FLAG = 0x8000  # set in the slot length for overflow stubs
_CHAIN_HEADER = struct.Struct("<Q")  # next page id (0 = end)


def rid_encode(page_id: int, slot: int) -> int:
    """Pack a (page, slot) address into one integer record id."""
    if slot < 0 or slot >= (1 << 16):
        raise PageError(f"slot {slot} out of range")
    return (page_id << 16) | slot


def rid_decode(rid: int) -> tuple[int, int]:
    """Unpack a record id into (page, slot)."""
    return rid >> 16, rid & 0xFFFF


class _SlottedPage:
    """A parsed slotted page, memoised with its frame by the buffer.

    ``memo`` maps a slot to ``(decode, decode(record))`` for callers of
    :meth:`RecordFile.read_decoded`; it dies with the frame.
    """

    __slots__ = ("raw", "n_slots", "memo")

    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.n_slots = _PAGE_HEADER.unpack_from(raw, 0)[0]
        self.memo: dict[int, tuple[Callable[[bytes], Any], Any]] = {}

    def record(self, rid: int, slot: int) -> tuple[bytes, bool]:
        """(bytes, is_overflow_stub) of one slot."""
        if slot >= self.n_slots:
            raise PageError(f"rid {rid}: slot {slot} beyond {self.n_slots} slots")
        offset, length = _SLOT.unpack_from(
            self.raw, _PAGE_HEADER.size + slot * _SLOT.size
        )
        is_overflow = bool(length & _OVERFLOW_FLAG)
        length &= ~_OVERFLOW_FLAG
        return self.raw[offset : offset + length], is_overflow


class RecordFile:
    """Append-and-read variable-length records in a paged file region.

    Multiple record files can share one :class:`BufferManager`; each keeps
    its own current fill page.  Records are immutable once appended (the
    access pattern of the paper's storage model: build once, read many).
    """

    def __init__(self, buffer: BufferManager, current_page: int = 0) -> None:
        self.buffer = buffer
        self._current = current_page  # 0 = allocate on first append

    @property
    def current_page(self) -> int:
        """The page currently being filled (persist to reopen the file)."""
        return self._current

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def append(self, data: bytes) -> int:
        """Store a record, returning its rid."""
        if _FAULTS.engaged:
            _fault("flatfile.append")
        max_inline = min(
            self.buffer.file.page_size - _PAGE_HEADER.size - _SLOT.size,
            _OVERFLOW_FLAG - 1,  # the length field's high bit is the flag
        )
        if len(data) > max_inline:
            return self._append_overflow(data)
        return self._append_inline(data)

    def _page_state(self, pid: int) -> tuple[bytearray, int, int]:
        raw = bytearray(self.buffer.read(pid))
        n_slots, free_end = _PAGE_HEADER.unpack_from(raw, 0)
        if free_end == 0:  # freshly allocated page
            free_end = self.buffer.file.page_size
        return raw, n_slots, free_end

    def _append_inline(self, data: bytes, overflow: bool = False) -> int:
        page_size = self.buffer.file.page_size
        if self._current == 0:
            self._current = self.buffer.allocate()
        raw, n_slots, free_end = self._page_state(self._current)
        slot_dir_end = _PAGE_HEADER.size + (n_slots + 1) * _SLOT.size
        if free_end - len(data) < slot_dir_end:
            # No room: start a fresh page.
            self._current = self.buffer.allocate()
            raw, n_slots, free_end = self._page_state(self._current)
            slot_dir_end = _PAGE_HEADER.size + (n_slots + 1) * _SLOT.size
            if free_end - len(data) < slot_dir_end:
                raise StorageError("record does not fit an empty page")
        offset = free_end - len(data)
        raw[offset:free_end] = data
        length = len(data) | (_OVERFLOW_FLAG if overflow else 0)
        _SLOT.pack_into(raw, _PAGE_HEADER.size + n_slots * _SLOT.size, offset, length)
        _PAGE_HEADER.pack_into(raw, 0, n_slots + 1, offset)
        self.buffer.write(self._current, bytes(raw))
        assert len(raw) == page_size
        return rid_encode(self._current, n_slots)

    def _append_overflow(self, data: bytes) -> int:
        page_size = self.buffer.file.page_size
        chunk_capacity = page_size - _CHAIN_HEADER.size
        # Write the chain back-to-front so each page knows its successor.
        chunks = [data[i : i + chunk_capacity] for i in range(0, len(data), chunk_capacity)]
        next_pid = 0
        for chunk in reversed(chunks):
            pid = self.buffer.allocate()
            page = _CHAIN_HEADER.pack(next_pid) + chunk
            self.buffer.write(pid, page)
            next_pid = pid
        stub = _OVERFLOW_STUB.pack(len(data), next_pid)
        return self._append_inline(stub, overflow=True)

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def read(self, rid: int) -> bytes:
        """Record contents for a rid returned by :meth:`append`."""
        pid, slot = rid_decode(rid)
        page = self.buffer.read_decoded(pid, _SlottedPage)
        data, is_overflow = page.record(rid, slot)
        if is_overflow:
            return self._read_overflow(data)
        return data

    def read_decoded(self, rid: int, decode: Callable[[bytes], Any]) -> Any:
        """``decode(record)``, decoded once while the record's page is
        resident; the same page reads as :meth:`read`.

        The result is shared by later callers: treat it as read-only.
        ``decode`` is matched by identity, as in
        :meth:`BufferManager.read_decoded`.
        """
        pid, slot = rid_decode(rid)
        page = self.buffer.read_decoded(pid, _SlottedPage)
        memo = page.memo.get(slot)
        if memo is not None and memo[0] is decode:
            return memo[1]
        data, is_overflow = page.record(rid, slot)
        if is_overflow:
            return decode(self._read_overflow(data))
        value = decode(data)
        page.memo[slot] = (decode, value)
        return value

    def _read_overflow(self, stub: bytes) -> bytes:
        total_len, first_pid = _OVERFLOW_STUB.unpack(stub)
        return self._read_chain(first_pid, total_len)

    def _read_chain(self, first_pid: int, total_len: int) -> bytes:
        out = bytearray()
        pid = first_pid
        chunk_capacity = self.buffer.file.page_size - _CHAIN_HEADER.size
        while pid != 0 and len(out) < total_len:
            raw = self.buffer.read(pid)
            (next_pid,) = _CHAIN_HEADER.unpack_from(raw, 0)
            need = min(chunk_capacity, total_len - len(out))
            out += raw[_CHAIN_HEADER.size : _CHAIN_HEADER.size + need]
            pid = next_pid
        if len(out) != total_len:
            raise StorageError("truncated overflow chain")
        return bytes(out)
