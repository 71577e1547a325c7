"""Tests for the paged file and LRU buffer manager."""

from __future__ import annotations

import pytest

from repro.exceptions import PageError, StorageError
from repro.storage.pager import BufferManager, PagedFile


@pytest.fixture
def paged(tmp_path):
    f = PagedFile(tmp_path / "test.db", page_size=512)
    yield f
    f.close()


class TestPagedFile:
    def test_new_file_has_header_page(self, paged):
        assert paged.num_pages == 1
        assert paged.page_size == 512

    def test_allocate_and_rw(self, paged):
        pid = paged.allocate()
        assert pid == 1
        paged.write_page(pid, b"hello")
        assert paged.read_page(pid)[:5] == b"hello"
        assert paged.read_page(pid)[5:] == b"\x00" * (512 - 5)

    def test_page_id_validation(self, paged):
        with pytest.raises(PageError):
            paged.read_page(0)  # header page is not directly accessible
        with pytest.raises(PageError):
            paged.read_page(99)

    def test_oversized_write_rejected(self, paged):
        pid = paged.allocate()
        with pytest.raises(PageError):
            paged.write_page(pid, b"x" * 513)

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "persist.db"
        with PagedFile(path, page_size=512) as f:
            pid = f.allocate()
            f.write_page(pid, b"durable")
            f.set_meta(b"root=7")
        with PagedFile(path) as f:
            assert f.page_size == 512
            assert f.num_pages == 2
            assert f.read_page(pid)[:7] == b"durable"
            assert f.get_meta() == b"root=7"

    def test_magic_validation(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"not a paged file" * 100)
        with pytest.raises(StorageError):
            PagedFile(path)

    def test_meta_capacity(self, paged):
        with pytest.raises(StorageError):
            paged.set_meta(b"x" * 1000)

    def test_io_counters(self, paged):
        pid = paged.allocate()
        paged.write_page(pid, b"a")
        paged.read_page(pid)
        assert paged.writes == 1
        assert paged.reads == 1

    def test_tiny_page_size_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            PagedFile(tmp_path / "tiny.db", page_size=16)


class TestBufferManager:
    def test_read_caches(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 4)
        pid = paged.allocate()
        paged.write_page(pid, b"cached")
        buf.read(pid)
        buf.read(pid)
        assert buf.hits == 1
        assert buf.misses == 1
        assert paged.reads == 1

    def test_write_back_on_flush(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 4)
        pid = buf.allocate()
        buf.write(pid, b"dirty")
        assert paged.writes == 0  # not yet written through
        buf.flush()
        assert paged.writes == 1
        assert paged.read_page(pid)[:5] == b"dirty"

    def test_eviction_writes_dirty_pages(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 2)  # 2 frames
        pids = [buf.allocate() for _ in range(3)]
        for i, pid in enumerate(pids):
            buf.write(pid, bytes([i]) * 8)
        assert buf.evictions >= 1
        # The evicted dirty page reached the file and reads back correctly.
        buf.flush()
        for i, pid in enumerate(pids):
            assert paged.read_page(pid)[:8] == bytes([i]) * 8

    def test_lru_order(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 2)
        a, b, c = (buf.allocate() for _ in range(3))
        for pid in (a, b, c):
            paged.write_page(pid, b"x")
        buf.read(a)
        buf.read(b)
        buf.read(a)  # a is now most recent
        buf.read(c)  # evicts b
        buf.read(a)
        assert buf.hits == 2  # the re-read of a (twice)

    def test_read_through_after_eviction(self, paged):
        buf = BufferManager(paged, capacity_bytes=512)  # 1 frame
        a = buf.allocate()
        b = buf.allocate()
        buf.write(a, b"page-a")
        buf.write(b, b"page-b")  # evicts and persists a
        assert buf.read(a)[:6] == b"page-a"

    def test_capacity_minimum_one(self, paged):
        buf = BufferManager(paged, capacity_bytes=1)
        assert buf.capacity_pages == 1

    def test_stats_and_reset(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 4)
        pid = buf.allocate()
        buf.write(pid, b"x")
        buf.read(pid)
        stats = buf.stats()
        assert stats["buffer_hits"] == 1
        buf.reset_stats()
        assert buf.stats()["buffer_hits"] == 0

    def test_drop_cache_forces_reread(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 4)
        pid = buf.allocate()
        buf.write(pid, b"x")
        buf.drop_cache()
        buf.read(pid)
        assert buf.misses == 1

    def test_oversized_write_rejected(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 4)
        pid = buf.allocate()
        with pytest.raises(PageError):
            buf.write(pid, b"x" * 1000)

    def test_close_flushes(self, tmp_path):
        path = tmp_path / "close.db"
        f = PagedFile(path, page_size=512)
        buf = BufferManager(f, capacity_bytes=512 * 4)
        pid = buf.allocate()
        buf.write(pid, b"flushed")
        buf.close()
        with PagedFile(path) as f2:
            assert f2.read_page(pid)[:7] == b"flushed"


class TestConcurrentReads:
    """The serve worker pool reads one shared file/buffer concurrently.

    Without per-instance locks an interleaved seek+read returns another
    thread's page frame — whose CRC still validates, so the only symptom
    is silently wrong data (or a KeyError out of the LRU bookkeeping).
    """

    N_PAGES = 24
    N_THREADS = 8
    ROUNDS = 60

    @staticmethod
    def _payload(pid: int) -> bytes:
        return bytes([pid]) * 16

    def _fill(self, target) -> list[int]:
        write = getattr(target, "write", None) or target.write_page
        pids = [target.allocate() for _ in range(self.N_PAGES)]
        for pid in pids:
            write(pid, self._payload(pid))
        return pids

    def _hammer(self, read, pids):
        import random
        import threading

        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(self.ROUNDS):
                    pid = rng.choice(pids)
                    got = read(pid)[:16]
                    assert got == self._payload(pid), (
                        f"page {pid} returned another page's frame: {got!r}"
                    )
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors, errors[0]

    def test_paged_file_reads_are_thread_safe(self, paged):
        pids = self._fill(paged)
        self._hammer(paged.read_page, pids)

    def test_buffer_manager_reads_are_thread_safe(self, paged):
        # A two-page buffer maximizes miss/eviction churn over the LRU.
        buf = BufferManager(paged, capacity_bytes=512 * 2)
        pids = self._fill(buf)
        buf.flush()
        self._hammer(buf.read, pids)


class TestReadDecoded:
    """The decoded-page memo: same accounting as read(), frame lifetime."""

    @staticmethod
    def _counting_decoder():
        calls = []

        def decode(raw: bytes) -> tuple[bytes, int]:
            calls.append(raw[:4])
            return (raw[:4], len(calls))

        return decode, calls

    def _pages(self, buf: BufferManager, n: int) -> list[int]:
        pids = [buf.allocate() for _ in range(n)]
        for pid in pids:
            buf.write(pid, pid.to_bytes(4, "little"))
        buf.flush()
        buf.drop_cache()
        buf.reset_stats()
        return pids

    def test_accounting_matches_read(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 2)
        pids = self._pages(buf, 3)
        pattern = [pids[0], pids[0], pids[1], pids[2], pids[0], pids[2]]
        for pid in pattern:
            buf.read(pid)
        plain = buf.stats()
        buf.drop_cache()
        buf.reset_stats()
        decode, _ = self._counting_decoder()
        for pid in pattern:
            buf.read_decoded(pid, decode)
        assert buf.stats() == plain

    def test_decodes_once_per_resident_frame(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 4)
        (pid,) = self._pages(buf, 1)
        decode, calls = self._counting_decoder()
        first = buf.read_decoded(pid, decode)
        assert buf.read_decoded(pid, decode) is first
        assert len(calls) == 1
        assert buf.hits == 1 and buf.misses == 1

    def test_eviction_drops_the_decode(self, paged):
        buf = BufferManager(paged, capacity_bytes=512)  # one frame
        a, b = self._pages(buf, 2)
        decode, calls = self._counting_decoder()
        buf.read_decoded(a, decode)
        buf.read(b)  # evicts a
        buf.read_decoded(a, decode)
        assert len(calls) == 2
        assert buf.stats()["physical_reads"] == 3

    def test_write_drops_the_decode(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 4)
        (pid,) = self._pages(buf, 1)
        decode, _ = self._counting_decoder()
        assert buf.read_decoded(pid, decode)[0] == pid.to_bytes(4, "little")
        buf.write(pid, b"NEW!")
        assert buf.read_decoded(pid, decode)[0] == b"NEW!"

    def test_another_decoder_decodes_afresh(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 4)
        (pid,) = self._pages(buf, 1)
        decode, calls = self._counting_decoder()
        assert buf.read_decoded(pid, bytes.hex) == buf.read(pid).hex()
        buf.read_decoded(pid, decode)
        assert len(calls) == 1

    def test_a_raising_decoder_caches_nothing(self, paged):
        buf = BufferManager(paged, capacity_bytes=512 * 4)
        (pid,) = self._pages(buf, 1)
        calls = []

        def broken(raw: bytes) -> None:
            calls.append(1)
            raise ValueError("bad page")

        for _ in range(2):
            with pytest.raises(ValueError):
                buf.read_decoded(pid, broken)
        assert len(calls) == 2
        assert buf.hits == 1 and buf.misses == 1
