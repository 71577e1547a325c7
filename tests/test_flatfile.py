"""Tests for the slotted-page record file."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.flatfile import RecordFile, rid_decode, rid_encode
from repro.storage.pager import BufferManager, PagedFile


@pytest.fixture
def recfile(tmp_path):
    f = PagedFile(tmp_path / "records.db", page_size=512)
    buf = BufferManager(f, capacity_bytes=512 * 8)
    yield RecordFile(buf)
    buf.close()


class TestRidEncoding:
    def test_roundtrip(self):
        rid = rid_encode(123, 45)
        assert rid_decode(rid) == (123, 45)

    def test_distinct(self):
        assert rid_encode(1, 0) != rid_encode(0, 1)

    def test_slot_range(self):
        from repro.exceptions import PageError

        with pytest.raises(PageError):
            rid_encode(1, 1 << 16)


class TestSmallRecords:
    def test_append_and_read(self, recfile):
        rid = recfile.append(b"hello world")
        assert recfile.read(rid) == b"hello world"

    def test_empty_record(self, recfile):
        rid = recfile.append(b"")
        assert recfile.read(rid) == b""

    def test_many_records_same_page(self, recfile):
        rids = [recfile.append(f"rec{i}".encode()) for i in range(10)]
        for i, rid in enumerate(rids):
            assert recfile.read(rid) == f"rec{i}".encode()
        # Small records share pages.
        pages = {rid_decode(rid)[0] for rid in rids}
        assert len(pages) == 1

    def test_page_rollover(self, recfile):
        # 512-byte pages: ~100-byte records force rollover after a few.
        rids = [recfile.append(bytes([i]) * 100) for i in range(20)]
        pages = {rid_decode(rid)[0] for rid in rids}
        assert len(pages) > 1
        for i, rid in enumerate(rids):
            assert recfile.read(rid) == bytes([i]) * 100

    def test_bad_slot(self, recfile):
        from repro.exceptions import PageError

        rid = recfile.append(b"x")
        pid, _ = rid_decode(rid)
        with pytest.raises(PageError):
            recfile.read(rid_encode(pid, 99))


class TestOverflowRecords:
    def test_record_larger_than_page(self, recfile):
        data = bytes(range(256)) * 8  # 2048 bytes on 512-byte pages
        rid = recfile.append(data)
        assert recfile.read(rid) == data

    def test_record_exactly_at_boundary(self, recfile):
        capacity = 512 - 4 - 4  # page minus header minus one slot
        data = b"a" * capacity
        rid = recfile.append(data)
        assert recfile.read(rid) == data
        rid2 = recfile.append(b"b" * (capacity + 1))
        assert recfile.read(rid2) == b"b" * (capacity + 1)

    def test_interleaved_small_and_large(self, recfile):
        expected = {}
        rng = random.Random(0)
        for i in range(30):
            size = rng.choice([3, 50, 600, 1500])
            data = bytes([i % 256]) * size
            expected[recfile.append(data)] = data
        for rid, data in expected.items():
            assert recfile.read(rid) == data

    def test_huge_record(self, recfile):
        data = b"z" * 10_000
        rid = recfile.append(data)
        assert recfile.read(rid) == data


class TestPersistence:
    def test_reopen(self, tmp_path):
        path = tmp_path / "persist.db"
        f = PagedFile(path, page_size=512)
        buf = BufferManager(f)
        rf = RecordFile(buf)
        rid_small = rf.append(b"small")
        rid_big = rf.append(b"B" * 3000)
        current = rf.current_page
        buf.close()

        f2 = PagedFile(path)
        buf2 = BufferManager(f2)
        rf2 = RecordFile(buf2, current_page=current)
        assert rf2.read(rid_small) == b"small"
        assert rf2.read(rid_big) == b"B" * 3000
        rid_new = rf2.append(b"after reopen")
        assert rf2.read(rid_new) == b"after reopen"
        buf2.close()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.binary(min_size=0, max_size=2000), min_size=1, max_size=40),
)
def test_property_roundtrip(tmp_path_factory, records):
    """Every appended record reads back byte-identical, in any mix of
    sizes, including across reopen."""
    path = tmp_path_factory.mktemp("ff") / "prop.db"
    f = PagedFile(path, page_size=512)
    buf = BufferManager(f, capacity_bytes=512 * 4)
    rf = RecordFile(buf)
    rids = [rf.append(data) for data in records]
    for rid, data in zip(rids, records):
        assert rf.read(rid) == data
    current = rf.current_page
    buf.close()
    f2 = PagedFile(path)
    buf2 = BufferManager(f2)
    rf2 = RecordFile(buf2, current_page=current)
    for rid, data in zip(rids, records):
        assert rf2.read(rid) == data
    buf2.close()


class TestReadDecoded:
    """Record decodes are memoised with the page frame; overflow records
    are decoded afresh; page reads match read()."""

    @staticmethod
    def _decoder():
        calls = []

        def decode(record: bytes) -> bytes:
            calls.append(len(record))
            return record.upper()

        return decode, calls

    def test_inline_record_decoded_once_per_frame(self, recfile):
        rids = [recfile.append(b"rec%d" % i) for i in range(5)]
        decode, calls = self._decoder()
        for _ in range(3):
            assert [recfile.read_decoded(r, decode) for r in rids] == [
                b"REC%d" % i for i in range(5)
            ]
        assert len(calls) == 5
        recfile.buffer.drop_cache()
        recfile.read_decoded(rids[0], decode)
        assert len(calls) == 6

    def test_overflow_record_decoded_every_time(self, recfile):
        rid = recfile.append(b"x" * 2000)
        decode, calls = self._decoder()
        assert recfile.read_decoded(rid, decode) == b"X" * 2000
        assert recfile.read_decoded(rid, decode) == b"X" * 2000
        assert calls == [2000, 2000]

    def test_same_page_reads_as_read(self, recfile):
        rids = [recfile.append(bytes([i]) * 40) for i in range(30)]
        rids.append(recfile.append(b"y" * 1500))  # an overflow chain
        buf = recfile.buffer
        order = random.Random(3).choices(rids, k=200)
        decode, _ = self._decoder()

        def cold_stats(read) -> dict:
            buf.flush()
            buf.drop_cache()
            buf.reset_stats()
            for rid in order:
                read(rid)
            return buf.stats()

        plain = cold_stats(recfile.read)
        assert cold_stats(lambda r: recfile.read_decoded(r, decode)) == plain

    def test_bad_slot_still_raises(self, recfile):
        from repro.exceptions import PageError

        rid = recfile.append(b"only")
        page, slot = rid_decode(rid)
        decode, _ = self._decoder()
        with pytest.raises(PageError):
            recfile.read_decoded(rid_encode(page, slot + 5), decode)
