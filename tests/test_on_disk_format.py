"""Byte-level pin of the ``RWAL`` log writer.

The round-trip tests elsewhere would stay green if both the writer and the
reader drifted together; this pins the exact bytes a fixed input produces,
so any change to the on-disk layout (a header field, padding, a section
order, the meta JSON) has to update the digest here on purpose.
"""

from __future__ import annotations

import hashlib

from repro.live.wal import WriteAheadLog

#: SHA-256 of the RWAL log after the mutations below.
RWAL_SHA256 = (
    "654e51da67b237df3b1da2ca4d2a271f6c13a4f241b012762f39c22d653aecbd"
)

MUTATIONS = [
    {"kind": "insert_point", "u": 1, "v": 2, "offset": 0.25,
     "point_id": 100, "label": 3},
    {"kind": "reweigh_edge", "u": 4, "v": 7, "weight": 1.5},
    {"kind": "remove_point", "point_id": 100},
    {"kind": "insert_point", "u": 0, "v": 5, "offset": 2.0,
     "point_id": 101},
]


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_rwal_bytes_pinned(tmp_path):
    path = tmp_path / "pin.wal"
    with WriteAheadLog(str(path)) as wal:
        for mutation in MUTATIONS:
            wal.append(mutation)
    assert _sha256(path) == RWAL_SHA256
