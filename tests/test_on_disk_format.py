"""Byte-level pins of the ``RLIX`` index and ``RWAL`` log writers.

The round-trip tests elsewhere would stay green if both the writer and the
reader drifted together; these pin the exact bytes a fixed input produces,
so any change to the on-disk layout (a header field, padding, a section
order, the meta JSON) has to update a digest here on purpose.  Saving a
loaded index must reproduce its file byte for byte.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.exceptions import ParameterError
from repro.live.wal import WriteAheadLog
from repro.perf import LandmarkIndex, build_index_file, load_index, save_index
from tests.conftest import make_random_connected_network

#: SHA-256 of the RLIX file for the network below with 4 landmarks.
RLIX_SHA256 = (
    "d1d9b3566a02b92d4bf4bab461ce406ac26b2e63ce4a42d18b2c71e41f403bfe"
)
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


@pytest.fixture(scope="module")
def network():
    return make_random_connected_network(random.Random(23), 30,
                                         extra_edges=10)


def test_rlix_bytes_pinned(network, tmp_path):
    path = tmp_path / "pin.rlix"
    build_index_file(str(path), network, num_landmarks=4)
    assert _sha256(path) == RLIX_SHA256


def test_save_of_loaded_index_is_byte_identical(network, tmp_path):
    first = tmp_path / "first.rlix"
    second = tmp_path / "second.rlix"
    build_index_file(str(first), network, num_landmarks=4)
    index = load_index(str(first), network)
    try:
        save_index(str(second), index, network)
    finally:
        index.close()
    assert second.read_bytes() == first.read_bytes()


def test_save_refuses_index_of_other_nodes(network, tmp_path):
    other = make_random_connected_network(random.Random(5), 31)
    with pytest.raises(ParameterError):
        save_index(str(tmp_path / "x.rlix"), LandmarkIndex(other, 2),
                   network)
    assert not (tmp_path / "x.rlix").exists()


def test_rwal_bytes_pinned(tmp_path):
    path = tmp_path / "pin.wal"
    with WriteAheadLog(str(path)) as wal:
        for mutation in MUTATIONS:
            wal.append(mutation)
    assert _sha256(path) == RWAL_SHA256
