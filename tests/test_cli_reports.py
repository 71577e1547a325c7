"""Pins the stdout of ``repro check`` and ``repro wal verify``.

The two verifiers share one findings report: a text listing (one line
per finding, then ``<path>: OK`` or ``<path>: N problem(s) found``) or,
under ``--json``, one document with the exit code and every finding.
Each command runs on a clean and a damaged input, in both formats, from
inside a temporary directory so the paths in the output are the fixed
relative names below.
"""

from __future__ import annotations

import json
import random
import shutil

import pytest

from repro.cli import main
from repro.live.wal import WriteAheadLog
from repro.storage.netstore import NetworkStore
from tests.conftest import make_random_connected_network, scatter_points

STORE_CRC = "bad.db: page 10 at file offset 5160 is corrupt (CRC32 mismatch)"
WAL_TORN = (
    "torn tail: record 2 payload CRC mismatch at end of file (offset 160) "
    "— 64 trailing byte(s) will be truncated on the next read-write open"
)


def _finding(severity, kind, message, page_id=None, offset=None) -> dict:
    return {
        "severity": severity,
        "kind": kind,
        "page_id": page_id,
        "offset": offset,
        "message": message,
    }


STORE_FINDING = _finding("error", "page", STORE_CRC, page_id=10, offset=5160)
WAL_FINDING = _finding("warning", "wal", WAL_TORN, offset=160)

#: argv -> (exit code, text stdout, --json document)
CASES = {
    ("check", "store.db"): (
        0,
        "store.db: OK\n",
        {"store": "store.db", "exit_code": 0, "findings": []},
    ),
    ("check", "bad.db"): (
        2,
        f"error:page [page 10]: {STORE_CRC}\nbad.db: 1 problem(s) found\n",
        {"store": "bad.db", "exit_code": 2, "findings": [STORE_FINDING]},
    ),
    ("wal", "verify", "m.wal"): (
        0,
        "m.wal: OK\n",
        {"log": "m.wal", "exit_code": 0, "findings": []},
    ),
    ("wal", "verify", "bad.wal"): (
        2,
        f"warning:wal: {WAL_TORN}\nbad.wal: 1 problem(s) found\n",
        {"log": "bad.wal", "exit_code": 2, "findings": [WAL_FINDING]},
    ),
}


def _flip(src: str, dst: str, offset: int) -> None:
    shutil.copyfile(src, dst)
    with open(dst, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0xFF]))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A clean and a damaged store and mutation log."""
    root = tmp_path_factory.mktemp("reports")
    rng = random.Random(23)
    net = make_random_connected_network(rng, 30, extra_edges=10)
    pts = scatter_points(rng, net, 12)
    NetworkStore.build(str(root / "store.db"), net, pts,
                       page_size=512).close()
    with WriteAheadLog(str(root / "m.wal")) as wal:
        wal.append({"kind": "insert_point", "u": 1, "v": 2,
                    "offset": 0.25, "point_id": 100})
        wal.append({"kind": "remove_point", "point_id": 100})
    _flip(str(root / "store.db"), str(root / "bad.db"), 5260)
    # The last record's payload: a torn tail, reported as a warning.
    _flip(str(root / "m.wal"), str(root / "bad.wal"), 221)
    return root


@pytest.mark.parametrize("argv", sorted(CASES), ids="_".join)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_report_stdout_pinned(argv, as_json, inputs, monkeypatch, capsys):
    monkeypatch.chdir(inputs)
    code, text, doc = CASES[argv]
    args = list(argv) + (["--json"] if as_json else [])
    assert main(args) == code
    out = capsys.readouterr().out
    assert out == (json.dumps(doc, indent=2) + "\n" if as_json else text)
