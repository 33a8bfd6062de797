"""On-disk format pins for the durable tier.

The reference encoders below (and in ``tests/legacy_formats.py``) are
written with bare ``struct`` / ``zlib`` / ``pickle`` on purpose — they
do not import :mod:`repro.engine.diskfile` — so a change to the shared
frame, the serialiser or the atomic-install helper that alters a single
byte of a WAL record, ``MANIFEST`` or a run file fails here first.  A
data directory is only as compatible as these bytes.

The formats the engine still reads but no longer writes — the
``snapshot.db`` image (versions 1 and 2) and entry-tuple (``RLSM1``)
runs — are pinned the other way round: a directory built from the
reference bytes must open row-identical.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.engine.durability import WAL_FILENAME, open_database
from repro.engine.lsm import MANIFEST_FILENAME, SSTableReader, write_sstable
from repro.engine.lsm.sstable import BLOCK_ROWS
from repro.engine.persistence import SNAPSHOT_FILENAME
from repro.engine.wal import (
    KIND_BATCH,
    KIND_COMMIT,
    KIND_STATEMENT,
    WalRecord,
    encode_record,
    scan_records,
)
from tests.legacy_formats import (
    legacy_database,
    manifest_bytes,
    ref_frame,
    ref_pickle,
    rlsm1_run_bytes,
    snapshot_bytes,
    wal_bytes,
    write_file,
)


def ref_run_lengths(stamps):
    out = []
    for stamp in stamps:
        if out and out[-2] == stamp:
            out[-1] += 1
        else:
            out += [stamp, 1]
    return out


def ref_run(rids, begins, rows, tombstones, table):
    """A run file, byte for byte: magic, 256-row block frames of
    ``[first rid | rid list, run-length begin stamps, rows]``, footer
    frame, ``[u64 footer offset][magic]`` trailer."""
    out = b"RLSM2\x00"
    index = []
    for start in range(0, len(rows), 256):
        block_rids = list(rids[start:start + 256])
        consecutive = block_rids == list(
            range(block_rids[0], block_rids[0] + len(block_rids))
        )
        index.append((block_rids[0], len(out)))
        out += ref_frame(ref_pickle([
            block_rids[0] if consecutive else block_rids,
            ref_run_lengths(begins[start:start + 256]),
            rows[start:start + 256],
        ]))
    footer = {
        "table": table,
        "data_count": len(rows),
        "index": index,
        "tombstones": dict(tombstones),
    }
    footer_offset = len(out)
    out += ref_frame(ref_pickle(footer))
    return out + struct.pack("<Q8s", footer_offset, b"LSMFOOT\x00")


def read(directory, filename):
    with open(os.path.join(str(directory), filename), "rb") as handle:
        return handle.read()


def rows_of(database, table):
    session = database.create_session(autocommit=True)
    try:
        return sorted(session.execute(f"SELECT * FROM {table}").rows)
    finally:
        session.close()


def two_table_database(directory):
    db = open_database(str(directory), sync=False, checkpoint_interval=0)
    s = db.create_session(autocommit=True)
    s.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10))")
    s.execute("CREATE TABLE u (a INT, b INT)")
    s.execute("CREATE INDEX u_a ON u (a)")
    s.execute_batch("INSERT INTO t VALUES (?, ?)", [[1, "x"], [2, "y"]])
    s.execute("INSERT INTO u VALUES (?, ?)", [7, 8])
    s.close()
    return db


def test_wal_record_bytes():
    records = [
        WalRecord(1, KIND_STATEMENT, 1, ("dba", "INSERT ...", (1, "a"), 0)),
        WalRecord(2, KIND_BATCH, 1, ("dba", "INSERT ...", ((1,), (2,)), 0)),
        WalRecord(3, KIND_COMMIT, 1, 5),
    ]
    for record in records:
        assert encode_record(record) == ref_frame(
            ref_pickle((record.seq, record.kind, record.txn, record.data))
        )


def test_wal_file_is_the_concatenated_record_frames(tmp_path):
    db = two_table_database(tmp_path)
    data = read(tmp_path, WAL_FILENAME)
    records, valid = scan_records(data)
    assert valid == len(data) and len(records) >= 10
    assert data == b"".join(
        ref_frame(ref_pickle(r.as_tuple())) for r in records
    )
    db.close()


def test_checkpoint_snapshot_bytes(tmp_path):
    """A version-2 ``snapshot.db`` — the whole-database checkpoint
    image — still opens row-identical, and the open migrates it:
    the image becomes runs and is then removed."""
    legacy = legacy_database(["INSERT INTO legacy VALUES (4, 400)"])
    legacy.create_session(autocommit=True).execute(
        "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10))"
    )
    write_file(tmp_path, SNAPSHOT_FILENAME,
               snapshot_bytes(legacy, last_seq=9))
    db = open_database(str(tmp_path), sync=False)
    assert rows_of(db, "legacy") == rows_of(legacy, "legacy")
    assert rows_of(db, "t") == []
    assert db.durability.store.last_seq == 9
    assert db.durability.store.flushed_stamp == \
        legacy.transactions.commit_seq
    assert sorted(os.listdir(str(tmp_path))) == [
        MANIFEST_FILENAME, "run-00000001.run", WAL_FILENAME,
    ]
    db.close()


def test_manifest_bytes(tmp_path):
    db = two_table_database(tmp_path)
    assert db.checkpoint() is True
    store = db.lsm_store
    assert store.last_seq > 0
    assert read(tmp_path, MANIFEST_FILENAME) == manifest_bytes(
        db, {"t": ["run-00000001.run"], "u": ["run-00000002.run"]},
        commit_seq=db.transactions.commit_seq, last_seq=store.last_seq,
        next_rid=4, next_file=3,
    )
    db.close()


def run_layout():
    """Two blocks of rows — the first with consecutive rids, the second
    with a gap — mixed begin stamps, and tombstones."""
    count = BLOCK_ROWS + 44
    rids = list(range(1, BLOCK_ROWS + 1)) + \
        list(range(BLOCK_ROWS + 5, BLOCK_ROWS + 5 + 2 * 44, 2))
    begins = [1 + rid // 100 for rid in rids]
    rows = [[rid, f"v{rid}"] for rid in rids]
    assert len(rows) == count
    tombstones = {rid: 900 for rid in range(1000, 1040, 6)}
    return rids, begins, rows, tombstones


def test_run_file_bytes(tmp_path):
    rids, begins, rows, tombstones = run_layout()
    path = os.path.join(str(tmp_path), "run-00000001.run")
    write_sstable(path, rids, begins, rows, tombstones, table="t")
    assert read(tmp_path, "run-00000001.run") == ref_run(
        rids, begins, rows, tombstones, "t"
    )
    assert os.listdir(str(tmp_path)) == ["run-00000001.run"]
    reader = SSTableReader(path)
    assert list(reader.rows()) == list(zip(rids, begins, rows))
    assert reader.tombstones() == tombstones


def test_flushed_run_matches_reference(tmp_path):
    db = two_table_database(tmp_path)
    db.checkpoint()
    # Stamps are whatever the batch commit got; rids count up from 1
    # across tables in catalog order.
    (begin,) = {v.begin for v in db.catalog.tables["t"].versions}
    assert read(tmp_path, "run-00000001.run") == ref_run(
        [1, 2], [begin, begin], [[1, "x"], [2, "y"]], {}, "t"
    )
    db.close()


def rlsm1_entries():
    count = 256 + 44  # two blocks
    entries = [("d", rid, rid + 1, [rid, f"v{rid}"])
               for rid in range(1, count, 2)]
    entries += [("t", rid, 900) for rid in range(2, 40, 6)]
    entries.sort(key=lambda e: e[1])
    return entries


def test_run_with_old_bloom_footer_keys_still_opens(tmp_path):
    """Entry-tuple runs, including those written before the point-read
    path was removed (a Bloom filter in the footer; the reader ignores
    the extra keys), still read back entry for entry."""
    entries = rlsm1_entries()
    path = os.path.join(str(tmp_path), "run-00000009.run")
    write_file(tmp_path, "run-00000009.run", rlsm1_run_bytes(
        entries, "t",
        extra_footer={"bloom": b"\xff" * 64, "bloom_bits": 512},
    ))
    reader = SSTableReader(path)
    assert list(reader.rows()) == [
        (e[1], e[2], e[3]) for e in entries if e[0] == "d"
    ]
    assert reader.tombstones() == {
        e[1]: e[2] for e in entries if e[0] == "t"
    }
    assert reader.table == "t"
    assert reader.data_count == sum(1 for e in entries if e[0] == "d")
    assert reader.tombstone_rids == frozenset(range(2, 40, 6))


# ---------------------------------------------------------------------------
# directories written in the formats the engine no longer writes
# ---------------------------------------------------------------------------
#: Run after the checkpoint, from the WAL.
TAIL = [
    "INSERT INTO legacy VALUES (5, 500)",
    "UPDATE legacy SET v = 101 WHERE k = 1",
    "DELETE FROM legacy WHERE k = 2",
]


def snapshot_dir(directory, version):
    legacy = legacy_database()
    write_file(directory, SNAPSHOT_FILENAME,
               snapshot_bytes(legacy, last_seq=4, version=version))
    return legacy, 4, legacy.transactions.commit_seq if version == 2 else 0


def rlsm1_dir(directory):
    """An LSM directory of entry-tuple runs: rows 1-3 flushed, then row
    2 replaced (tombstone + new row) in a second run."""
    legacy = legacy_database(["UPDATE legacy SET v = 222 WHERE k = 2"])
    write_file(directory, "run-00000001.run", rlsm1_run_bytes(
        [("d", 1, 1, [1, 100]), ("d", 2, 1, [2, 200]),
         ("d", 3, 1, [3, 300])], "legacy",
    ))
    write_file(directory, "run-00000002.run", rlsm1_run_bytes(
        [("t", 2, 2), ("d", 4, 2, [2, 222])], "legacy",
    ))
    write_file(directory, MANIFEST_FILENAME, manifest_bytes(
        legacy, {"legacy": ["run-00000001.run", "run-00000002.run"]},
        commit_seq=2, last_seq=6, next_rid=5, next_file=3,
    ))
    return legacy, 6, 2


@pytest.mark.parametrize("tail", [False, True], ids=["empty-wal", "wal"])
@pytest.mark.parametrize("layout", ["snapshot-v1", "snapshot-v2", "rlsm1"])
def test_directory_written_in_an_older_format_opens(tmp_path, layout, tail):
    d = str(tmp_path)
    if layout == "rlsm1":
        legacy, last_seq, stamp = rlsm1_dir(d)
    else:
        legacy, last_seq, stamp = snapshot_dir(d, int(layout[-1]))
    write_file(d, WAL_FILENAME, wal_bytes(
        TAIL if tail else [], first_seq=last_seq + 1, first_stamp=stamp + 1
    ))
    session = legacy.create_session(autocommit=True)
    for sql in TAIL if tail else []:
        session.execute(sql)
    expected = rows_of(legacy, "legacy")

    db = open_database(d, sync=False)
    assert rows_of(db, "legacy") == expected
    assert SNAPSHOT_FILENAME not in os.listdir(d)
    assert os.path.getsize(os.path.join(d, WAL_FILENAME)) == 0
    db.close()
    db = open_database(d, sync=False)
    assert rows_of(db, "legacy") == expected
    db.close()
