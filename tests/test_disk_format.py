"""On-disk format pins for the durable tier.

The reference encoders below are written with bare ``struct`` /
``zlib`` / ``pickle`` on purpose — they do not import
:mod:`repro.engine.diskfile` — so a change to the shared frame, the
serialiser or the atomic-install helper that alters a single byte of a
WAL record, ``snapshot.db``, ``MANIFEST`` or a run file fails here
first.  A data directory is only as compatible as these bytes.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib

from repro.engine.durability import (
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    open_database,
)
from repro.engine.lsm import MANIFEST_FILENAME, SSTableReader, write_sstable
from repro.engine.lsm.sstable import BLOCK_ENTRIES
from repro.engine.persistence import image_of
from repro.engine.wal import (
    KIND_BATCH,
    KIND_COMMIT,
    KIND_STATEMENT,
    WalRecord,
    encode_record,
    scan_records,
)


def ref_pickle(value):
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def ref_frame(payload):
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def ref_run(entries, table, extra_footer=()):
    """A run file, byte for byte: magic, 256-entry block frames, footer
    frame, ``[u64 footer offset][magic]`` trailer."""
    out = b"RLSM1\x00"
    index = []
    for start in range(0, len(entries), 256):
        block = entries[start:start + 256]
        index.append((block[0][1], len(out)))
        out += ref_frame(ref_pickle(block))
    footer = {
        "table": table,
        "count": len(entries),
        "data_count": sum(1 for e in entries if e[0] == "d"),
        "index": index,
    }
    footer.update(extra_footer)
    footer["tombstones"] = [e[1] for e in entries if e[0] == "t"]
    footer_offset = len(out)
    out += ref_frame(ref_pickle(footer))
    return out + struct.pack("<Q8s", footer_offset, b"LSMFOOT\x00")


def read(directory, filename):
    with open(os.path.join(str(directory), filename), "rb") as handle:
        return handle.read()


def two_table_database(directory, storage):
    db = open_database(
        str(directory), storage=storage, sync=False, checkpoint_interval=0
    )
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
    db = two_table_database(tmp_path, "snapshot")
    data = read(tmp_path, WAL_FILENAME)
    records, valid = scan_records(data)
    assert valid == len(data) and len(records) >= 10
    assert data == b"".join(
        ref_frame(ref_pickle(r.as_tuple())) for r in records
    )
    db.close()


def test_checkpoint_snapshot_bytes(tmp_path):
    db = two_table_database(tmp_path, "snapshot")
    assert db.checkpoint() is True
    expected = ref_pickle({
        "version": 2,
        "image": image_of(db),
        "last_seq": db.durability.store.last_seq,
        "commit_seq": db.transactions.commit_seq,
    })
    assert db.durability.store.last_seq > 0
    assert read(tmp_path, SNAPSHOT_FILENAME) == expected
    db.close()


def test_manifest_bytes(tmp_path):
    db = two_table_database(tmp_path, "lsm")
    assert db.checkpoint() is True
    store = db.lsm_store
    payload = ref_pickle({
        "version": 1,
        "image_blob": ref_pickle(image_of(db, include_rows=False)),
        "commit_seq": db.transactions.commit_seq,
        "last_seq": store.last_seq,
        "next_rid": 4,
        "next_file": 3,
        "runs": {"t": ["run-00000001.run"], "u": ["run-00000002.run"]},
    })
    assert store.last_seq > 0
    assert read(tmp_path, MANIFEST_FILENAME) == \
        b"RLSMMAN\x00" + ref_frame(payload)
    db.close()


def run_entries():
    count = BLOCK_ENTRIES + 44  # two blocks
    entries = [("d", rid, rid + 1, [rid, f"v{rid}"])
               for rid in range(1, count, 2)]
    entries += [("t", rid, 900) for rid in range(2, 40, 6)]
    entries.sort(key=lambda e: e[1])
    return entries


def test_run_file_bytes(tmp_path):
    entries = run_entries()
    path = os.path.join(str(tmp_path), "run-00000001.run")
    write_sstable(path, entries, table="t")
    assert read(tmp_path, "run-00000001.run") == ref_run(entries, "t")
    assert os.listdir(str(tmp_path)) == ["run-00000001.run"]


def test_flushed_run_matches_reference(tmp_path):
    db = two_table_database(tmp_path, "lsm")
    db.checkpoint()
    # Stamps are whatever the two commits got; rids count up from 1
    # across tables in catalog order.
    (begin,) = {v.begin for v in db.catalog.tables["t"].versions}
    assert read(tmp_path, "run-00000001.run") == ref_run(
        [("d", 1, begin, [1, "x"]), ("d", 2, begin, [2, "y"])], "t"
    )
    db.close()


def test_run_with_old_bloom_footer_keys_still_opens(tmp_path):
    """Runs written before the point-read path was removed carry a
    Bloom filter in the footer; the reader ignores the extra keys."""
    entries = run_entries()
    path = os.path.join(str(tmp_path), "run-00000009.run")
    with open(path, "wb") as handle:
        handle.write(ref_run(
            entries, "t",
            extra_footer={"bloom": b"\xff" * 64, "bloom_bits": 512},
        ))
    reader = SSTableReader(path)
    assert list(reader.entries()) == entries
    assert reader.table == "t"
    assert reader.data_count == sum(1 for e in entries if e[0] == "d")
    assert reader.tombstone_rids == frozenset(range(2, 40, 6))
