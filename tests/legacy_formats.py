"""Writers for the on-disk formats the engine reads but no longer writes.

Durable directories used to be checkpointed either as one
whole-database ``snapshot.db`` image (checkpoint wrapper version 1, or
version 2 with the MVCC commit counter) or as LSM runs in the
entry-tuple layout (magic ``RLSM1``).  A directory written that way
must still open row-identical, so the tests build such directories
here, byte for byte, with bare ``pickle`` / ``struct`` / ``zlib`` — not
:mod:`repro.engine.diskfile` — so a change to the engine's own
serialiser cannot make a fixture agree with it by accident.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib

from repro.engine.database import Database
from repro.engine.persistence import image_of
from repro.engine.wal import KIND_COMMIT, KIND_STATEMENT

#: What the ``legacy`` table of :func:`write_snapshot_dir` holds.
LEGACY_ROWS = {1: 100, 2: 200, 3: 300}


def ref_pickle(value):
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def ref_frame(payload):
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def write_file(directory, filename, data):
    os.makedirs(str(directory), exist_ok=True)
    with open(os.path.join(str(directory), filename), "wb") as handle:
        handle.write(data)


def snapshot_bytes(database, *, last_seq, version=2):
    """``snapshot.db`` as a checkpoint wrote it: the whole image of
    ``database`` in the ``{version, image, last_seq[, commit_seq]}``
    wrapper (version 1 had no ``commit_seq``)."""
    payload = {
        "version": version,
        "image": image_of(database),
        "last_seq": last_seq,
    }
    if version == 2:
        payload["commit_seq"] = database.transactions.commit_seq
    return ref_pickle(payload)


def legacy_database(statements=(), *, name="db"):
    """An in-memory database holding ``LEGACY_ROWS`` in table
    ``legacy`` (``k INT, v INT``), after ``statements`` run on it."""
    db = Database(name=name)
    session = db.create_session(autocommit=True)
    session.execute("CREATE TABLE legacy (k INT, v INT)")
    session.execute_batch(
        "INSERT INTO legacy VALUES (?, ?)", sorted(LEGACY_ROWS.items())
    )
    for sql in statements:
        session.execute(sql)
    session.close()
    return db


def write_snapshot_dir(directory, database=None, *, last_seq=0, version=2):
    """Make ``directory`` a snapshot-checkpointed one: ``snapshot.db``
    holding ``database`` (default: :func:`legacy_database`)."""
    if database is None:
        database = legacy_database()
    write_file(
        directory, "snapshot.db",
        snapshot_bytes(database, last_seq=last_seq, version=version),
    )
    return database


def wal_bytes(statements, *, first_seq, first_stamp, user="dba"):
    """A WAL holding each of ``statements`` as its own committed
    transaction: seqs from ``first_seq``, commit stamps from
    ``first_stamp``, each statement logged under the snapshot of the
    commit before it."""
    out = b""
    seq = first_seq
    for txn, sql in enumerate(statements, 1):
        stamp = first_stamp + txn - 1
        out += ref_frame(ref_pickle(
            (seq, KIND_STATEMENT, txn, (user, sql, (), stamp - 1))
        ))
        out += ref_frame(ref_pickle((seq + 1, KIND_COMMIT, txn, stamp)))
        seq += 2
    return out


def rlsm1_run_bytes(entries, table, extra_footer=()):
    """An entry-tuple run file, byte for byte: magic, 256-entry block
    frames of ``("d", rid, begin, row)`` / ``("t", rid, end)`` tuples,
    footer frame, ``[u64 footer offset][magic]`` trailer."""
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


def manifest_bytes(database, runs, *, commit_seq, last_seq, next_rid,
                   next_file):
    """``MANIFEST`` (version 1): the row-less image of ``database``,
    the watermarks and ``runs`` (table -> run file names)."""
    return b"RLSMMAN\x00" + ref_frame(ref_pickle({
        "version": 1,
        "image_blob": ref_pickle(image_of(database, include_rows=False)),
        "commit_seq": commit_seq,
        "last_seq": last_seq,
        "next_rid": next_rid,
        "next_file": next_file,
        "runs": runs,
    }))
