"""The checkpoint-store contract, run on both kinds of directory.

``LsmStore`` is what the durability manager folds the WAL into; it
drives it through one protocol (``open`` → ``build_database`` →
``flush`` → ``close``, the ``last_seq`` / ``flushed_stamp``
watermarks, the ``lsm.flush`` / ``lsm.flush.install`` fault sites).
Every test here runs twice: on an empty directory (``lsm``) and on a
directory that was checkpointed as a whole-database ``snapshot.db``
image (``snapshot``), which the store migrates — the contract must not
care which one it was handed.  What is unique to the run layout lives
in test_lsm.py, the crash matrix in test_durability.py.

Also here: the atomic-install guarantees of ``save_database``, which
goes through the same :func:`repro.engine.diskfile.install`.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro import errors
from repro.engine import diskfile
from repro.engine.database import Database
from repro.engine.durability import WAL_FILENAME, open_database
from repro.engine.lsm import MANIFEST_FILENAME, LsmStore
from repro.engine.persistence import (
    SNAPSHOT_FILENAME,
    load_database,
    save_database,
)
from repro.procedures import build_par
from repro.testing.faults import FaultPlan
from tests.legacy_formats import write_snapshot_dir

IDENTITY = dict(name="contract", dialect="standard", admin_user="dba")


@pytest.fixture(params=["snapshot", "lsm"])
def origin(request):
    """What the directory holds before the first open: a snapshot
    checkpoint of an empty database, or nothing."""
    return request.param


def prepare(directory, origin):
    if origin == "snapshot":
        write_snapshot_dir(directory, Database(**IDENTITY))


def rows(database, table):
    session = database.create_session(autocommit=True)
    try:
        return sorted(session.execute(f"SELECT * FROM {table}").rows)
    finally:
        session.close()


def tmp_files(directory):
    return [f for f in os.listdir(str(directory)) if f.endswith(".tmp")]


def install_tag_type(session, tmp_path):
    """A UDT whose class lives in an installed archive: instances are
    not importable, so a row holding one cannot be pickled."""
    par = build_par(
        str(tmp_path / "p.par"),
        {"pmod": (
            "class Tag:\n"
            "    def __init__(self, label='x'):\n"
            "        self.label = label\n"
        )},
    )
    session.execute(f"call sqlj.install_par('{par}', 'p_par')")
    session.execute("""
        create type tag external name 'p_par:pmod.Tag'
        language python (
          label_attr varchar(20) external name label,
          method tag (label varchar(20)) returns tag external name Tag
        )
    """)


class TestStoreContract:
    def test_open_empty_build_flush_reopen(self, tmp_path, origin):
        d = str(tmp_path)
        prepare(d, origin)
        store = LsmStore.open(d)
        assert (store.last_seq, store.flushed_stamp) == (0, 0)
        assert store.directory == d
        db = store.build_database(**IDENTITY)
        assert db.name == "contract" and db.durability is None
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10))")
        s.execute("CREATE TABLE u (a INT, b INT)")
        s.execute("CREATE INDEX u_a ON u (a)")
        s.execute_batch("INSERT INTO t VALUES (?, ?)", [[1, "x"], [2, "y"]])
        s.execute("INSERT INTO u VALUES (7, 8)")
        s.execute("DELETE FROM t WHERE k = 1")
        s.close()

        store.flush(db, last_seq=41)
        assert store.last_seq == 41
        assert store.flushed_stamp == db.transactions.commit_seq > 0
        assert os.path.exists(os.path.join(d, MANIFEST_FILENAME))
        assert not tmp_files(d)
        store.close()

        reopened = LsmStore.open(d)
        assert reopened.last_seq == 41
        assert reopened.flushed_stamp == store.flushed_stamp
        # Once a manifest exists it governs; a snapshot.db beside it is
        # garbage the open sweeps.
        assert not os.path.exists(os.path.join(d, SNAPSHOT_FILENAME))
        # A stored database keeps its own identity.
        db2 = reopened.build_database(
            name="other", dialect="standard", admin_user="dba"
        )
        assert db2.name == "contract"
        # flushed_stamp is where the MVCC commit counter resumes: rows
        # keep their original stamps.
        db2.transactions.restore(reopened.flushed_stamp)
        assert rows(db2, "t") == [[2, "y"]]
        assert rows(db2, "u") == [[7, 8]]
        for index in db2.catalog.tables["u"].indexes:
            index.verify_against_heap()
        reopened.close()

    def test_open_database_selects_the_store(self, tmp_path, origin):
        d = str(tmp_path)
        prepare(d, origin)
        db = open_database(d, storage=origin, sync=False)
        manager = db.durability
        assert type(manager.store) is LsmStore
        assert manager.directory == d
        # The store hooks into vacuum and DDL.
        assert db.lsm_store is manager.store
        assert sorted(os.listdir(d)) == (
            [MANIFEST_FILENAME, WAL_FILENAME] if origin == "snapshot"
            else [WAL_FILENAME]
        )
        db.close()
        # Either storage= name reopens the same store.
        other = "lsm" if origin == "snapshot" else "snapshot"
        db2 = open_database(d, storage=other, sync=False)
        assert type(db2.durability.store) is LsmStore
        assert db2.name == ("contract" if origin == "snapshot" else "db")
        db2.close()

    def test_checkpoint_skipped_while_txn_active(self, tmp_path, origin):
        prepare(str(tmp_path), origin)
        db = open_database(
            str(tmp_path), storage=origin, checkpoint_interval=0,
        )
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.autocommit = False
        s.execute("INSERT INTO t VALUES (1, 10)")
        assert db.checkpoint() is False  # quiesce requirement
        s.commit()
        assert db.checkpoint() is True
        s.close()
        db.close()

    def test_failed_flush_leaves_previous_state_governing(
        self, tmp_path, origin
    ):
        """A flush that raises — here because a row holds an instance
        of an archive-defined class — must leave the store's previous
        on-disk state in charge, the WAL un-truncated, the heap
        re-flushable, and no temp file behind, however often it is
        retried.  (The historical bug: every failed run write leaked
        one more ``run-N.run.tmp`` until the next reopen.)"""
        d = str(tmp_path / "data")
        prepare(d, origin)
        wal_path = os.path.join(d, WAL_FILENAME)
        db = open_database(
            d, storage=origin, sync=False, checkpoint_interval=0,
        )
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        install_tag_type(s, tmp_path)
        s.execute("CREATE TABLE tags (k INT, t tag)")
        assert db.checkpoint() is True
        on_disk = sorted(os.listdir(d))

        s.execute("INSERT INTO t VALUES (2, 20)")
        s.execute("INSERT INTO tags VALUES (1, NEW tag('x'))")
        wal_size = os.path.getsize(wal_path)
        for _ in range(2):
            with pytest.raises(errors.DataError):
                db.checkpoint()
            assert os.path.getsize(wal_path) == wal_size
            assert sorted(os.listdir(d)) == on_disk

        # The previous state governs: what a reopen would load is the
        # checkpoint taken before the failures (the intact WAL replays
        # the rest).
        store = LsmStore.open(d)
        assert store.last_seq == db.durability.store.last_seq
        store.close()

        # Once the bad row is gone the same heap flushes cleanly.
        s.execute("DELETE FROM tags WHERE k = 1")
        assert db.checkpoint() is True
        assert os.path.getsize(wal_path) == 0
        assert not tmp_files(d)
        s.close()
        db.close()
        db2 = open_database(d)
        assert rows(db2, "t") == [[1, 10], [2, 20]]
        assert rows(db2, "tags") == []
        db2.close()

    def test_fault_sites_bracket_the_flush(self, tmp_path, origin):
        """``lsm.flush`` fires before anything is written,
        ``lsm.flush.install`` after the flush is durable but before the
        WAL is truncated."""
        d = str(tmp_path)
        prepare(d, origin)
        wal_path = os.path.join(d, WAL_FILENAME)
        db = open_database(
            d, storage=origin, sync=False, checkpoint_interval=0,
        )
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        store = db.durability.store
        last_seq = store.last_seq
        wal_size = os.path.getsize(wal_path)
        for site, flushed in (
            ("lsm.flush", False),
            ("lsm.flush.install", True),
        ):
            plan = FaultPlan(seed=1)
            plan.inject(site, error=errors.OperatorExecutionError, times=1)
            with plan.armed():
                with pytest.raises(errors.ReproError):
                    db.checkpoint()
            assert plan.fired[site] == 1
            assert (store.last_seq > last_seq) is flushed
            assert os.path.getsize(wal_path) == wal_size
        s.close()
        db.close()


class TestSaveDatabaseIsAtomic:
    def make(self):
        db = repro.Database(name="img")
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        s.close()
        return db

    def test_failed_write_keeps_the_old_image(self, tmp_path, monkeypatch):
        db = self.make()
        path = save_database(db, str(tmp_path / "db.pysqlj"))
        s = db.create_session(autocommit=True)
        s.execute("INSERT INTO t VALUES (2, 20)")
        s.close()

        real_open = open

        class FullDisk:
            """Writes the first half of what it is given, then fails
            like ENOSPC."""

            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

        def failing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return FullDisk(handle) if "w" in mode else handle

        monkeypatch.setattr(diskfile, "open", failing_open, raising=False)
        with pytest.raises(OSError):
            save_database(db, path)
        monkeypatch.undo()

        assert os.listdir(str(tmp_path)) == ["db.pysqlj"]
        assert rows(load_database(path), "t") == [[1, 10]]
        # And a later save still replaces it.
        save_database(db, path)
        assert rows(load_database(path), "t") == [[1, 10], [2, 20]]

    def test_unpicklable_database_leaves_no_file(self, tmp_path):
        db = self.make()
        s = db.create_session(autocommit=True)
        install_tag_type(s, tmp_path)
        s.execute("CREATE TABLE tags (t tag)")
        s.execute("INSERT INTO tags VALUES (NEW tag('x'))")
        s.close()
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(errors.DataError):
            save_database(db, str(target / "bad.pysqlj"))
        assert os.listdir(str(target)) == []
