"""LSM storage engine tests: SSTable format, flush mechanics, merged
scans, size-tiered compaction with horizon-bounded tombstone GC, the
vacuum handoff, and the LSM-specific crash windows (torn manifest,
mid-flush, mid-compaction).

The generic durability contract — crash matrix, isolation battery —
runs against the LSM engine through the storage-parametrized fixtures
in test_durability.py / test_isolation.py; this file covers what is
unique to the LSM layout itself.
"""

from __future__ import annotations

import gc
import os
import sqlite3
import warnings

import pytest

from repro import errors
from repro.engine.durability import WAL_FILENAME, open_database
from repro.engine.lsm import MANIFEST_FILENAME, SSTableReader, write_sstable
from repro.engine.lsm.sstable import BLOCK_ROWS
from repro.observability import metrics as _metrics
from repro.testing.faults import FaultPlan


def table_state(database, table="t"):
    session = database.create_session(autocommit=True)
    try:
        result = session.execute(f"SELECT k, v FROM {table}")
        return {row[0]: row[1] for row in result.rows}
    finally:
        session.close()


def open_lsm(directory, **kw):
    kw.setdefault("sync", False)
    kw.setdefault("checkpoint_interval", 0)
    return open_database(str(directory), storage="lsm", **kw)


def counters():
    return _metrics.snapshot()["counters"]


def crash(database):
    """Simulate kill -9 before abandoning ``database``: a real crash
    takes the compaction daemon down with the process, so halt it
    instead of letting it keep mutating the directory the reopen is
    about to read (two live owners of one data directory is
    explicitly unsupported)."""
    database.lsm_store.close()


# ---------------------------------------------------------------------------
# SSTable file format
# ---------------------------------------------------------------------------
class TestSSTable:
    def test_roundtrip(self, tmp_path):
        path = os.path.join(str(tmp_path), "run-00000001.run")
        rids = list(range(1, 50, 2))
        begins = [rid + 100 for rid in rids]
        rows = [[rid, f"v{rid}"] for rid in rids]
        tombstones = {rid: 999 for rid in range(2, 20, 4)}
        write_sstable(path, rids, begins, rows, tombstones, table="t")
        reader = SSTableReader(path)
        assert list(reader.rows()) == list(zip(rids, begins, rows))
        assert reader.tombstones() == tombstones
        assert reader.table == "t"
        assert reader.tombstone_rids == frozenset(range(2, 20, 4))
        assert reader.data_count == 25

    def test_sparse_index_spans_blocks(self, tmp_path):
        path = os.path.join(str(tmp_path), "run-00000001.run")
        count = BLOCK_ROWS * 3 + 17  # forces 4 blocks
        rids = range(1, count + 1)
        write_sstable(path, rids, [1] * count, [[rid] for rid in rids])
        reader = SSTableReader(path)
        # One (first rid, offset) pair per block; the scan walks them
        # in order and crosses every block boundary.
        assert [rid for rid, _ in reader._index] == [
            1 + BLOCK_ROWS * block for block in range(4)
        ]
        assert list(reader.rows()) == [(rid, 1, [rid]) for rid in rids]

    def test_reader_survives_unlink(self, tmp_path):
        """Compaction unlinks victim runs while a concurrent scan may
        still hold their readers: the reader keeps its descriptor open,
        so POSIX unlink semantics keep every block readable."""
        path = os.path.join(str(tmp_path), "run-00000001.run")
        rids = range(1, 600)
        write_sstable(path, rids, [1] * len(rids), [[rid] for rid in rids])
        reader = SSTableReader(path)
        os.unlink(path)
        assert list(reader.rows()) == [(rid, 1, [rid]) for rid in rids]

    def test_torn_run_file_rejected(self, tmp_path):
        path = os.path.join(str(tmp_path), "run-00000001.run")
        write_sstable(path, [1], [1], [[1]])
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(errors.DataError):
            SSTableReader(path)


# ---------------------------------------------------------------------------
# flush mechanics
# ---------------------------------------------------------------------------
class TestFlush:
    def test_flush_truncates_wal_and_installs_manifest(self, tmp_path):
        d = str(tmp_path)
        db = open_lsm(d)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        assert os.path.getsize(os.path.join(d, WAL_FILENAME)) > 0
        before = counters().get("lsm.flushes", 0)
        assert db.checkpoint() is True
        assert counters()["lsm.flushes"] == before + 1
        assert os.path.getsize(os.path.join(d, WAL_FILENAME)) == 0
        assert os.path.exists(os.path.join(d, MANIFEST_FILENAME))
        # No snapshot file: the runs + manifest ARE the checkpoint.
        assert not os.path.exists(os.path.join(d, "snapshot.db"))
        hist = _metrics.snapshot()["histograms"]
        assert hist["wal.checkpoint.seconds"]["count"] >= 1
        db.close()

    def test_flush_is_delta_not_whole_database(self, tmp_path):
        db = open_lsm(tmp_path)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        for i in range(100):
            s.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.checkpoint()
        store = db.lsm_store
        first = store.runs["t"][-1]
        assert first.data_count == 100
        s.execute("INSERT INTO t VALUES (1000, 1)")
        db.checkpoint()
        second = store.runs["t"][-1]
        # The second flush wrote only the one new row.
        assert second.data_count == 1
        assert second is not first
        db.close()

    def test_born_and_died_between_flushes_never_hits_disk(
        self, tmp_path
    ):
        db = open_lsm(tmp_path)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        s.execute("DELETE FROM t WHERE k = 1")
        s.execute("INSERT INTO t VALUES (2, 20)")
        db.checkpoint()
        run = db.lsm_store.runs["t"][-1]
        # One data entry (k=2); the k=1 version died unflushed, so
        # neither a data entry nor a tombstone was written for it.
        assert run.data_count == 1
        assert run.tombstone_rids == frozenset()
        db.close()

    def test_delete_after_flush_writes_tombstone(self, tmp_path):
        d = str(tmp_path)
        db = open_lsm(d)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        s.execute("INSERT INTO t VALUES (2, 20)")
        db.checkpoint()
        s.execute("DELETE FROM t WHERE k = 1")
        db.checkpoint()
        store = db.lsm_store
        tomb_run = store.runs["t"][-1]
        assert len(tomb_run.tombstone_rids) == 1
        db.close()
        db2 = open_database(d)
        assert table_state(db2) == {2: 20}
        db2.close()

    def test_merged_scan_shadows_older_runs(self, tmp_path):
        db = open_lsm(tmp_path)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        s.execute("INSERT INTO t VALUES (2, 20)")
        db.checkpoint()
        s.execute("UPDATE t SET v = 11 WHERE k = 1")
        db.checkpoint()
        store = db.lsm_store
        flushed = {
            row[0]: row[1] for _, _, row in store.scan_table("t")
        }
        assert flushed == {1: 11, 2: 20}
        # The k=1 row is served by the newer run, under a new rid; its
        # old rid is tombstoned and appears nowhere in the merged scan.
        rids = {row[0]: rid for rid, _, row in store.scan_table("t")}
        (dead_rid,) = store.runs["t"][-1].tombstone_rids
        assert dead_rid not in rids.values()
        assert rids[1] > rids[2]
        db.close()

    def test_storage_flag_is_creation_time_only(self, tmp_path):
        """``storage=`` is accepted and ignored: whatever a reopen
        passes, the directory keeps its runs and manifest."""
        d = str(tmp_path)
        db = open_lsm(d)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        db.close()
        db2 = open_database(d, storage="snapshot")
        assert db2.lsm_store is db2.durability.store
        assert table_state(db2) == {1: 10}
        db2.close()
        assert not os.path.exists(os.path.join(d, "snapshot.db"))

    def test_unknown_storage_rejected(self, tmp_path):
        with pytest.raises(errors.ConnectionError_):
            open_database(str(tmp_path), storage="btree")

    def test_storage_flag_survives_crash_before_first_flush(
        self, tmp_path
    ):
        """A directory without a manifest is an empty store whose WAL
        replays everything: a crash before any checkpoint loses
        nothing, whatever ``storage=`` the reopen passes."""
        d = str(tmp_path)
        db = open_lsm(d)
        assert not os.path.exists(os.path.join(d, MANIFEST_FILENAME))
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        crash(db)
        del s, db  # crash: no checkpoint ever ran

        db2 = open_database(d, storage="snapshot")
        assert db2.lsm_store is not None
        assert table_state(db2) == {1: 10}
        assert os.path.exists(os.path.join(d, MANIFEST_FILENAME))
        db2.close()


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------
def _load_batches(db, batches, rows_per_batch, offset=0):
    s = db.create_session(autocommit=True)
    for b in range(batches):
        for i in range(rows_per_batch):
            k = offset + b * rows_per_batch + i
            s.execute(f"INSERT INTO t VALUES ({k}, {k})")
        db.checkpoint()
    s.close()


class TestCompaction:
    def test_size_tiered_merge_reduces_runs(self, tmp_path):
        db = open_lsm(tmp_path)
        db.lsm_store.compact_threshold = 100  # hold background off
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.close()
        _load_batches(db, batches=5, rows_per_batch=20)
        store = db.lsm_store
        assert store.run_count("t") == 5
        store.compact_threshold = 4
        before = counters().get("lsm.compactions", 0)
        assert store.compact(db) >= 1
        assert counters()["lsm.compactions"] > before
        assert store.run_count("t") < 5
        # Every row still readable from the merged layout.
        flushed = {row[0] for _, _, row in store.scan_table("t")}
        assert flushed == set(range(100))
        db.close()

    def test_close_releases_every_run_file(self, tmp_path):
        """A closed database leaves no run file open: the store closes
        its live readers, and a compaction victim dropped earlier
        releases its descriptor with its last reference — so garbage
        collection finds nothing to report unclosed."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            db = open_lsm(tmp_path)
            store = db.lsm_store
            store.compact_threshold = 100  # hold background off
            s = db.create_session(autocommit=True)
            s.execute("CREATE TABLE t (k INT, v INT)")
            s.close()
            _load_batches(db, batches=5, rows_per_batch=20)
            store.compact_threshold = 4
            assert store.compact(db) >= 1
            _load_batches(db, batches=1, rows_per_batch=5, offset=100)
            readers = [r for runs in store.runs.values() for r in runs]
            assert len(readers) >= 2
            db.close()
            assert all(reader._handle.closed for reader in readers)
            del db, store, readers
            gc.collect()
        assert [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)
        ] == []

    def test_compaction_preserves_state_across_reopen(self, tmp_path):
        d = str(tmp_path)
        db = open_lsm(d)
        db.lsm_store.compact_threshold = 100
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.close()
        _load_batches(db, batches=4, rows_per_batch=10)
        s = db.create_session(autocommit=True)
        s.execute("DELETE FROM t WHERE k < 5")
        s.execute("UPDATE t SET v = 999 WHERE k = 7")
        s.close()
        db.checkpoint()
        db.lsm_store.compact_threshold = 2
        assert db.lsm_store.compact(db) >= 1
        expected = table_state(db)
        db.close()
        db2 = open_database(d)
        assert table_state(db2) == expected
        assert expected[7] == 999 and 0 not in expected
        db2.close()

    def test_tombstone_gc_bounded_by_oldest_visible_seq(self, tmp_path):
        db = open_lsm(tmp_path)
        store = db.lsm_store
        store.compact_threshold = 100
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        for i in range(10):
            s.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.checkpoint()
        # Pin an old snapshot with a reader transaction.
        reader = db.create_session(autocommit=False)
        assert reader.execute("SELECT COUNT(*) FROM t").rows == [[10]]
        s.execute("DELETE FROM t WHERE k < 4")
        # Ten more rows keep the second run in the first one's size tier.
        for i in range(10, 20):
            s.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.checkpoint()
        store.compact_threshold = 2
        assert store.compact(db) == 1
        merged = store.runs["t"][-1]
        # The reader's snapshot still needs those rows: rows and
        # tombstones both survive the merge.
        assert merged.data_count == 20
        assert len(merged.tombstone_rids) == 4
        reader.close()  # horizon advances past the deletions
        before = counters().get("lsm.tombstones_gced", 0)
        store.compact_threshold = 1  # rewrite the lone merged run
        assert store.compact(db) == 1
        gced = store.runs["t"][-1]
        assert gced.data_count == 16
        assert gced.tombstone_rids == frozenset()
        assert counters()["lsm.tombstones_gced"] == before + 4
        db.close()

    def test_tombstone_kept_when_data_in_unmerged_run(self, tmp_path):
        db = open_lsm(tmp_path)
        store = db.lsm_store
        store.compact_threshold = 100
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        # One big old run the span picker will not select...
        for i in range(200):
            s.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.checkpoint()
        # ...then several small runs, one holding a tombstone whose
        # row lives in the big run.
        s.execute("DELETE FROM t WHERE k = 0")
        s.execute("INSERT INTO t VALUES (999, 1)")
        db.checkpoint()
        for b in range(3):
            s.execute(f"INSERT INTO t VALUES ({1000 + b}, 1)")
            db.checkpoint()
        store.compact_threshold = 4
        assert store.compact(db) == 1
        assert store.run_count("t") == 2  # big run + merged small runs
        merged = store.runs["t"][-1]
        # The tombstone must survive: dropping it would resurrect k=0.
        assert len(merged.tombstone_rids) == 1
        flushed = {row[0] for _, _, row in store.scan_table("t")}
        assert 0 not in flushed and len(flushed) == 203
        db.close()

    def test_background_compaction_runs_after_flushes(self, tmp_path):
        db = open_lsm(tmp_path)
        db.lsm_store.compact_threshold = 4
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.close()
        _load_batches(db, batches=6, rows_per_batch=20)
        thread = db.lsm_store._compact_thread
        if thread is not None:
            thread.join(timeout=10.0)
        assert db.lsm_store.run_count("t") < 6
        db.close()

    def test_background_compaction_surfaces_corruption(self, tmp_path):
        """Real on-disk corruption found by a background pass is
        reported (``lsm.compact.corruption``) and halts further
        background compaction instead of being retried forever."""
        db = open_lsm(tmp_path)
        store = db.lsm_store
        store.compact_threshold = 100  # hold background off while loading
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.close()
        _load_batches(db, batches=4, rows_per_batch=10)
        # Corrupt one run's first data block in place (the footer was
        # cached at open, so the reader construction already passed).
        victim = store.runs["t"][0].path
        offset = 20  # past magic + frame header: inside the payload
        with open(victim, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
        before = counters().get("lsm.compact.corruption", 0)
        store.compact_threshold = 2
        assert store.maybe_compact(db) is True
        thread = store._compact_thread
        if thread is not None:
            thread.join(timeout=10.0)
        assert counters()["lsm.compact.corruption"] == before + 1
        assert isinstance(store.corruption_error, errors.DataError)
        # No silent retry loop: background compaction refuses to run.
        assert store.maybe_compact(db) is False
        # A foreground pass still raises the damage to the caller.
        with pytest.raises(errors.DataError):
            store.compact(db)
        db.close()

    def test_vacuum_triggers_compaction_for_lsm(self, tmp_path):
        """The storage-aware vacuum bugfix: a threshold-triggered
        vacuum pass offers the LSM store a compaction instead of only
        sweeping heap versions."""
        db = open_lsm(tmp_path)
        db.lsm_store.compact_threshold = 4
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.close()
        _load_batches(db, batches=5, rows_per_batch=20)
        # Quiesce any flush-triggered background pass first.
        thread = db.lsm_store._compact_thread
        if thread is not None:
            thread.join(timeout=10.0)
        runs_before = db.lsm_store.run_count("t")
        db.vacuum()
        thread = db.lsm_store._compact_thread
        if thread is not None:
            thread.join(timeout=10.0)
        assert db.lsm_store.run_count("t") <= runs_before
        db.close()


# ---------------------------------------------------------------------------
# vacuum handoff
# ---------------------------------------------------------------------------
class TestVacuumHandoff:
    def test_vacuumed_deletion_still_reaches_disk(self, tmp_path):
        d = str(tmp_path)
        db = open_lsm(d)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        for i in range(6):
            s.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.checkpoint()
        s.execute("DELETE FROM t WHERE k < 3")
        # Vacuum physically removes the dead versions from the heap
        # BEFORE any flush wrote their tombstones...
        db.vacuum()
        assert db.lsm_store._pending["t"]
        # ...the next flush must still record the deletions.
        db.checkpoint()
        assert not db.lsm_store._pending
        db.close()
        db2 = open_database(d)
        assert table_state(db2) == {3: 3, 4: 4, 5: 5}
        db2.close()

    def test_crash_after_vacuum_before_flush_is_safe(self, tmp_path):
        """The WAL still holds the deleting statements, so losing the
        pending-tombstone buffer in a crash is recovery-neutral."""
        d = str(tmp_path)
        db = open_lsm(d)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        for i in range(6):
            s.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.checkpoint()
        s.execute("DELETE FROM t WHERE k < 3")
        db.vacuum()
        crash(db)
        del s, db  # crash with the handoff un-flushed

        db2 = open_database(d)
        assert table_state(db2) == {3: 3, 4: 4, 5: 5}
        db2.close()


# ---------------------------------------------------------------------------
# LSM crash windows
# ---------------------------------------------------------------------------
class TestLsmCrashWindows:
    def _seed(self, d):
        db = open_lsm(d)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        db.checkpoint()
        s.execute("INSERT INTO t VALUES (2, 20)")
        return db, s

    def test_crash_before_flush_writes_anything(self, tmp_path):
        d = str(tmp_path)
        db, s = self._seed(d)
        plan = FaultPlan(seed=21)
        plan.inject(
            "lsm.flush", error=errors.OperatorExecutionError, times=1
        )
        with plan.armed():
            with pytest.raises(errors.ReproError):
                db.checkpoint()
        crash(db)
        del s, db  # crash: manifest old, WAL intact

        db2 = open_database(d)
        assert table_state(db2) == {1: 10, 2: 20}
        db2.close()

    def test_crash_between_runs_and_manifest(self, tmp_path):
        """Runs written but manifest not installed: the old manifest
        still governs, replay covers the delta, and orphaned run files
        (here from a simulated crash in that window) are swept at
        open."""
        d = str(tmp_path)
        db, s = self._seed(d)
        before = {f for f in os.listdir(d) if f.endswith(".run")}
        plan = FaultPlan(seed=22)
        plan.inject(
            "lsm.manifest", error=errors.OperatorExecutionError, times=1
        )
        with plan.armed():
            with pytest.raises(errors.ReproError):
                db.checkpoint()
        assert plan.fired["lsm.manifest"] == 1
        # The failed attempt cleaned up its own run files in-process —
        # nothing leaks while the process lives on.
        after = {f for f in os.listdir(d) if f.endswith(".run")}
        assert after == before
        # A real crash in the window leaves completed run files with no
        # manifest referencing them; plant that state by hand.
        orphan = os.path.join(d, "run-77777777.run")
        write_sstable(orphan, [999], [1], [[999, 0]], table="t")
        with open(os.path.join(d, "run-77777778.run.tmp"), "wb") as fh:
            fh.write(b"\x00half-written run")
        crash(db)
        del s, db  # crash

        db2 = open_database(d)
        assert table_state(db2) == {1: 10, 2: 20}
        referenced = {
            os.path.basename(r.path)
            for runs in db2.lsm_store.runs.values()
            for r in runs
        }
        # Every run file on disk is manifest-referenced again; the
        # orphan and the temp leftovers were swept.
        on_disk = {f for f in os.listdir(d) if f.endswith(".run")}
        assert on_disk == referenced
        assert not os.path.exists(orphan)
        assert not any(f.endswith(".tmp") for f in os.listdir(d))
        db2.close()

    def test_failed_flush_leaves_memtable_reflushable(self, tmp_path):
        """A flush that fails after writing runs but before the
        manifest install must leave the heap untouched: rid assignments
        are staged, so the retry re-emits the identical delta.  (The
        historical bug: rids were assigned eagerly, the retry skipped
        those versions as already-flushed, installed a manifest without
        their rows and truncated the WAL — silent loss of committed
        data.)"""
        d = str(tmp_path)
        db, s = self._seed(d)
        plan = FaultPlan(seed=26)
        plan.inject(
            "lsm.manifest", error=errors.OperatorExecutionError, times=1
        )
        with plan.armed():
            with pytest.raises(errors.ReproError):
                db.checkpoint()
        # The retry succeeds and must cover the row the failed attempt
        # tried to flush.
        assert db.checkpoint() is True
        assert os.path.getsize(os.path.join(d, WAL_FILENAME)) == 0
        flushed = {
            row[0]: row[1] for _, _, row in db.lsm_store.scan_table("t")
        }
        assert flushed == {1: 10, 2: 20}
        crash(db)
        del s, db  # crash: the WAL is empty, the runs must be complete

        db2 = open_database(d)
        assert table_state(db2) == {1: 10, 2: 20}
        db2.close()

    def test_crash_between_manifest_and_wal_truncate(self, tmp_path):
        """Manifest installed, WAL not truncated: replay must skip the
        already-folded records (seq <= manifest.last_seq)."""
        d = str(tmp_path)
        db, s = self._seed(d)
        plan = FaultPlan(seed=23)
        plan.inject(
            "lsm.flush.install",
            error=errors.OperatorExecutionError,
            times=1,
        )
        with plan.armed():
            with pytest.raises(errors.ReproError):
                db.checkpoint()
        assert os.path.getsize(os.path.join(d, WAL_FILENAME)) > 0
        crash(db)
        del s, db  # crash

        db2 = open_database(d)
        assert table_state(db2) == {1: 10, 2: 20}  # once, not twice
        db2.close()

    def test_crash_mid_compaction_before_install(self, tmp_path):
        d = str(tmp_path)
        db = open_lsm(d)
        db.lsm_store.compact_threshold = 100
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.close()
        _load_batches(db, batches=4, rows_per_batch=10)
        expected = table_state(db)
        db.lsm_store.compact_threshold = 2
        plan = FaultPlan(seed=24)
        plan.inject(
            "lsm.compact", error=errors.OperatorExecutionError, times=1
        )
        with plan.armed():
            with pytest.raises(errors.ReproError):
                db.lsm_store.compact(db)
        crash(db)
        del db  # crash: old manifest, victims intact

        db2 = open_database(d)
        assert table_state(db2) == expected
        db2.close()

    def test_crash_mid_compaction_after_install(self, tmp_path):
        """Merged manifest installed but victim runs not yet unlinked:
        recovery trusts the manifest and sweeps the victims."""
        d = str(tmp_path)
        db = open_lsm(d)
        db.lsm_store.compact_threshold = 100
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.close()
        _load_batches(db, batches=4, rows_per_batch=10)
        expected = table_state(db)
        db.lsm_store.compact_threshold = 2
        plan = FaultPlan(seed=25)
        plan.inject(
            "lsm.compact.install",
            error=errors.OperatorExecutionError,
            times=1,
        )
        with plan.armed():
            with pytest.raises(errors.ReproError):
                db.lsm_store.compact(db)
        victims_on_disk = {
            f for f in os.listdir(d) if f.endswith(".run")
        }
        crash(db)
        del db  # crash

        db2 = open_database(d)
        assert table_state(db2) == expected
        on_disk = {f for f in os.listdir(d) if f.endswith(".run")}
        assert on_disk < victims_on_disk  # victims swept at open
        db2.close()

    def test_torn_manifest_raises_clear_error(self, tmp_path):
        d = str(tmp_path)
        db, s = self._seed(d)
        s.close()
        db.close()
        path = os.path.join(d, MANIFEST_FILENAME)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) - 7])  # chop the tail
        with pytest.raises(errors.DataError):
            open_database(d)
        # A foreign file is rejected too, not silently emptied.
        with open(path, "wb") as fh:
            fh.write(b"not a manifest at all")
        with pytest.raises(errors.DataError):
            open_database(d)

    def test_leftover_manifest_tmp_is_ignored_and_swept(self, tmp_path):
        d = str(tmp_path)
        db, s = self._seed(d)
        s.close()
        db.close()
        tmp = os.path.join(d, MANIFEST_FILENAME + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(b"\x00garbage from a crashed install")
        db2 = open_database(d)
        assert table_state(db2) == {1: 10, 2: 20}
        assert not os.path.exists(tmp)
        db2.close()


# ---------------------------------------------------------------------------
# DDL interplay
# ---------------------------------------------------------------------------
class TestDdlInvalidation:
    def test_alter_add_column_rewrites_runs(self, tmp_path):
        d = str(tmp_path)
        db = open_lsm(d)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        db.checkpoint()
        s.execute("ALTER TABLE t ADD COLUMN w INT")
        s.execute("UPDATE t SET w = 7 WHERE k = 1")
        db.checkpoint()
        db.close()
        db2 = open_database(d)
        s2 = db2.create_session(autocommit=True)
        assert s2.execute("SELECT k, v, w FROM t").rows == [[1, 10, 7]]
        db2.close()

    def test_alter_drop_column_rewrites_runs(self, tmp_path):
        d = str(tmp_path)
        db = open_lsm(d)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT, w INT)")
        s.execute("INSERT INTO t VALUES (1, 10, 7)")
        db.checkpoint()
        s.execute("ALTER TABLE t DROP COLUMN w")
        db.checkpoint()
        db.close()
        db2 = open_database(d)
        assert table_state(db2) == {1: 10}
        db2.close()

    def test_drop_table_reclaims_run_files(self, tmp_path):
        d = str(tmp_path)
        db = open_lsm(d)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        db.checkpoint()
        assert any(f.endswith(".run") for f in os.listdir(d))
        s.execute("DROP TABLE t")
        db.checkpoint()
        assert not any(f.endswith(".run") for f in os.listdir(d))
        db.close()


#: The old ``t`` is flushed, then dropped and re-created between two
#: flushes; its runs must not come back under the new table.
OLD_T = [
    "CREATE TABLE t (k INT, v VARCHAR(8))",
    "INSERT INTO t VALUES (1, 'old')",
    "INSERT INTO t VALUES (2, 'old')",
]
NEW_T = [
    "DROP TABLE t",
    "CREATE TABLE t (k INT, v VARCHAR(8))",
    "INSERT INTO t VALUES (3, 'new')",
]


def sqlite_rows(statements):
    oracle = sqlite3.connect(":memory:")
    try:
        for sql in statements:
            oracle.execute(sql)
        return [list(row) for row in
                oracle.execute("SELECT k, v FROM t ORDER BY k")]
    finally:
        oracle.close()


def rows_of_t(database):
    session = database.create_session(autocommit=True)
    try:
        return session.execute("SELECT k, v FROM t ORDER BY k").rows
    finally:
        session.close()


class TestDropCreateSameName:
    """DROP TABLE retires the name's runs: a table created later under
    the same name starts empty on disk too."""

    def run(self, db, statements):
        s = db.create_session(autocommit=True)
        for sql in statements:
            s.execute(sql)
        s.close()

    def test_clean_close_and_reopen(self, tmp_path):
        d = str(tmp_path)
        db = open_lsm(d)
        self.run(db, OLD_T)
        db.checkpoint()
        self.run(db, NEW_T)
        expected = sqlite_rows(OLD_T + NEW_T)
        assert rows_of_t(db) == expected == [[3, "new"]]
        db.close()
        db2 = open_database(d)
        assert rows_of_t(db2) == expected
        db2.close()

    def test_crash_before_the_next_flush(self, tmp_path):
        """Replay re-runs the DROP and the CREATE over the old table's
        runs; the flush that ends recovery must retire them."""
        d = str(tmp_path)
        db = open_lsm(d)
        self.run(db, OLD_T)
        db.checkpoint()
        self.run(db, NEW_T)
        crash(db)
        del db
        expected = sqlite_rows(OLD_T + NEW_T)
        db2 = open_database(d)
        assert rows_of_t(db2) == expected
        db2.close()
        db3 = open_database(d)  # from the runs alone: the WAL is empty
        assert os.path.getsize(os.path.join(d, WAL_FILENAME)) == 0
        assert rows_of_t(db3) == expected
        db3.close()

    def test_compaction_between_drop_and_flush(self, tmp_path):
        d = str(tmp_path)
        db = open_lsm(d)
        store = db.lsm_store
        store.compact_threshold = 100
        self.run(db, OLD_T[:1])
        statements = list(OLD_T[:1])
        for k in range(4):  # four same-tier runs of the old table
            sql = f"INSERT INTO t VALUES ({10 + k}, 'old')"
            self.run(db, [sql])
            statements.append(sql)
            db.checkpoint()
        self.run(db, NEW_T)
        store.compact_threshold = 4
        assert store.compact(db) == 1  # merges the dropped table's runs
        expected = sqlite_rows(statements + NEW_T)
        assert rows_of_t(db) == expected
        db.checkpoint()
        assert store.run_count("t") == 1
        db.close()
        db2 = open_database(d)
        assert rows_of_t(db2) == expected
        db2.close()
