"""Durability subsystem tests: WAL framing, group commit, checkpointing,
crash recovery, and the fault-injection crash matrix.

The crash matrix is differential: a deterministic workload runs against
a durable database with one seeded fault injected somewhere in the
write/fsync/checkpoint path, the process "crashes" (the database object
is abandoned without ``close()``), and recovery must yield *exactly* the
state after some statement prefix no shorter than what the client saw
acknowledged — no lost acked commits, no half-applied statements, no
resurrection of rolled-back work.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import errors
from repro.engine import durability
from repro.engine.durability import (
    WAL_FILENAME,
    DurabilityManager,
    open_database,
)
from repro.engine.indexes import Index
from repro.engine.lsm import MANIFEST_FILENAME
from repro.engine.persistence import SNAPSHOT_FILENAME
from repro.engine.wal import (
    KIND_ABORT,
    KIND_COMMIT,
    KIND_STATEMENT,
    WalRecord,
    WriteAheadLog,
    encode_record,
    scan_records,
)
from repro.observability import metrics as _metrics
from repro.testing.faults import FaultPlan
from tests.legacy_formats import (
    LEGACY_ROWS,
    legacy_database,
    snapshot_bytes,
    wal_bytes,
    write_file,
    write_snapshot_dir,
)


def crash(database):
    """Simulate kill -9 before abandoning ``database``.

    A real crash takes background threads down with the process; in
    the test process the LSM store's compaction daemon would survive
    the ``del`` and keep rewriting the directory while recovery reads
    it — which models two live processes owning one data directory,
    explicitly unsupported.  Halting the daemon (its manifest installs
    are atomic, so stopping after any one of them is crash-shaped)
    restores the single-owner premise for the reopen."""
    store = getattr(database, "lsm_store", None)
    if store is not None:
        store.close()


def table_state(database, table="t"):
    """``{k: v}`` snapshot of a two-int-column table."""
    session = database.create_session(autocommit=True)
    try:
        result = session.execute(f"SELECT k, v FROM {table}")
        return {row[0]: row[1] for row in result.rows}
    finally:
        session.close()


@pytest.fixture(params=["snapshot", "lsm"])
def storage(request):
    """Run recovery-sensitive tests on both kinds of directory a first
    open may meet: an empty one (``lsm``), or one checkpointed as a
    whole-database ``snapshot.db`` image (``snapshot``), which that
    open migrates to runs.  Either way every later crash and reopen
    must behave the same."""
    return request.param


def first_open(directory, storage, **kw):
    """Open ``directory`` for the first time; under ``snapshot`` it
    starts as a snapshot checkpoint holding the ``legacy`` table."""
    if storage == "snapshot":
        write_snapshot_dir(
            directory, legacy_database(name=kw.get("name", "db"))
        )
    return open_database(directory, storage=storage, **kw)


def check_origin(database, storage):
    """A migrated directory still holds what its image held."""
    if storage == "snapshot":
        assert table_state(database, "legacy") == LEGACY_ROWS


# ---------------------------------------------------------------------------
# WAL framing
# ---------------------------------------------------------------------------
class TestWalFraming:
    def test_roundtrip(self, tmp_path):
        path = os.path.join(str(tmp_path), "wal.log")
        wal = WriteAheadLog(path, sync=True)
        records = [
            WalRecord(1, KIND_STATEMENT, 1, ("dba", "INSERT ...", (1,))),
            WalRecord(2, KIND_COMMIT, 1, None),
            WalRecord(3, KIND_STATEMENT, 2, ("dba", "DELETE ...", ())),
            WalRecord(4, KIND_ABORT, 2, None),
        ]
        positions = [wal.append(r) for r in records]
        wal.sync_to(positions[-1])
        wal.close()

        with open(path, "rb") as fh:
            data = fh.read()
        decoded, valid = scan_records(data)
        assert valid == len(data)
        assert [r.as_tuple() for r in decoded] == \
            [r.as_tuple() for r in records]

    def test_torn_tail_is_detected(self, tmp_path):
        path = os.path.join(str(tmp_path), "wal.log")
        good = encode_record(WalRecord(1, KIND_COMMIT, 1, None))
        torn = encode_record(
            WalRecord(2, KIND_STATEMENT, 2, ("u", "X", ()))
        )[:-3]
        with open(path, "wb") as fh:
            fh.write(good + torn)
        with open(path, "rb") as fh:
            records, valid = scan_records(fh.read())
        assert len(records) == 1
        assert valid == len(good)

    def test_corrupt_crc_stops_scan(self, tmp_path):
        good = encode_record(WalRecord(1, KIND_COMMIT, 1, None))
        bad = bytearray(
            encode_record(WalRecord(2, KIND_COMMIT, 2, None))
        )
        bad[-1] ^= 0xFF  # flip a payload byte: CRC mismatch
        records, valid = scan_records(good + bytes(bad))
        assert len(records) == 1
        assert valid == len(good)

    def test_unpicklable_payload_raises(self, tmp_path):
        unpicklable = lambda: None  # noqa: E731 - local funcs can't pickle
        record = WalRecord(1, KIND_STATEMENT, 1, ("u", "X", (unpicklable,)))
        with pytest.raises(errors.ReproError):
            encode_record(record)


# ---------------------------------------------------------------------------
# Basic recovery
# ---------------------------------------------------------------------------
class TestRecovery:
    def test_committed_work_survives_reopen(self, tmp_path, storage):
        d = str(tmp_path)
        db = first_open(d, storage, name="recov")
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        s.execute("INSERT INTO t VALUES (2, 20)")
        s.close()
        db.close()

        db2 = open_database(d)
        assert db2.name == "recov"
        assert table_state(db2) == {1: 10, 2: 20}
        check_origin(db2, storage)
        db2.close()

    def test_uncommitted_txn_discarded_on_crash(self, tmp_path, storage):
        d = str(tmp_path)
        db = first_open(d, storage)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        s.autocommit = False
        s.execute("INSERT INTO t VALUES (2, 20)")  # never committed
        # Crash: abandon without close/commit.
        crash(db)
        del s, db

        db2 = open_database(d)
        assert table_state(db2) == {1: 10}
        db2.close()

    def test_rolled_back_txn_not_replayed(self, tmp_path, storage):
        d = str(tmp_path)
        db = first_open(d, storage)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.autocommit = False
        s.execute("INSERT INTO t VALUES (1, 10)")
        s.rollback()
        s.execute("INSERT INTO t VALUES (2, 20)")
        s.commit()
        crash(db)
        del s, db  # crash before checkpoint: state comes from the WAL

        db2 = open_database(d)
        assert table_state(db2) == {2: 20}
        db2.close()

    def test_ddl_is_durable_without_explicit_commit(
        self, tmp_path, storage
    ):
        d = str(tmp_path)
        db = first_open(d, storage)
        s = db.create_session(autocommit=False)  # even in a txn session
        s.execute("CREATE TABLE t (k INT, v INT)")
        crash(db)
        del s, db  # crash

        db2 = open_database(d)
        assert table_state(db2) == {}
        db2.close()

    def test_savepoints_replay(self, tmp_path, storage):
        d = str(tmp_path)
        db = first_open(d, storage)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.autocommit = False
        s.execute("INSERT INTO t VALUES (1, 10)")
        s.execute("SAVEPOINT sp1")
        s.execute("INSERT INTO t VALUES (2, 20)")
        s.execute("ROLLBACK TO SAVEPOINT sp1")
        s.execute("INSERT INTO t VALUES (3, 30)")
        s.commit()
        crash(db)
        del s, db  # crash; recovery replays the savepoint dance

        db2 = open_database(d)
        assert table_state(db2) == {1: 10, 3: 30}
        db2.close()

    def test_indexes_rebuilt_consistently(self, tmp_path, storage):
        d = str(tmp_path)
        db = first_open(d, storage)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("CREATE INDEX t_k ON t (k)")
        for i in range(8):
            s.execute(f"INSERT INTO t VALUES ({i}, {i * 10})")
        s.execute("DELETE FROM t WHERE k = 3")
        crash(db)
        del s, db  # crash

        db2 = open_database(d)
        table = db2.catalog.tables["t"]
        for index in table.indexes:
            index.verify_against_heap()  # raises on divergence
        s2 = db2.create_session(autocommit=True)
        plan = s2.execute("EXPLAIN SELECT v FROM t WHERE k = 5")
        assert "IndexScan" in "\n".join(
            " ".join(str(c) for c in row) for row in plan.rows
        )
        s2.close()
        db2.close()

    def test_index_check_holds_off_vacuum(
        self, tmp_path, storage, monkeypatch
    ):
        """Replay's commits can start the background vacuum, which
        rewrites heaps and indexes; recovery's index check must not see
        it happen halfway.  The vacuum is started mid-check here, and
        the check gives it half a second to finish before reading on."""
        d = str(tmp_path)
        db = first_open(d, storage, checkpoint_interval=0)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("CREATE INDEX t_k ON t (k)")
        s.execute_batch(
            "INSERT INTO t VALUES (?, ?)", [(i, i) for i in range(50)]
        )
        db.checkpoint()
        for i in range(20):
            s.execute("UPDATE t SET v = v + 1 WHERE k = ?", [i])
        crash(db)
        del s, db  # 20 dead versions wait in the replayed tail

        replayed, vacuums = [], []
        replay, length = durability._replay, Index.__len__

        def replay_then_mark(database, records, last_seq):
            count = replay(database, records, last_seq)
            replayed.append(database)
            return count

        def length_then_vacuum(index):
            entries = length(index)
            if replayed and not vacuums:
                vacuum = threading.Thread(target=replayed[0].vacuum)
                vacuums.append(vacuum)
                vacuum.start()
                vacuum.join(timeout=0.5)
            return entries

        monkeypatch.setattr(durability, "_replay", replay_then_mark)
        monkeypatch.setattr(Index, "__len__", length_then_vacuum)
        db2 = open_database(d)
        [vacuum] = vacuums
        vacuum.join(timeout=10.0)
        assert not vacuum.is_alive()
        assert table_state(db2) == {
            i: i + (1 if i < 20 else 0) for i in range(50)
        }
        [index] = db2.catalog.tables["t"].indexes
        index.verify_against_heap()
        assert len(db2.catalog.tables["t"].versions) == 50
        db2.close()

    def test_recovery_metrics_flow(self, tmp_path):
        d = str(tmp_path)
        db = open_database(d)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        crash(db)
        del s, db  # crash with WAL content pending

        before = _metrics.snapshot()["counters"]
        db2 = open_database(d)
        after = _metrics.snapshot()["counters"]
        assert after["wal.recoveries"] == before.get("wal.recoveries", 0) + 1
        assert after["wal.recovered_txns"] >= \
            before.get("wal.recovered_txns", 0) + 1
        hist = _metrics.snapshot()["histograms"]
        assert hist["wal.recovery.seconds"]["count"] >= 1
        db2.close()


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------
class TestCheckpoint:
    def test_checkpoint_folds_and_truncates(self, tmp_path):
        d = str(tmp_path)
        db = open_database(d, checkpoint_interval=0)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        wal_path = os.path.join(d, WAL_FILENAME)
        assert os.path.getsize(wal_path) > 0
        assert db.checkpoint() is True
        assert os.path.getsize(wal_path) == 0
        assert os.path.getsize(os.path.join(d, MANIFEST_FILENAME)) > 0
        # State must come entirely from the runs now.
        crash(db)
        del s, db
        db2 = open_database(d)
        assert table_state(db2) == {1: 10}
        db2.close()

    def test_automatic_checkpoint_interval(self, tmp_path):
        before = _metrics.snapshot()["counters"].get("wal.checkpoints", 0)
        db = open_database(str(tmp_path), checkpoint_interval=2)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        for i in range(6):
            s.execute(f"INSERT INTO t VALUES ({i}, {i})")
        after = _metrics.snapshot()["counters"]["wal.checkpoints"]
        assert after >= before + 3
        s.close()
        db.close()

    def test_crash_between_install_and_truncate(self, tmp_path):
        """Manifest installed but WAL not yet truncated: replay must be
        idempotent (records at or below the manifest's last_seq
        skipped)."""
        d = str(tmp_path)
        db = open_database(d, checkpoint_interval=0)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        plan = FaultPlan(seed=3)
        plan.inject(
            "lsm.flush.install",
            error=errors.OperatorExecutionError,
            times=1,
        )
        with plan.armed():
            with pytest.raises(errors.ReproError):
                db.checkpoint()
        assert plan.fired["lsm.flush.install"] == 1
        # Manifest exists AND the WAL still holds the same transactions.
        assert os.path.getsize(os.path.join(d, MANIFEST_FILENAME)) > 0
        assert os.path.getsize(os.path.join(d, WAL_FILENAME)) > 0
        crash(db)
        del s, db  # crash

        db2 = open_database(d)
        assert table_state(db2) == {1: 10}  # applied once, not twice
        db2.close()


# ---------------------------------------------------------------------------
# Group commit
# ---------------------------------------------------------------------------
class TestGroupCommit:
    def test_concurrent_commits_share_fsyncs(self, tmp_path):
        db = open_database(
            str(tmp_path), group_window=0.02, group_size=8
        )
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.close()

        before = _metrics.snapshot()["counters"]
        n_threads, per_thread = 8, 4
        errors_seen = []

        def worker(tid):
            try:
                ws = db.create_session(autocommit=True)
                for j in range(per_thread):
                    ws.execute(
                        f"INSERT INTO t VALUES ({tid * 100 + j}, {j})"
                    )
                ws.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors_seen.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors_seen
        after = _metrics.snapshot()["counters"]
        commits = after["wal.commits"] - before.get("wal.commits", 0)
        fsyncs = after["wal.fsyncs"] - before.get("wal.fsyncs", 0)
        assert commits == n_threads * per_thread
        # Group commit must have batched at least some of them.
        assert fsyncs < commits
        assert table_state(db) and len(table_state(db)) == commits
        db.close()

    def test_single_threaded_still_durable(self, tmp_path):
        d = str(tmp_path)
        db = open_database(d, group_window=0.005, group_size=4)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 1)")
        crash(db)
        del s, db  # crash right after the acked insert

        db2 = open_database(d)
        assert table_state(db2) == {1: 1}
        db2.close()


# ---------------------------------------------------------------------------
# Crash matrix
# ---------------------------------------------------------------------------
# Deterministic workload over t(k, v): inserts with periodic updates and
# deletes, so every redo record kind and both index maintenance paths
# are exercised.
def _workload_statements(n=12):
    statements = []
    for i in range(n):
        if i % 4 == 3:
            statements.append(
                f"UPDATE t SET v = v + 100 WHERE k = {i - 1}"
            )
        elif i % 5 == 4:
            statements.append(f"DELETE FROM t WHERE k = {i - 2}")
        else:
            statements.append(f"INSERT INTO t VALUES ({i}, {i})")
    return statements


def _shadow_states(statements):
    """State after each statement prefix: list of dicts, index = #applied."""
    states = [{}]
    state = {}
    for sql in statements:
        parts = sql.split()
        if parts[0] == "INSERT":
            k = int(sql.split("(")[1].split(",")[0])
            v = int(sql.split(",")[1].strip(" )"))
            state[k] = v
        elif parts[0] == "UPDATE":
            k = int(parts[-1])
            if k in state:
                state[k] += 100
        else:  # DELETE
            k = int(parts[-1])
            state.pop(k, None)
        states.append(dict(state))
    return states


CRASH_SITES = [
    "storage.insert",
    "storage.update",
    "storage.delete",
    # MVCC commit window: the stamp is allocated (writes visible
    # in-process) but the WAL commit marker was never appended, so the
    # transaction must vanish on recovery.
    "mvcc.commit",
    "wal.append",
    "wal.written",
    "wal.fsync",
    "wal.checkpoint",
    "lsm.manifest",
    "wal.checkpoint.install",
]

#: The checkpoint windows keep the ids they had when a checkpoint could
#: also be a snapshot rewrite; both are LSM flush sites now: before the
#: flush writes anything, and manifest installed / WAL not yet
#: truncated.
FLUSH_SITES = {
    "wal.checkpoint": "lsm.flush",
    "wal.checkpoint.install": "lsm.flush.install",
}


class TestCrashMatrix:
    @pytest.mark.parametrize("site", CRASH_SITES)
    @pytest.mark.parametrize("after", [0, 2, 5])
    def test_recovery_yields_exact_committed_prefix(
        self, tmp_path, site, after, storage
    ):
        d = str(tmp_path)
        statements = _workload_statements()
        states = _shadow_states(statements)
        site = FLUSH_SITES.get(site, site)

        db = first_open(d, storage, checkpoint_interval=3)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("CREATE INDEX t_k ON t (k)")

        plan = FaultPlan(seed=after + 1)
        plan.inject(
            site, error=errors.OperatorExecutionError,
            after=after, times=1,
        )
        acked = 0
        attempted = 0
        with plan.armed():
            for sql in statements:
                attempted += 1
                try:
                    s.execute(sql)
                except errors.ReproError:
                    break  # crash point: abandon everything
                acked += 1
        crash(db)
        del s, db  # crash: no close, no final checkpoint

        db2 = open_database(d)
        recovered = table_state(db2)
        # Exactly some committed prefix, at least everything acked.
        matching = [
            j for j in range(acked, attempted + 1)
            if j < len(states) and states[j] == recovered
        ]
        assert matching, (
            f"site={site} after={after}: recovered state {recovered!r} "
            f"matches no statement prefix >= acked={acked} "
            f"(attempted={attempted})"
        )
        # Index structures must agree with the recovered heap.
        for index in db2.catalog.tables["t"].indexes:
            index.verify_against_heap()
        check_origin(db2, storage)
        db2.close()

    @pytest.mark.parametrize("after", [0, 1])
    def test_crash_mid_vacuum_is_recovery_neutral(
        self, tmp_path, after, storage
    ):
        """Vacuum is not WAL-logged, so a crash when only *some* tables
        were reclaimed (``after=1``: the fault fires on the second
        table) must recover the exact committed state regardless."""
        d = str(tmp_path)
        statements = _workload_statements()
        expected = _shadow_states(statements)[-1]

        db = first_open(d, storage)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("CREATE INDEX t_k ON t (k)")
        s.execute("CREATE TABLE side (k INT, v INT)")
        for sql in statements:
            s.execute(sql)
        s.execute("INSERT INTO side VALUES (1, 1)")
        s.execute("DELETE FROM side WHERE k = 1")

        plan = FaultPlan(seed=after + 11)
        plan.inject(
            "storage.vacuum", error=errors.OperatorExecutionError,
            after=after, times=1,
        )
        with plan.armed():
            with pytest.raises(errors.ReproError):
                db.vacuum()
        assert plan.fired["storage.vacuum"] == 1
        crash(db)
        del s, db  # crash: no close, no final checkpoint

        db2 = open_database(d)
        assert table_state(db2) == expected
        assert table_state(db2, "side") == {}
        for index in db2.catalog.tables["t"].indexes:
            index.verify_against_heap()
        # The next vacuum pass finishes the job.
        db2.vacuum()
        assert table_state(db2) == expected
        for index in db2.catalog.tables["t"].indexes:
            index.verify_against_heap()
        db2.close()

    def test_commit_window_crash_discards_stamped_txn(
        self, tmp_path, storage
    ):
        """A crash after commit-stamp allocation but before the WAL
        marker append (the ``mvcc.commit`` window) loses the
        transaction: it was never acknowledged, and recovery must
        replay exactly the prefix *without* it."""
        d = str(tmp_path)
        db = first_open(d, storage)
        s = db.create_session(autocommit=False)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        s.commit()

        s.execute("INSERT INTO t VALUES (2, 20)")
        plan = FaultPlan(seed=5)
        plan.inject(
            "mvcc.commit", error=errors.OperatorExecutionError, times=1
        )
        with plan.armed():
            with pytest.raises(errors.ReproError):
                s.commit()
        crash(db)
        del s, db  # crash

        db2 = open_database(d)
        assert table_state(db2) == {1: 10}
        db2.close()

    def test_torn_write_truncated_and_prefix_preserved(
        self, tmp_path, storage
    ):
        """A corrupted frame at crash time is a torn write: recovery
        truncates it and keeps every earlier committed transaction."""
        d = str(tmp_path)
        db = first_open(d, storage)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")

        plan = FaultPlan(seed=9)
        plan.inject(
            "wal.write",
            corrupt=lambda b: b[: max(1, len(b) // 2)],
            times=1,
        )
        # The torn write is a crash: the same statement must not ack.
        plan.inject(
            "wal.written", error=errors.OperatorExecutionError, times=1
        )
        with plan.armed():
            with pytest.raises(errors.ReproError):
                s.execute("INSERT INTO t VALUES (2, 20)")
        assert plan.fired["wal.write"] == 1
        crash(db)
        del s, db  # crash

        before = _metrics.snapshot()["counters"].get(
            "wal.discarded_txns", 0
        )
        db2 = open_database(d)
        assert table_state(db2) == {1: 10}
        assert _metrics.snapshot()["counters"]["wal.discarded_txns"] \
            >= before
        db2.close()


# ---------------------------------------------------------------------------
# Migration of snapshot-checkpointed directories
# ---------------------------------------------------------------------------
#: Where the migrating open can die: the three flush sites, and after
#: the WAL truncate but before ``snapshot.db`` is unlinked.
MIGRATION_CRASHES = ["lsm.flush", "lsm.manifest", "lsm.flush.install",
                     "unlink"]


class TestMigration:
    @pytest.mark.parametrize("crash_at", MIGRATION_CRASHES)
    @pytest.mark.parametrize("version", [1, 2])
    def test_crash_while_migrating_recovers_the_shadow_rows(
        self, tmp_path, version, crash_at
    ):
        """A directory checkpointed as ``snapshot.db`` after the first
        half of the workload, with the second half committed in its
        WAL, dies at each point of the open that migrates it.  The
        next open must recover the whole workload, exactly once, and
        finish the migration."""
        d = str(tmp_path)
        statements = _workload_statements()
        expected = _shadow_states(statements)[-1]
        head, tail = statements[:6], statements[6:]
        legacy = legacy_database(
            ["CREATE TABLE t (k INT, v INT)", "CREATE INDEX t_k ON t (k)"]
            + head
        )
        image = snapshot_bytes(legacy, last_seq=8, version=version)
        write_file(d, SNAPSHOT_FILENAME, image)
        stamp = legacy.transactions.commit_seq if version == 2 else 0
        write_file(d, WAL_FILENAME,
                   wal_bytes(tail, first_seq=9, first_stamp=stamp + 1))

        if crash_at == "unlink":
            db = open_database(d)
            crash(db)
            del db
            # The state that crash leaves: manifest installed, WAL
            # truncated, the image still there.
            write_file(d, SNAPSHOT_FILENAME, image)
        else:
            plan = FaultPlan(seed=version)
            plan.inject(
                crash_at, error=errors.OperatorExecutionError, times=1
            )
            with plan.armed():
                with pytest.raises(errors.ReproError):
                    open_database(d)
            assert plan.fired[crash_at] == 1

        db2 = open_database(d)
        assert table_state(db2) == expected
        assert table_state(db2, "legacy") == LEGACY_ROWS
        for index in db2.catalog.tables["t"].indexes:
            index.verify_against_heap()
        assert SNAPSHOT_FILENAME not in os.listdir(d)
        assert os.path.getsize(os.path.join(d, WAL_FILENAME)) == 0
        db2.close()
        db3 = open_database(d)  # the runs alone
        assert table_state(db3) == expected
        db3.close()


# ---------------------------------------------------------------------------
# DurabilityManager lifecycle
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_close_checkpoints_and_closes_wal(self, tmp_path):
        d = str(tmp_path)
        db = open_database(d, checkpoint_interval=0)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (1, 10)")
        s.close()
        manager = db.durability
        assert isinstance(manager, DurabilityManager)
        db.close()
        assert manager.closed
        assert os.path.getsize(os.path.join(d, WAL_FILENAME)) == 0

    def test_nondurable_database_unaffected(self):
        from repro import Database

        db = Database(name="plain")
        assert db.durability is None
        assert db.checkpoint() is False
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT)")
        s.execute("INSERT INTO t VALUES (1)")
        assert s.execute("SELECT k FROM t").rows == [[1]]
        s.close()
        db.close()
