"""Bulk-load / batch execution fast path.

One parse, one plan, one WAL record, one round trip per batch:

* engine — ``Session.execute_batch`` runs every parameter row in one
  transaction through the one INSERT body (all row versions under one
  ``mutation_lock`` acquisition, one unique-check pass per column);
* durability — a batch costs exactly one logical WAL record plus the
  commit marker and one fsync barrier, and recovers all-or-nothing;
* dbapi — ``Cursor.executemany`` and the JDBC batch forms
  (``Statement.execute_batch``, ``PreparedStatement.add_batch``) ride
  the same path with atomic partial-failure semantics;
* wire — a remote batch is one ``MSG_EXECUTE_BATCH`` round trip;
* translator — ``#sql`` clauses in pure-bind loops compile to one
  ``sqlj.execute_batch`` call;
* differential — outcomes match ``sqlite3.executemany`` row for row.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import sqlite3
import sys

import pytest

import repro
from repro import ConnectionContext, Database, errors
from repro.engine.durability import WAL_FILENAME, open_database
from repro.engine.wal import KIND_BATCH, scan_records
from repro.dbapi.statement import BatchUpdateError
from repro.observability import metrics as _metrics
from repro.observability import slowlog
from repro.testing.faults import FaultPlan


ROWS = [(n, n * 10) for n in range(1, 101)]


def fresh_session(name):
    return Database(name=name).create_session(autocommit=True)


def counters():
    return _metrics.snapshot()["counters"]


# ---------------------------------------------------------------------------
# engine semantics
# ---------------------------------------------------------------------------
class TestEngineBatch:
    def test_insert_batch_counts_and_state(self):
        s = fresh_session("eb1")
        s.execute("create table t (k int, v int)")
        counts = s.execute_batch(
            "insert into t values (?, ?)", [list(r) for r in ROWS]
        )
        assert counts == [1] * len(ROWS)
        [[n, total]] = s.execute("select count(*), sum(v) from t").rows
        assert (n, total) == (len(ROWS), sum(v for _k, v in ROWS))

    def test_multi_row_values_counts(self):
        s = fresh_session("eb2")
        s.execute("create table t (k int, v int)")
        counts = s.execute_batch(
            "insert into t values (?, ?), (?, ?)",
            [[1, 10, 2, 20], [3, 30, 4, 40]],
        )
        assert counts == [2, 2]
        assert s.execute("select count(*) from t").rows == [[4]]

    def test_update_and_delete_batches(self):
        s = fresh_session("eb3")
        s.execute("create table t (k int, v int)")
        s.execute_batch(
            "insert into t values (?, ?)", [[1, 1], [2, 2], [3, 3]]
        )
        counts = s.execute_batch(
            "update t set v = ? where k = ?", [[10, 1], [20, 2], [99, 7]]
        )
        assert counts == [1, 1, 0]
        counts = s.execute_batch(
            "delete from t where k = ?", [[3], [4]]
        )
        assert counts == [1, 0]
        assert sorted(s.execute("select k, v from t").rows) == [
            [1, 10], [2, 20]
        ]

    def test_unique_violation_rolls_back_whole_batch(self):
        s = fresh_session("eb4")
        s.execute("create table t (k int unique, v int)")
        s.execute("insert into t values (50, 0)")
        with pytest.raises(errors.UniqueViolationError):
            s.execute_batch(
                "insert into t values (?, ?)",
                [[1, 1], [2, 2], [50, 3], [4, 4]],
            )
        assert s.execute("select k, v from t").rows == [[50, 0]]

    def test_intra_batch_duplicate_detected(self):
        s = fresh_session("eb5")
        s.execute("create table t (k int unique)")
        with pytest.raises(errors.UniqueViolationError):
            s.execute_batch(
                "insert into t values (?)", [[1], [2], [1]]
            )
        assert s.execute("select count(*) from t").rows == [[0]]

    def test_unique_allows_multiple_nulls_in_batch(self):
        s = fresh_session("eb6")
        s.execute("create table t (k int unique)")
        counts = s.execute_batch(
            "insert into t values (?)", [[None], [None], [1]]
        )
        assert counts == [1, 1, 1]

    def test_empty_batch(self):
        s = fresh_session("eb7")
        s.execute("create table t (k int)")
        assert s.execute_batch("insert into t values (?)", []) == []

    def test_queries_rejected(self):
        s = fresh_session("eb8")
        s.execute("create table t (k int)")
        with pytest.raises(errors.FeatureNotSupportedError):
            s.execute_batch("select * from t", [[]])

    def test_explicit_transaction_batch_visible_after_commit(self):
        db = Database(name="eb9")
        writer = db.create_session(autocommit=False)
        reader = db.create_session(autocommit=True)
        writer.execute("create table t (k int)")
        writer.commit()
        writer.execute_batch("insert into t values (?)", [[1], [2]])
        assert reader.execute("select count(*) from t").rows == [[0]]
        writer.commit()
        assert reader.execute("select count(*) from t").rows == [[2]]

    def test_explicit_transaction_batch_rolls_back(self):
        db = Database(name="eb10")
        s = db.create_session(autocommit=False)
        s.execute("create table t (k int)")
        s.commit()
        s.execute_batch("insert into t values (?)", [[1], [2]])
        s.rollback()
        assert s.execute("select count(*) from t").rows == [[0]]
        s.rollback()

    def test_secondary_index_consistent_after_batch(self):
        s = fresh_session("eb11")
        s.execute("create table t (k int, v int)")
        s.execute("create index t_k on t (k)")
        s.execute_batch(
            "insert into t values (?, ?)", [[n, n] for n in range(50)]
        )
        assert s.execute(
            "select v from t where k = 37"
        ).rows == [[37]]
        with pytest.raises(errors.ReproError):
            s.execute_batch(
                "insert into t values (?, ?)", [[100, 1], ["boom"], [101]]
            )
        # the failed batch left no index entries behind
        assert s.execute("select v from t where k = 100").rows == []


# ---------------------------------------------------------------------------
# durability: one WAL record, one fsync, all-or-nothing recovery
# ---------------------------------------------------------------------------
class TestBatchDurability:
    def test_one_wal_record_one_fsync_per_batch(self, tmp_path):
        db = open_database(str(tmp_path), checkpoint_interval=0)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        before = counters()
        s.execute_batch(
            "INSERT INTO t VALUES (?, ?)", [[n, n] for n in range(1000)]
        )
        after = counters()
        # one KIND_BATCH record + one commit marker, one fsync barrier
        assert after["wal.records"] - before.get("wal.records", 0) == 2
        assert after["wal.fsyncs"] - before.get("wal.fsyncs", 0) == 1
        # the on-disk log holds exactly one logical record for the batch
        wal_path = os.path.join(str(tmp_path), WAL_FILENAME)
        with open(wal_path, "rb") as handle:
            records, _valid = scan_records(handle.read())
        kinds = [r.kind for r in records]
        assert kinds.count(KIND_BATCH) == 1
        db.close()

    def test_batch_metrics_counters(self):
        s = fresh_session("bm1")
        s.execute("create table t (k int)")
        before = counters()
        s.execute_batch("insert into t values (?)", [[1], [2], [3]])
        after = counters()
        assert after["batch.executed"] - before.get("batch.executed", 0) \
            == 1
        assert after["batch.rows"] - before.get("batch.rows", 0) == 3

    def test_recovery_replays_batch(self, tmp_path):
        d = str(tmp_path)
        db = open_database(d, checkpoint_interval=0)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute_batch(
            "INSERT INTO t VALUES (?, ?)", [[n, n * 2] for n in range(200)]
        )
        del s, db  # crash: no close, no checkpoint

        db2 = open_database(d)
        s2 = db2.create_session(autocommit=True)
        [[n, total]] = s2.execute("SELECT count(*), sum(v) FROM t").rows
        assert (n, total) == (200, sum(n * 2 for n in range(200)))
        db2.close()

    @pytest.mark.parametrize("site", ["wal.append", "wal.write"])
    def test_crash_during_batch_append_is_all_or_nothing(
        self, tmp_path, site
    ):
        """Kill the process mid-batch-WAL-append: recovery must show
        either every row of the batch or none of them — never a prefix."""
        d = str(tmp_path)
        db = open_database(d, checkpoint_interval=0)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT, v INT)")
        s.execute("INSERT INTO t VALUES (0, 0)")  # acked before the fault

        plan = FaultPlan(seed=17)
        plan.inject(site, error=errors.OperatorExecutionError, times=1)
        with plan.armed():
            with pytest.raises(errors.ReproError):
                s.execute_batch(
                    "INSERT INTO t VALUES (?, ?)",
                    [[n, n] for n in range(1, 500)],
                )
        assert plan.fired[site] == 1
        del s, db  # crash

        db2 = open_database(d)
        s2 = db2.create_session(autocommit=True)
        rows = s2.execute("SELECT k FROM t ORDER BY k").rows
        assert rows == [[0]]  # acked prefix only; no partial batch
        db2.close()

    def test_torn_batch_record_recovers_to_nothing(self, tmp_path):
        """Truncate the WAL inside the batch record: the torn tail is
        discarded and no row of the batch survives."""
        d = str(tmp_path)
        db = open_database(d, checkpoint_interval=0)
        s = db.create_session(autocommit=True)
        s.execute("CREATE TABLE t (k INT)")
        wal_path = os.path.join(d, WAL_FILENAME)
        base = os.path.getsize(wal_path)
        s.execute_batch(
            "INSERT INTO t VALUES (?)", [[n] for n in range(300)]
        )
        del s, db  # crash

        # tear the batch record (and everything after it) mid-frame
        with open(wal_path, "r+b") as handle:
            handle.truncate(base + 40)

        db2 = open_database(d)
        s2 = db2.create_session(autocommit=True)
        assert s2.execute("SELECT count(*) FROM t").rows == [[0]]
        db2.close()


# ---------------------------------------------------------------------------
# dbapi: cursor + JDBC batch forms
# ---------------------------------------------------------------------------
class TestDbapiBatch:
    def _connection(self, name):
        return repro.DriverManager.get_connection(f"pydbc:standard:{name}")

    def test_cursor_executemany(self):
        conn = self._connection("db1")
        cur = conn.cursor()
        cur.execute("create table t (k int, v int)")
        cur.executemany(
            "insert into t values (?, ?)", [(n, n) for n in range(25)]
        )
        assert cur.rowcount == 25
        cur.execute("select count(*) from t")
        assert cur.fetchone() == (25,)
        assert cur.fetchone() is None

    def test_cursor_module_attributes(self):
        from repro import dbapi

        assert dbapi.paramstyle == "qmark"
        assert dbapi.apilevel == "2.0"

    def test_prepared_add_batch_execute_batch(self):
        conn = self._connection("db2")
        conn.create_statement().execute_update(
            "create table t (k int, v int)"
        )
        prepared = conn.prepare_statement("insert into t values (?, ?)")
        for n in range(10):
            prepared.set_int(1, n)
            prepared.set_int(2, n * 2)
            prepared.add_batch()
        counts = prepared.execute_batch()
        assert counts == [1] * 10
        assert conn.session.execute("select sum(v) from t").rows == [
            [sum(n * 2 for n in range(10))]
        ]

    def test_prepared_batch_failure_is_atomic_with_empty_counts(self):
        conn = self._connection("db3")
        statement = conn.create_statement()
        statement.execute_update("create table t (k int unique)")
        prepared = conn.prepare_statement("insert into t values (?)")
        for value in (1, 2, 2, 3):
            prepared.set_int(1, value)
            prepared.add_batch()
        with pytest.raises(BatchUpdateError) as excinfo:
            prepared.execute_batch()
        assert excinfo.value.update_counts == []
        assert conn.session.execute("select count(*) from t").rows == [[0]]
        assert conn.autocommit  # restored after the rollback

    def test_statement_batch_rolls_back_whole_batch(self):
        conn = self._connection("db4")
        statement = conn.create_statement()
        statement.execute_update("create table t (k int unique)")
        statement.add_batch("insert into t values (900)")
        statement.add_batch("insert into t values (901)")
        statement.add_batch("insert into t values (900)")  # duplicate
        with pytest.raises(BatchUpdateError) as excinfo:
            statement.execute_batch()
        # counts are informational: two statements succeeded before the
        # failure, but the transaction rolled back as one unit
        assert excinfo.value.update_counts == [1, 1]
        assert conn.session.execute("select count(*) from t").rows == [[0]]
        assert conn.autocommit

    def test_statement_batch_in_explicit_transaction(self):
        conn = self._connection("db5")
        statement = conn.create_statement()
        statement.execute_update("create table t (k int)")
        conn.set_auto_commit(False)
        statement.add_batch("insert into t values (1)")
        statement.add_batch("insert into t values (2)")
        assert statement.execute_batch() == [1, 1]
        conn.rollback()  # caller owns the transaction: batch undone
        assert conn.session.execute("select count(*) from t").rows == [[0]]
        conn.rollback()


# ---------------------------------------------------------------------------
# differential vs sqlite3.executemany
# ---------------------------------------------------------------------------
class TestSqliteDifferential:
    SCHEMA = "CREATE TABLE t (k INT UNIQUE, v INT)"
    INSERT = "INSERT INTO t VALUES (?, ?)"

    def _both(self, name):
        repro_session = fresh_session(name)
        repro_session.execute(self.SCHEMA)
        lite = sqlite3.connect(":memory:")
        lite.execute(self.SCHEMA)
        return repro_session, lite

    def _states(self, repro_session, lite):
        ours = sorted(
            tuple(r)
            for r in repro_session.execute("SELECT k, v FROM t").rows
        )
        theirs = sorted(lite.execute("SELECT k, v FROM t").fetchall())
        return ours, theirs

    def test_same_rows_same_state(self):
        repro_session, lite = self._both("sd1")
        rows = [(n, n * 3) for n in range(40)]
        repro_session.execute_batch(self.INSERT, [list(r) for r in rows])
        with lite:
            lite.executemany(self.INSERT, rows)
        ours, theirs = self._states(repro_session, lite)
        assert ours == theirs

    def test_same_constraint_violation_same_final_state(self):
        repro_session, lite = self._both("sd2")
        rows = [(1, 1), (2, 2), (1, 3), (4, 4)]  # duplicate key 1
        with pytest.raises(errors.UniqueViolationError):
            repro_session.execute_batch(
                self.INSERT, [list(r) for r in rows]
            )
        with pytest.raises(sqlite3.IntegrityError):
            with lite:  # transactional: rolls back on error
                lite.executemany(self.INSERT, rows)
        ours, theirs = self._states(repro_session, lite)
        assert ours == theirs == []

    def test_same_update_effects(self):
        repro_session, lite = self._both("sd3")
        seed = [(n, 0) for n in range(10)]
        repro_session.execute_batch(self.INSERT, [list(r) for r in seed])
        with lite:
            lite.executemany(self.INSERT, seed)
        update = "UPDATE t SET v = ? WHERE k = ?"
        params = [(n * 7, n) for n in range(0, 20, 2)]
        repro_session.execute_batch(update, [list(r) for r in params])
        with lite:
            lite.executemany(update, params)
        ours, theirs = self._states(repro_session, lite)
        assert ours == theirs


# ---------------------------------------------------------------------------
# wire: one MSG_EXECUTE_BATCH round trip
# ---------------------------------------------------------------------------
class TestRemoteBatch:
    def _server(self, **kwargs):
        from repro.server import ReproServer

        return ReproServer(**kwargs).start_background()

    def test_bulk_ingest_is_one_round_trip(self):
        srv = self._server()
        try:
            conn = repro.connect(f"repro://127.0.0.1:{srv.port}/rb1")
            cur = conn.cursor()
            cur.execute("create table t (k int, v int)")
            rows = [(n, n) for n in range(10_000)]
            before = counters().get("remote.executions", 0)
            cur.executemany("insert into t values (?, ?)", rows)
            delta = counters().get("remote.executions", 0) - before
            assert delta == 1  # the whole batch crossed in one frame
            assert cur.rowcount == 10_000
            cur.execute("select count(*) from t")
            assert cur.fetchone() == (10_000,)
            conn.close()
        finally:
            srv.stop_background()
            repro.registry.clear()

    def test_remote_batch_failure_is_atomic(self):
        srv = self._server()
        try:
            conn = repro.connect(f"repro://127.0.0.1:{srv.port}/rb2")
            statement = conn.create_statement()
            statement.execute_update("create table t (k int unique)")
            prepared = conn.prepare_statement("insert into t values (?)")
            for value in (7, 8, 7):
                prepared.set_int(1, value)
                prepared.add_batch()
            with pytest.raises(BatchUpdateError):
                prepared.execute_batch()
            cur = conn.cursor()
            cur.execute("select count(*) from t")
            assert cur.fetchone() == (0,)
            conn.close()
        finally:
            srv.stop_background()
            repro.registry.clear()


# ---------------------------------------------------------------------------
# observability: one statements entry, slow-log batch shape
# ---------------------------------------------------------------------------
class TestBatchObservability:
    def test_statements_view_one_call_with_row_total(self):
        s = fresh_session("ob1")
        s.execute("create table t (k int, v int)")
        s.execute_batch(
            "insert into t values (?, ?)", [[n, n] for n in range(32)]
        )
        result = s.execute(
            "select calls, rows_returned from repro_stats.statements "
            "where statement = 'INSERT INTO t VALUES ( ? , ? )'"
        )
        [[calls, rows]] = result.rows
        assert calls == 1  # one batch, one statistics entry
        assert rows == 32  # ...carrying the whole batch's row count

    def test_slowlog_records_batch_size_and_per_row_mean(self):
        out = io.StringIO()
        slowlog.configure(0.0, stream=out)
        try:
            s = fresh_session("ob2")
            s.execute("create table t (k int)")
            s.execute_batch(
                "insert into t values (?)", [[n] for n in range(8)]
            )
        finally:
            slowlog.configure(None)
        records = [
            json.loads(line) for line in out.getvalue().splitlines()
        ]
        batch_records = [r for r in records if r.get("batch_rows")]
        assert batch_records, records
        record = batch_records[-1]
        assert record["batch_rows"] == 8
        assert record["per_row_ms"] == pytest.approx(
            record["duration_ms"] / 8
        )


# ---------------------------------------------------------------------------
# translator: pure-bind loops become one execute_batch call
# ---------------------------------------------------------------------------
BATCH_SOURCE = '''
def load(rows):
    for row in rows:
        name, year = row
        #sql { INSERT INTO people VALUES (:name, :year) };
    return True

def load_guarded(rows):
    for row in rows:
        name, year = row
        if year > 0:
            #sql { INSERT INTO people VALUES (:name, :year) };
    return True

def load_with_else(rows):
    for name, year in rows:
        #sql { INSERT INTO people VALUES (:name, :year) };
    else:
        pass
    return True
'''


class TestTranslatorBatching:
    def _exemplar(self):
        database = Database(name="trb")
        session = database.create_session(autocommit=True)
        session.execute(
            "create table people (name varchar(50), year int)"
        )
        return database, session

    def _translate(self, tmp_path, database, source, module_name):
        from repro.profiles.serialization import save_profile
        from repro.translator import TranslationOptions, Translator

        options = TranslationOptions(exemplar=database)
        result = Translator(options).translate_source(source, module_name)
        module_path = os.path.join(str(tmp_path), module_name + ".py")
        with open(module_path, "w") as handle:
            handle.write(result.python_source)
        for profile in result.profiles:
            save_profile(profile, str(tmp_path))
        return result

    def test_pure_bind_loop_compiles_to_execute_batch(self, tmp_path):
        database, _session = self._exemplar()
        result = self._translate(
            tmp_path, database, BATCH_SOURCE, "trb_gen"
        )
        source = result.python_source
        assert source.count("execute_batch") == 1
        # the guarded loop and the for/else loop keep per-row execution
        assert source.count("_sqlj_rt.execute(") == 2

    def test_batched_loop_runs_and_loads(self, tmp_path):
        database, session = self._exemplar()
        self._translate(tmp_path, database, BATCH_SOURCE, "trb_mod")
        context = ConnectionContext(database)
        ConnectionContext.set_default_context(context)
        sys.path.insert(0, str(tmp_path))
        try:
            module = importlib.import_module("trb_mod")
            module = importlib.reload(module)
            module.load([("A", 1), ("B", 2), ("C", 3)])
            module.load_guarded([("D", 4), ("E", -1)])
            module.load_with_else([("F", 6)])
        finally:
            sys.path.remove(str(tmp_path))
            ConnectionContext.set_default_context(None)
        rows = session.execute(
            "select name, year from people order by year"
        ).rows
        assert rows == [
            ["A", 1], ["B", 2], ["C", 3], ["D", 4], ["F", 6]
        ]

    def test_batched_loop_failure_is_atomic(self, tmp_path):
        database = Database(name="trb2")
        session = database.create_session(autocommit=True)
        session.execute("create table people (name varchar(50) unique)")
        source = (
            "def load(rows):\n"
            "    for name in rows:\n"
            "        #sql { INSERT INTO people VALUES (:name) };\n"
            "    return True\n"
        )
        self._translate(tmp_path, database, source, "trb_atomic")
        context = ConnectionContext(database)
        ConnectionContext.set_default_context(context)
        sys.path.insert(0, str(tmp_path))
        try:
            module = importlib.import_module("trb_atomic")
            module = importlib.reload(module)
            with pytest.raises(errors.UniqueViolationError):
                module.load(["x", "y", "x"])
        finally:
            sys.path.remove(str(tmp_path))
            ConnectionContext.set_default_context(None)
        assert session.execute(
            "select count(*) from people"
        ).rows == [[0]]
