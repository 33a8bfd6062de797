"""SQL-queryable live statistics: the ``repro_stats`` system views.

The observability tentpole: per-statement statistics keyed by
normalized text, wait-event attribution (reader-writer lock, WAL
fsync), virtual read-only tables served by the ``VirtualScan``
operator, and the structured slow-query log — all reachable through
plain ``SELECT`` both in-process and over the ``repro://`` wire.
"""

import json
import io
import threading
import time

import pytest

import repro
from repro import Database, errors, registry
from repro.engine.virtual import STATS_VIEW_NAMES, VirtualTable
from repro.observability import slowlog, stats
from repro.server import ReproServer


def shape_of(rs):
    md = rs.get_meta_data()
    return [
        (md.get_column_name(i), md.get_column_type_name(i))
        for i in range(1, md.get_column_count() + 1)
    ]


@pytest.fixture
def server():
    srv = ReproServer(page_size=16).start_background()
    yield srv
    srv.stop_background()


def url_of(srv, name):
    return f"repro://127.0.0.1:{srv.port}/{name}"


# ---------------------------------------------------------------------------
# the statements view
# ---------------------------------------------------------------------------


class TestStatementsView:
    def test_registered_in_catalog(self, db):
        for name in STATS_VIEW_NAMES:
            assert isinstance(db.catalog.get_table(name), VirtualTable)

    def test_normalization_collapses_literals(self, session):
        session.execute("create table t (n int, s varchar(20))")
        session.execute("insert into t values (1, 'one')")
        session.execute("insert into t values (2, 'two')")
        session.execute("insert into t values (3, 'three')")
        result = session.execute(
            "select statement, calls from repro_stats.statements "
            "where calls >= 3"
        )
        keys = {row[0]: row[1] for row in result.rows}
        assert "INSERT INTO t VALUES ( ? , ? )" in keys
        assert keys["INSERT INTO t VALUES ( ? , ? )"] == 3

    def test_parser_tokens_give_the_lexed_key(self):
        """Over every SQL text in the tier-1 tests that parses, the key
        derived from the parser's tokens is the key a fresh lex gives."""
        import ast as pyast
        import pathlib
        import re

        from repro.engine.parser import Parser

        sql = re.compile(r"\s*(select|insert|update|delete|create|drop|"
                         r"alter|call|values|grant|revoke)\b", re.I)
        corpus = {
            node.value
            for path in pathlib.Path(__file__).parent.glob("test_*.py")
            for node in pyast.walk(pyast.parse(path.read_text()))
            if isinstance(node, pyast.Constant)
            and isinstance(node.value, str) and sql.match(node.value)
        }
        checked = 0
        for text in sorted(corpus):
            try:
                parser = Parser(text)
                parser.parse_statement()
            except errors.ReproError:
                continue
            stats._NORMALIZE_CACHE.pop(text, None)
            assert stats.normalize_tokens(parser.tokens) == \
                stats.normalize_statement(text), text
            checked += 1
        assert checked > 1000

    def test_a_new_text_is_lexed_once(self, session, monkeypatch):
        from repro.engine import lexer

        session.execute("create table t (n int, s varchar(20))")
        lexed = []
        tokens = lexer.Lexer.tokens
        monkeypatch.setattr(lexer.Lexer, "tokens",
                            lambda self: lexed.append(1) or tokens(self))
        sql = "select n from t where s = 'never seen' and n > 41"
        session.execute(sql)
        assert lexed == [1]
        result = session.execute(
            "select calls from repro_stats.statements where statement = "
            "'SELECT n FROM t WHERE s = ? AND n > ?'")
        assert result.rows == [[1]]

    def test_rows_scanned_and_returned(self, emps):
        emps.execute("select * from emps")
        result = emps.execute(
            "select rows_returned, rows_scanned "
            "from repro_stats.statements "
            "where statement = 'SELECT * FROM emps'"
        )
        [[returned, scanned]] = result.rows
        assert returned >= 1
        assert scanned >= returned

    def test_keyed_dml_scans_through_the_index(self, session):
        """A keyed UPDATE/DELETE reads its target through an index
        probe: one row scanned of 10k, not the heap."""
        session.execute("create table big (k int primary key, v int)")
        session.execute("create index big_k on big (k)")
        session.execute_batch(
            "insert into big values (?, 0)", [[k] for k in range(10_000)]
        )
        session.execute("update big set v = v + 1 where k = ?", [4321])
        session.execute("delete from big where k = ?", [1234])
        result = session.execute(
            "select statement, calls, rows_scanned "
            "from repro_stats.statements "
            "where statement like 'UPDATE big%' "
            "or statement like 'DELETE FROM big%' order by statement"
        )
        assert [row[1:] for row in result.rows] == [[1, 1], [1, 1]]

    def test_timings_accumulate(self, emps):
        for _ in range(5):
            emps.execute("select state from emps where sales > 100")
        result = emps.execute(
            "select calls, total_ms, mean_ms, p99_ms "
            "from repro_stats.statements "
            "where statement like 'SELECT state FROM emps%'"
        )
        [[calls, total_ms, mean_ms, p99_ms]] = result.rows
        assert calls == 5
        assert total_ms > 0
        assert abs(mean_ms - total_ms / calls) < 1e-6
        assert p99_ms > 0

    def test_plan_cache_hits_counted(self, emps):
        for _ in range(4):
            emps.execute("select id from emps")
        result = emps.execute(
            "select calls, plan_cache_hits from repro_stats.statements "
            "where statement = 'SELECT id FROM emps'"
        )
        [[calls, hits]] = result.rows
        assert calls == 4
        assert hits >= 2  # first call plans; later calls hit the cache

    def test_dml_plan_cache_hits_counted(self, session):
        session.execute("create table t (k int primary key, v int)")
        session.execute_batch(
            "insert into t values (?, 0)", [[k] for k in range(10)]
        )
        for k in range(6):
            session.execute("update t set v = v + 1 where k = ?", [k])
        plan = session.prepare("delete from t where k = ?")
        for k in range(3):
            plan.execute([k])
        result = session.execute(
            "select statement, calls, plan_cache_hits "
            "from repro_stats.statements "
            "where statement like 'UPDATE t%' "
            "or statement like 'DELETE FROM t%' order by statement"
        )
        # execute: the first call compiles; prepared: every call reuses
        assert [row[1:] for row in result.rows] == [[3, 3], [6, 5]]

    def test_errors_by_sqlstate(self, session):
        for _ in range(2):
            with pytest.raises(errors.SQLException) as info:
                session.execute("select * from no_such_table")
        sqlstate = info.value.sqlstate
        result = session.execute(
            "select calls, errors, error_sqlstates "
            "from repro_stats.statements "
            "where statement = 'SELECT * FROM no_such_table'"
        )
        [[calls, error_count, states]] = result.rows
        assert calls == 2 and error_count == 2
        assert states == f"{sqlstate}:2"

    def test_prepared_statements_recorded(self, emps):
        plan = emps.prepare("select state from emps where id = ?")
        for ident in ("E0001", "E0002"):
            plan.execute((ident,))
        result = emps.execute(
            "select calls, plan_cache_hits from repro_stats.statements "
            "where statement = 'SELECT state FROM emps WHERE id = ?'"
        )
        [[calls, hits]] = result.rows
        assert calls == 2 and hits == 2

    def test_disabled_switch(self, session):
        session.execute("create table t (n int)")
        stats.set_enabled(False)
        session.execute("insert into t values (42)")
        result = session.execute(
            "select statement from repro_stats.statements "
            "where statement like 'INSERT%'"
        )
        assert result.rows == []

    def test_stats_view_scan_does_not_perturb_scan_counts(self, emps):
        emps.execute("select * from repro_stats.statements")
        result = emps.execute(
            "select rows_scanned from repro_stats.statements "
            "where statement = 'SELECT * FROM repro_stats.statements'"
        )
        [[scanned]] = result.rows
        assert scanned == 0  # VirtualScan reads stats, not the heap

    def test_explain_shows_virtualscan(self, session):
        result = session.execute(
            "explain select * from repro_stats.statements"
        )
        lines = [row[0] for row in result.rows]
        assert any("VirtualScan on repro_stats.statements" in l
                   for l in lines)

    def test_explain_method_is_recorded(self, emps):
        """``Session.explain`` is one EXPLAIN statement of the envelope,
        counted and recorded as the same text through ``execute`` is."""
        def explains():
            counters = repro.observability.snapshot()["counters"]
            return counters.get("statements.explain", 0)

        query = "select id from emps where sales > 100"
        before = explains()
        emps.explain(query, analyze=True)
        emps.execute("explain analyze " + query)
        assert explains() == before + 2
        result = emps.execute(
            "select statement, calls, rows_scanned "
            "from repro_stats.statements "
            "where statement like '%id FROM emps WHERE sales%' "
            "order by statement"
        )
        scanned = len(emps.execute("select * from emps").rows)
        assert result.rows == [
            ["EXPLAIN analyze SELECT id FROM emps WHERE sales > ?", 1,
             scanned],
            ["SELECT id FROM emps WHERE sales > ?", 1, scanned],
        ]

    def test_fresh_rows_on_cached_plan(self, session):
        session.execute("create table t (n int)")
        first = session.execute(
            "select calls from repro_stats.statements "
            "where statement = 'INSERT INTO t VALUES ( ? )'"
        )
        assert first.rows == []
        session.execute("insert into t values (1)")
        second = session.execute(
            "select calls from repro_stats.statements "
            "where statement = 'INSERT INTO t VALUES ( ? )'"
        )
        assert second.rows == [[1]]  # same cached plan, fresh rows


# ---------------------------------------------------------------------------
# read-only enforcement
# ---------------------------------------------------------------------------


class TestReadOnly:
    @pytest.mark.parametrize("sql", [
        "insert into repro_stats.statements (statement) values ('x')",
        "update repro_stats.statements set calls = 0",
        "delete from repro_stats.statements",
        "drop table repro_stats.statements",
        "alter table repro_stats.statements add column hacked int",
        "create index ix_stats on repro_stats.statements (calls)",
    ])
    def test_mutation_rejected(self, session, sql):
        with pytest.raises(errors.FeatureNotSupportedError):
            session.execute(sql)

    def test_not_persisted(self, tmp_path):
        url = "pydbc:standard:statsdur"
        with repro.connect(url, data_dir=str(tmp_path)) as conn:
            stmt = conn.create_statement()
            stmt.execute_update("create table t (n int)")
            stmt.execute_update("insert into t values (7)")
        registry.clear()  # drop the cached instance; force a reopen
        with repro.connect(url, data_dir=str(tmp_path)) as conn:
            stmt = conn.create_statement()
            rs = stmt.execute_query("select n from t")
            assert rs.next() and rs.get_int(1) == 7
            # Bootstrap re-registered the views; restore did not collide.
            rs = stmt.execute_query(
                "select statement from repro_stats.statements"
            )
            assert rs is not None


# ---------------------------------------------------------------------------
# wait profiling
# ---------------------------------------------------------------------------


class TestWaitProfiling:
    def test_exclusive_waits_attributed_to_ddl(self, db):
        """16-thread mixed workload: DDL statements that block on the
        database lock show up with nonzero exclusive wait time in
        ``repro_stats.locks``.  (DML runs under the shared lock since
        MVCC, so only catalog changes contend for exclusive access.)"""
        setup = db.create_session(autocommit=True)
        setup.execute("create table t (n int)")

        started = threading.Barrier(17)
        failures = []

        def ddl_writer(n):
            session = db.create_session(autocommit=True)
            started.wait()
            try:
                for i in range(3):
                    session.execute(f"create table w{n}_{i} (x int)")
                    session.execute(f"drop table w{n}_{i}")
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        def reader():
            session = db.create_session(autocommit=True)
            started.wait()
            try:
                for _ in range(5):
                    session.execute("select n from t")
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [
            threading.Thread(target=ddl_writer, args=(n,))
            for n in range(8)
        ] + [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Belt and suspenders: hold the shared lock while the 16 threads
        # fire their first statements, guaranteeing every DDL writer
        # blocks at least once (readers pass, writers queue).
        with db.lock.read():
            started.wait()
            time.sleep(0.05)
        for thread in threads:
            thread.join()
        assert not failures

        result = setup.execute(
            "select statement, exclusive_waits, exclusive_wait_ms "
            "from repro_stats.locks"
        )
        by_statement = {row[0]: (row[1], row[2]) for row in result.rows}
        # The global lock row counts every blocked acquisition.
        waits, wait_ms = by_statement["(database)"]
        assert waits > 0 and wait_ms > 0
        # And the DDL statements are charged their own share.
        ddl_waits = sum(
            row_waits
            for statement, (row_waits, _ms) in by_statement.items()
            if statement.startswith(("CREATE TABLE", "DROP TABLE"))
        )
        assert ddl_waits > 0
        # The same attribution is visible on the statements view.
        result = setup.execute(
            "select statement, exclusive_wait_ms "
            "from repro_stats.statements"
        )
        assert any(
            statement.startswith(("CREATE TABLE", "DROP TABLE"))
            and exclusive_ms > 0
            for statement, exclusive_ms in result.rows
        )

    def test_wal_wait_attributed(self, tmp_path):
        with repro.connect(
            "pydbc:standard:walstats", data_dir=str(tmp_path)
        ) as conn:
            stmt = conn.create_statement()
            stmt.execute_update("create table t (n int)")
            stmt.execute_update("insert into t values (1)")
            rs = stmt.execute_query(
                "select wal_wait_ms from repro_stats.statements "
                "where statement = 'INSERT INTO t VALUES ( ? )'"
            )
            assert rs.next()
            assert rs.get_float(1) > 0  # the commit fsync was charged

    def test_uncontended_lock_counts_nothing(self, session):
        session.execute("create table t (n int)")
        session.execute("insert into t values (1)")
        lock = session.database.lock
        assert lock.exclusive_wait_count == 0
        assert lock.exclusive_wait_seconds == 0.0


# ---------------------------------------------------------------------------
# the other views
# ---------------------------------------------------------------------------


class TestOtherViews:
    def test_sessions_view(self, db):
        first = db.create_session(autocommit=True)
        second = db.create_session(user="alice")
        result = first.execute(
            "select user_name, autocommit, in_txn, statements "
            "from repro_stats.sessions"
        )
        users = {row[0] for row in result.rows}
        assert {"dba", "alice"} <= users
        del second

    def test_sessions_view_shows_a_read_only_transaction(self, db):
        """A manual-commit session that only read holds a snapshot: it
        is in a transaction, with the MVCC id and snapshot to show."""
        admin = db.create_session(autocommit=True)
        admin.execute("create table t (k int)")
        admin.execute("grant select on t to alice")
        reader = db.create_session(user="alice")
        reader.execute("select count(*) from t")
        view = (
            "select in_txn, txn_id, snapshot_seq "
            "from repro_stats.sessions where user_name = 'alice'"
        )
        txn = reader.transaction
        assert admin.execute(view).rows == [
            [True, txn.id, txn.snapshot_seq]
        ]
        reader.commit()
        assert admin.execute(view).rows == [[False, None, None]]

    def test_metrics_view(self, emps):
        emps.execute("select * from emps")
        result = emps.execute(
            "select metric, value from repro_stats.metrics "
            "where kind = 'counter' and metric = 'rows.scanned'"
        )
        [[name, value]] = result.rows
        assert value > 0
        result = emps.execute(
            "select observations, total from repro_stats.metrics "
            "where kind = 'histogram' and metric = 'waits.lock.shared'"
        )
        assert len(result.rows) == 1  # histogram registered, maybe empty

    def test_pool_view(self):
        with repro.connect("pydbc:standard:pooldb", pooled=True) as conn:
            stmt = conn.create_statement()
            rs = stmt.execute_query(
                "select pool_name, size, in_use from repro_stats.pool"
            )
            rows = []
            while rs.next():
                rows.append((rs.get_string(1), rs.get_int(2),
                             rs.get_int(3)))
            assert any(size >= 1 and used >= 1 for _n, size, used in rows)

    def test_server_view_over_the_wire(self, server):
        with repro.connect(url_of(server, "srvstats")) as conn:
            stmt = conn.create_statement()
            stmt.execute_query("select 1")
            rs = stmt.execute_query(
                "select metric, value from repro_stats.server "
                "where metric = 'server.requests'"
            )
            assert rs.next()
            assert rs.get_float(2) >= 1
            rs = stmt.execute_query(
                "select observations from repro_stats.server "
                "where metric = 'server.request.seconds'"
            )
            assert rs.next() and rs.get_int(1) >= 1


# ---------------------------------------------------------------------------
# identical shape locally and over the wire (acceptance)
# ---------------------------------------------------------------------------


class TestLocationTransparency:
    STATEMENT = (
        "select * from repro_stats.statements order by total_ms desc"
    )

    def test_statements_view_same_shape_local_and_remote(self, server):
        with repro.connect("pydbc:standard:shape_local") as local, \
                repro.connect(url_of(server, "shape_remote")) as remote:
            for conn in (local, remote):
                stmt = conn.create_statement()
                stmt.execute_update("create table t (n int)")
                stmt.execute_update("insert into t values (1)")
            local_rs = local.create_statement().execute_query(
                self.STATEMENT
            )
            remote_rs = remote.create_statement().execute_query(
                self.STATEMENT
            )
            assert shape_of(local_rs) == shape_of(remote_rs)
            assert len(shape_of(local_rs)) == 13

            def keyed(rs):
                rows = {}
                while rs.next():
                    rows[rs.get_string(1)] = rs.get_int(2)
                return rows

            local_rows, remote_rows = keyed(local_rs), keyed(remote_rs)
            key = "INSERT INTO t VALUES ( ? )"
            assert local_rows[key] == 1
            assert remote_rows[key] == 1

    def test_all_views_queryable_remotely(self, server):
        with repro.connect(url_of(server, "allviews")) as conn:
            stmt = conn.create_statement()
            for name in STATS_VIEW_NAMES:
                stmt.execute_query(f"select * from {name}")


# ---------------------------------------------------------------------------
# slow-query log
# ---------------------------------------------------------------------------


class TestSlowQueryLog:
    def test_engine_records_with_wait_breakdown(self, emps):
        out = io.StringIO()
        slowlog.configure(0.0, stream=out)
        emps.execute("select state from emps where sales > 50")
        records = [json.loads(line) for line in
                   out.getvalue().splitlines()]
        [record] = [r for r in records
                    if r["statement"].startswith("select state")]
        assert record["source"] == "engine"
        assert record["db"] == "testdb"
        assert record["key"] == "SELECT state FROM emps WHERE sales > ?"
        assert record["duration_ms"] >= 0
        assert set(record["waits"]) == {
            "lock_shared_ms", "lock_exclusive_ms", "wal_sync_ms",
        }
        assert record["rows_scanned"] >= record["rows"] >= 1

    def test_threshold_filters(self, session):
        out = io.StringIO()
        slowlog.configure(60_000.0, stream=out)  # a minute: nothing logs
        session.execute("select 1")
        assert out.getvalue() == ""

    def test_per_session_override_wins(self, tmp_path):
        out = io.StringIO()
        slowlog.configure(None, stream=out)  # globally off
        with repro.connect(
            "pydbc:standard:slowsess", slow_query_ms=0
        ) as conn:
            conn.create_statement().execute_query("select 1")
        assert any(
            json.loads(line)["statement"] == "select 1"
            for line in out.getvalue().splitlines()
        )

    def test_error_statements_logged_with_sqlstate(self, session):
        out = io.StringIO()
        slowlog.configure(0.0, stream=out)
        with pytest.raises(errors.SQLException):
            session.execute("select * from missing_table")
        records = [json.loads(line) for line in
                   out.getvalue().splitlines()]
        [record] = [r for r in records if "missing_table" in r["statement"]]
        assert record["sqlstate"] == "42P01"

    def test_client_side_record_over_the_wire(self, server):
        out = io.StringIO()
        slowlog.configure(None, stream=out)
        with repro.connect(
            url_of(server, "slowremote"), slow_query_ms=0
        ) as conn:
            conn.create_statement().execute_query("select 1")
        records = [json.loads(line) for line in
                   out.getvalue().splitlines()]
        client = [r for r in records if r["source"] == "client"]
        assert client and client[0]["db"] == "slowremote"
        assert "waits" not in client[0]  # no engine context client-side

    def test_server_threshold_applies_to_remote_sessions(self):
        out = io.StringIO()
        slowlog.configure(None, stream=out)
        srv = ReproServer(slow_query_ms=0).start_background()
        try:
            with repro.connect(
                f"repro://127.0.0.1:{srv.port}/srvslow"
            ) as conn:
                conn.create_statement().execute_query("select 1")
        finally:
            srv.stop_background()
        records = [json.loads(line) for line in
                   out.getvalue().splitlines()]
        engine = [r for r in records if r["source"] == "engine"]
        assert any(r["statement"] == "select 1" for r in engine)

    def test_slow_query_counter_bumps(self, session):
        out = io.StringIO()
        slowlog.configure(0.0, stream=out)
        before = repro.observability.snapshot()["counters"].get(
            "slow_query.count", 0
        )
        session.execute("select 1")
        after = repro.observability.snapshot()["counters"][
            "slow_query.count"
        ]
        assert after > before
