"""The index nested-loop join: row-identical to a HashJoin and sqlite3.

Every query runs on two databases loaded alike and ANALYZEd: one holds
indexes on the inner table's join columns, so the planner picks an
IndexNestedLoopJoin, and a twin without them, which answers with a
HashJoin.  The grid covers NULL and duplicate keys, keys of mixed type
families (INTEGER/BIGINT/DECIMAL, CHAR against VARCHAR), the probed
table on either side, extra join conjuncts, residual filters on the
inner table, and a composite index the join does not fully key.  The
visibility cases (deleted and updated inner versions, an older
snapshot, a session's own uncommitted writes, a rolled-back insert, a
frozen outer input) and a join racing a writer that inserts and rolls
back compare the two databases.  A counted guard holds the
analytic_scan join shape to its index probes: rows read, not time.
"""

from __future__ import annotations

import decimal
import sqlite3
import threading

import pytest

from repro import Database, observability
from repro.engine.mvcc import settled_runs

DDL = [
    "create table o (id integer, k integer, kb bigint, kd decimal(10,2), "
    "kc char(6), w integer)",
    "create table i (id integer, k integer, kb bigint, kd decimal(10,2), "
    "kv varchar(8), z integer)",
]
#: Only the index-join database has these.
INDEXES = [
    "create index i_k on i (k)",
    "create index i_kd on i (kd)",
    "create index i_kv on i (kv)",
    "create index i_kbz on i (kb, z)",
]
OUTER_ROWS = 600  # over two frozen 256-row blocks once ANALYZEd
INNER_ROWS = 800


def _outer(n):
    key = None if n % 37 == 0 else n % 120
    return (n, key, key, None if key is None else decimal.Decimal(key),
            f"c{n % 50}", n % 20)


def _inner(n):
    key = None if n % 41 == 0 else n % 200
    return (n, key, n % 150,
            None if key is None else decimal.Decimal(f"{key}.00"),
            f"c{n % 60}", n % 7)


def _load(execute_many):
    execute_many("insert into o values (?, ?, ?, ?, ?, ?)",
                 [_outer(n) for n in range(OUTER_ROWS)])
    execute_many("insert into i values (?, ?, ?, ?, ?, ?)",
                 [_inner(n) for n in range(INNER_ROWS)])


def _database(indexed):
    db = Database(name="inlj" if indexed else "hash")
    session = db.create_session(autocommit=True)
    for statement in DDL + (INDEXES if indexed else []):
        session.execute(statement)
    _load(session.execute_batch)
    session.execute("analyze")
    return db


@pytest.fixture(scope="module")
def engines():
    oracle = sqlite3.connect(":memory:")
    for statement in DDL:
        oracle.execute(statement)
    _load(lambda sql, rows: oracle.executemany(sql, [
        [float(v) if isinstance(v, decimal.Decimal) else v for v in row]
        for row in rows
    ]))
    yield _database(True), _database(False), oracle
    oracle.close()


@pytest.fixture
def pair():
    """A fresh index-join database and its HashJoin twin."""
    return _database(True), _database(False)


def _plan(session, sql):
    return "\n".join(row[0] for row in session.execute("explain " + sql).rows)


def _rows(session, sql):
    return sorted(map(tuple, session.execute(sql).rows),
                  key=lambda row: [(v is None, v) for v in row])


def _same(sessions, sql):
    """The join's rows, the same on the index-join database (which must
    plan an IndexNestedLoopJoin) and on its HashJoin twin."""
    indexed, hashed = sessions
    assert "IndexNestedLoopJoin" in _plan(indexed, sql)
    assert "HashJoin" in _plan(hashed, sql)
    got = _rows(indexed, sql)
    assert got == _rows(hashed, sql)
    return got


GRID = [
    # the probed table on the right, then on the left
    "select o.id, i.id from o join i on o.k = i.k where o.w = 3",
    "select o.id, i.id from i join o on i.k = o.k where o.w = 3",
    # a comma join, the key in WHERE
    "select o.id, i.id from o, i where o.k = i.k and o.w = 3",
    # BIGINT probes INTEGER, DECIMAL probes INTEGER, INTEGER probes
    # DECIMAL
    "select o.id, i.id from o join i on o.kb = i.k where o.w = 5",
    "select o.id, i.id from o join i on o.kd = i.k where o.w = 5",
    "select o.id, i.id from o join i on i.kd = o.k where o.w = 7",
    # CHAR (pad spaces insignificant) probes VARCHAR
    "select o.id, i.id from o join i on o.kc = i.kv where o.w = 2",
    # an extra join conjunct, decided by the full predicate
    "select o.id, i.id from o join i on o.k = i.k and o.id < i.id "
    "where o.w = 3",
    # residual filters on the probed table, in WHERE and in ON
    "select o.id, i.id from o join i on o.k = i.k "
    "where o.w = 3 and i.z > 2",
    "select o.id, i.id, i.z from i join o on o.k = i.k and i.z <> 4 "
    "where o.w = 9",
    # the composite index, keyed in full
    "select o.id, i.id from o join i on o.kb = i.kb and o.w = i.z "
    "where o.w < 2",
    # aggregated over the join
    "select i.z, count(*) from o join i on o.k = i.k where o.w = 4 "
    "group by i.z",
]


class TestGrid:
    @pytest.mark.parametrize("sql", GRID)
    def test_rows_match_hash_join_and_sqlite(self, engines, sql):
        indexed, hashed, oracle = engines
        sessions = [db.create_session(autocommit=True)
                    for db in (indexed, hashed)]
        got = _same(sessions, sql)
        want = sorted(oracle.execute(sql).fetchall(),
                      key=lambda row: [(v is None, v) for v in row])
        assert got == want
        assert got  # no grid row is vacuous

    def test_a_composite_index_not_fully_keyed_is_not_probed(self, engines):
        sql = "select o.id, i.id from o join i on o.kb = i.kb where o.w = 3"
        session = engines[0].create_session(autocommit=True)
        plan = _plan(session, sql)
        assert "IndexNestedLoopJoin" not in plan
        assert "HashJoin" in plan
        assert _rows(session, sql) == sorted(engines[2].execute(sql))

    def test_pad_spaces_on_the_probed_side(self, pair):
        sessions = [db.create_session(autocommit=True) for db in pair]
        for session in sessions:
            session.execute("update i set kv = kv || '  ' where z = 1")
        got = _same(sessions, "select o.id, i.id from o join i "
                              "on o.kc = i.kv where o.w = 2")
        assert got

    def test_tables_never_analyzed_keep_the_hash_join(self):
        db = Database(name="plain")
        session = db.create_session(autocommit=True)
        for statement in DDL + INDEXES:
            session.execute(statement)
        _load(session.execute_batch)
        plan = _plan(session, GRID[0])
        assert "IndexNestedLoopJoin" not in plan
        assert "cost=" not in plan

    def test_explain_names_the_probe_and_the_rejected_hash_join(
            self, engines):
        session = engines[0].create_session(autocommit=True)
        lines = [line.strip() for line in _plan(session, GRID[8]).split("\n")]
        assert lines[1].startswith(
            "IndexNestedLoopJoin (INNER) (o.k = i.k) (cost=")
        assert lines[2].startswith("Rejected: HashJoin (INNER) building on")
        assert "Filter (i.z > 2)" in lines
        assert "IndexScan using i_k on i (o.k = i.k)" in lines

    def test_explain_analyze_runs_the_join_unfused(self, engines):
        indexed, hashed, _ = engines
        sql = GRID[0]
        session = indexed.create_session(autocommit=True)
        lines = [row[0] for row in
                 session.execute("explain analyze " + sql).rows]
        join = next(line for line in lines if "IndexNestedLoopJoin" in line)
        want = len(_rows(hashed.create_session(autocommit=True), sql))
        assert f"actual rows={want} " in join
        # The probed input runs inside the join: no actuals of its own.
        probe = next(line for line in lines if "IndexScan using i_k" in line)
        assert "actual" not in probe


class TestVisibility:
    SQL = "select o.id, i.id, i.z from o join i on o.k = i.k where o.w = 3"

    def test_deleted_and_updated_inner_versions(self, pair):
        sessions = [db.create_session(autocommit=True) for db in pair]
        before = _same(sessions, self.SQL)
        readers = [db.create_session() for db in pair]  # older snapshot
        for reader in readers:
            reader.execute("select count(*) from o")
        for session in sessions:
            session.execute("delete from i where id % 3 = 0")
            session.execute("update i set z = z + 100 where id % 3 = 1")
            session.execute("update i set k = k + 1 where id % 5 = 2")
        after = _same(sessions, self.SQL)
        assert after != before
        assert _same(readers, self.SQL) == before
        for reader in readers:
            reader.execute("rollback")

    def test_own_uncommitted_writes_and_a_rolled_back_insert(self, pair):
        writers = [db.create_session() for db in pair]
        others = [db.create_session(autocommit=True) for db in pair]
        before = _same(others, self.SQL)
        for writer in writers:
            writer.execute("insert into i values (9001, 3, 3, 3, 'c3', 0)")
            writer.execute("delete from i where k = 63")
            writer.execute("update i set z = 50 where k = 43")
        mine = _same(writers, self.SQL)
        assert (3, 9001, 0) in mine and mine != before
        assert _same(others, self.SQL) == before
        for writer in writers:
            writer.execute("rollback")
        assert _same(writers, self.SQL) == before
        assert _same(others, self.SQL) == before

    def test_a_frozen_outer_input(self, pair):
        indexed = pair[0]
        runs = settled_runs(list(indexed.catalog.get_table("o").versions))
        assert any(frozen for _, frozen, _ in runs)
        sessions = [db.create_session(autocommit=True) for db in pair]
        assert _same(sessions, self.SQL)


def test_analytic_join_reads_its_probes_not_the_fact_table():
    """analytic_scan's join over a 10k-row fact and a 1k-row dimension:
    a HashJoin reads all 11,000 rows.  The index join reads the
    dimension's 1,000 rows (59 qualify) and, through fact_d1, at most
    1,000 fact versions."""
    session = Database(name="analytic").create_session(autocommit=True)
    session.execute("create table fact (id integer primary key, "
                    "d1 integer, qty integer)")
    session.execute("create index fact_d1 on fact (d1)")
    session.execute("create table dim1 (d1 integer primary key, "
                    "region varchar(12), weight integer)")
    session.execute_batch("insert into fact values (?, ?, ?)", [
        (n, (n * 7919) % 1_000, (n * 31) % 100) for n in range(10_000)])
    session.execute_batch("insert into dim1 values (?, ?, ?)", [
        (d, f"region{d % 12:02d}", d % 17) for d in range(1_000)])
    session.execute("analyze")
    sql = ("select f.id, d.region from fact f join dim1 d "
           "on f.d1 = d.d1 where d.weight = 3 and f.qty < 50")
    assert "IndexNestedLoopJoin" in _plan(session, sql)

    def scanned():
        return observability.snapshot()["counters"].get("rows.scanned", 0)

    start = scanned()
    rows = session.execute(sql).rows
    read = scanned() - start
    assert len(rows) == sum(1 for n in range(10_000)
                            if (n * 31) % 100 < 50
                            and ((n * 7919) % 1_000) % 17 == 3)
    assert read - 1_000 <= 1_000, read


def test_a_join_racing_inserts_that_roll_back(pair):
    """Another session keeps inserting matching inner rows and rolling
    them back while the join runs: no run sees one, and every run
    returns the rows the HashJoin twin returns."""
    indexed, hashed = pair
    sql = TestVisibility.SQL
    want = _rows(hashed.create_session(autocommit=True), sql)
    stop = threading.Event()
    failures = []

    def churn():
        writer = indexed.create_session()
        try:
            while not stop.is_set():
                writer.execute_batch(
                    "insert into i values (?, ?, ?, ?, ?, ?)",
                    [(10_000 + n, n % 120, 0, None, "c0", 0)
                     for n in range(40)])
                writer.execute("rollback")
        except Exception as exc:  # surfaced by the main thread
            failures.append(exc)

    thread = threading.Thread(target=churn)
    thread.start()
    try:
        reader = indexed.create_session(autocommit=True)
        assert "IndexNestedLoopJoin" in _plan(reader, sql)
        for _ in range(60):
            assert _rows(reader, sql) == want
    finally:
        stop.set()
        thread.join()
    assert not failures
