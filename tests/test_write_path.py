"""The generated write path: sqlite3's answers, and the pinned ones.

Every INSERT, UPDATE and DELETE runs as one generated function
(``DmlPlan.run``): the target probe with the snapshot test inlined, the
claims, each written column's coercion, NOT NULL and the unique check
where a column is written, and the append.  This file pins what it must
do, in process and over ``repro://``:

* a grid of writes over INTEGER, BIGINT, VARCHAR, CHAR, DOUBLE, DECIMAL
  and a UDT column gives sqlite3's update counts and rows (values
  normalised: CHAR pad blanks, DECIMAL to two places, the UDT as its
  attribute) — each step run once per parameter row and as one
  ``executemany`` batch;
* each SQLSTATE the write path raises — 22001, 22003, 22018, 23502,
  23505 and 40001 — is the one pinned here (the interpreted write path
  this one replaced gave the same), and the failing statement leaves
  the table as it was: per row, the rows before the failing one are
  applied; a batch applies none;
* an UPDATE that writes no key column skips the unique check, its
  replacements carrying the claimed versions' keys over: an INSERT of
  that key, concurrent with the UPDATE, waits for it and fails with
  23505, and many of both at once leave one row per key;
* on a durable database an autocommit write reaches the WAL in one
  ``write``: its statement record and commit marker.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading

import pytest

import repro
from repro import errors, registry
from repro.engine.wal import KIND_BATCH, KIND_COMMIT, KIND_STATEMENT, \
    scan_records
from repro.server import ReproServer


class Pt:
    """The UDT column's Part 2 value."""

    def __init__(self, x):
        self.x = x


SETUP = [
    f"create type pt external name '{Pt.__module__}.Pt' language python "
    "(x integer external name x, method pt (x integer) returns pt "
    "external name Pt)",
    "create table w (k integer primary key, b bigint, s varchar(5), "
    "c char(3), d double precision, m decimal(6,2), p pt, "
    "n integer not null default 0)",
    "create index w_k on w (k)",
]
SQLITE_SETUP = (
    "create table w (k integer primary key, b integer, s text, c text, "
    "d real, m real, p integer, n integer not null default 0)"
)
COLUMNS = "k, b, s, c, d, m, p>>x, n"
INSERT = "insert into w values (?, ?, ?, ?, ?, ?, new pt(?), ?)"
INITIAL = [
    [k, k * 1000, f"s{k}", f"c{k}", k / 4, f"{k}.25", k, k]
    for k in range(1, 9)
]

#: name -> (repro SQL, sqlite SQL or None for the same, parameter rows),
#: applied in order.
GRID = {
    "insert": (
        "insert into w (k, b, s, c, d, m, p) "
        "values (?, ?, ?, ?, ?, ?, new pt(?))",
        "insert into w (k, b, s, c, d, m, p) "
        "values (?, ?, ?, ?, ?, ?, ?)",
        [[k, -k, f"i{k}", "ab", k * 1.5, f"{k}.5", -k]
         for k in range(10, 14)],
    ),
    "update_columns": (
        "update w set b = b + ?, s = ?, d = d * 2 where k = ?", None,
        [[1, "u1", 2], [5, "u5", 3], [7, "zz", 99]],
    ),
    "update_char_decimal": (
        "update w set c = ?, m = m + ? where k = ?", None,
        [["x", 1, 4], ["yyy", 2, 10]],
    ),
    "update_key": (
        "update w set k = k + 100 where k = ?", None, [[2], [11]],
    ),
    "update_udt": (
        "update w set p>>x = ? where k = ?",
        "update w set p = ? where k = ?",
        [[70, 3], [71, 12]],
    ),
    "update_range": (
        "update w set n = n + 1 where k >= ? and k < ?", None,
        [[1, 5], [100, 200]],
    ),
    "delete_key": (
        "delete from w where k = ?", None, [[4], [13], [999]],
    ),
    "delete_range": (
        "delete from w where b > ? and n = ?", None, [[5000, 0], [-12, 1]],
    ),
}

_names = itertools.count()


class World:
    """A fresh database with :data:`SETUP` and :data:`INITIAL`, reached
    in process or through a ``repro://`` server."""

    def __init__(self, where):
        self.name = f"write_path_{next(_names)}"
        self.server = None
        if where == "engine":
            self.url = f"pydbc:standard:{self.name}"
        else:
            self.server = ReproServer().start_background()
            self.url = f"repro://127.0.0.1:{self.server.port}/{self.name}"
        self.database = registry.get_or_create(self.name, "standard")
        admin = self.database.create_session(autocommit=True)
        for statement in SETUP:
            admin.execute(statement)
        admin.execute_batch(INSERT, INITIAL)
        self.connections = []

    def open(self, autocommit=True):
        connection = repro.connect(self.url, user="dba")
        connection.set_auto_commit(autocommit)
        self.connections.append(connection)
        return connection.session

    def close(self):
        for connection in self.connections:
            connection.close()
        if self.server is not None:
            self.server.stop_background()


@pytest.fixture(params=["engine", "remote"])
def world(request):
    world = World(request.param)
    yield world
    world.close()


def _normalised(rows):
    return sorted(
        [k, b, s, None if c is None else c.rstrip(" "), d,
         None if m is None else f"{float(m):.2f}", x, n]
        for k, b, s, c, d, m, x, n in rows
    )


def _table(session):
    return _normalised(
        session.execute(f"select {COLUMNS} from w").rows
    )


def _sqlite():
    db = sqlite3.connect(":memory:")
    db.execute(SQLITE_SETUP)
    db.executemany(
        "insert into w values (?, ?, ?, ?, ?, ?, ?, ?)", INITIAL
    )
    return db


def _sqlite_steps():
    """(counts, table) after each GRID step, from sqlite3."""
    db = _sqlite()
    answers = []
    for sql, sqlite_sql, rows in GRID.values():
        counts = [db.execute(sqlite_sql or sql, row).rowcount
                  for row in rows]
        answers.append((counts, _normalised(
            [list(row) for row in db.execute("select * from w")]
        )))
    db.close()
    return answers


@pytest.mark.parametrize("batch", [False, True], ids=["per_row", "batch"])
def test_the_grid_gives_sqlites_answers(world, batch):
    session = world.open()
    assert _table(session) == _normalised(INITIAL)
    for (step, (sql, _lite, rows)), (counts, table) in zip(
        GRID.items(), _sqlite_steps()
    ):
        if batch:
            got = session.execute_batch(sql, rows)
        else:
            got = [session.execute(sql, row).update_count for row in rows]
        assert got == counts, step
        assert _table(session) == table, step


#: name -> (SQL, parameter rows, the SQLSTATE of the failing row, and
#: how many rows come before it)
FAILURES = {
    "varchar_too_long": (
        "insert into w (k, s) values (?, ?)",
        [[20, "ok"], [21, "toolong"]], "22001", 1,
    ),
    "char_too_long": (
        "update w set c = ? where k = ?", [["abcd", 1]], "22001", 0,
    ),
    "integer_out_of_range": (
        "update w set n = ? where k = ?", [[1, 1], [2 ** 31, 2]],
        "22003", 1,
    ),
    "bigint_out_of_range": (
        "insert into w (k, b) values (?, ?)", [[20, 2 ** 63]], "22003", 0,
    ),
    "decimal_out_of_range": (
        "update w set m = ? where k = ?", [["99999.99", 1]], "22003", 0,
    ),
    "not_a_number": (
        "update w set b = ? where k = ?", [[7, 1], ["seven", 2]],
        "22018", 1,
    ),
    "double_from_text": (
        "insert into w (k, d) values (?, ?)", [[20, "x"]], "22018", 0,
    ),
    "null_into_not_null": (
        "update w set n = ? where k = ?", [[None, 3]], "23502", 0,
    ),
    "null_key": (
        "insert into w (k, s) values (?, ?)", [[None, "a"]], "23502", 0,
    ),
    "duplicate_insert": (
        "insert into w (k) values (?)", [[20], [21], [20]], "23505", 2,
    ),
    "duplicate_update": (
        "update w set k = ? where k = ?", [[30, 1], [3, 2]], "23505", 1,
    ),
    "duplicate_within_batch": (
        "insert into w (k) values (?)", [[20], [5]], "23505", 1,
    ),
}


@pytest.mark.parametrize("batch", [False, True], ids=["per_row", "batch"])
@pytest.mark.parametrize("failure", list(FAILURES))
def test_a_failing_write_raises_its_sqlstate(world, failure, batch):
    sql, rows, sqlstate, before = FAILURES[failure]
    session = world.open()
    if batch:
        expected = _table(session)
    else:
        for row in rows[:before]:
            session.execute(sql, row)
        expected = _table(session)
    with pytest.raises(errors.SQLException) as excinfo:
        if batch:
            session.execute_batch(sql, rows)
        else:
            session.execute(sql, rows[before])
    assert excinfo.value.sqlstate == sqlstate
    assert _table(session) == expected


@pytest.mark.parametrize("statement", [
    "update w set b = b + 1 where k = ?",
    "delete from w where k = ?",
])
def test_a_lost_write_race_is_40001(world, statement):
    """First updater wins: a transaction whose pinned snapshot predates
    another's committed write of its target fails with 40001, and
    rolling back lets it retry."""
    loser = world.open(autocommit=False)
    winner = world.open()
    assert loser.execute("select b from w where k = 1").rows == [[1000]]
    winner.execute("update w set b = b + 10 where k = ?", [1])
    with pytest.raises(errors.SQLException) as excinfo:
        loser.execute(statement, [1])
    assert excinfo.value.sqlstate == "40001"
    loser.rollback()
    loser.execute(statement, [1])
    loser.commit()
    assert winner.execute("select count(*) from w where b = 1011").rows \
        in ([[1]], [[0]])


def test_an_insert_of_a_kept_key_waits_for_the_update(world):
    """The UPDATE writes no key column, so it runs no unique check; the
    concurrent INSERT of the key it keeps meets the claimed version and
    the uncommitted replacement, waits for the UPDATE, then fails."""
    updater = world.open(autocommit=False)
    inserter = world.open()
    assert updater.execute(
        "update w set b = b + 1 where k = ?", [5]
    ).update_count == 1
    outcome = []
    thread = threading.Thread(target=lambda: outcome.append(
        _raised(inserter, "insert into w (k, s) values (?, ?)", [5, "dup"])
    ))
    thread.start()
    thread.join(0.3)
    assert thread.is_alive(), "the INSERT did not wait for the UPDATE"
    updater.commit()
    thread.join(10)
    assert not thread.is_alive()
    assert outcome == ["23505"]
    assert inserter.execute("select b, s from w where k = 5").rows == [
        [5001, "s5"]
    ]


def test_concurrent_updates_and_inserts_keep_one_row_per_key(world):
    updates, inserts, keys = 8, 8, [1, 2]
    barrier = threading.Barrier(updates + inserts)
    outcomes = []

    def update(k):
        session = world.open()
        barrier.wait()
        for _ in range(5):
            _retrying(session, "update w set b = b + 1 where k = ?", [k])

    def insert(k):
        session = world.open()
        barrier.wait()
        outcomes.append(
            _raised(session, "insert into w (k) values (?)", [k])
        )

    threads = [
        threading.Thread(target=update, args=(keys[i % 2],))
        for i in range(updates)
    ] + [
        threading.Thread(target=insert, args=(keys[i % 2],))
        for i in range(inserts)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == ["23505"] * inserts
    session = world.open()
    assert session.execute(
        "select k, b from w where k <= 2 order by k"
    ).rows == [[1, 1000 + 20], [2, 2000 + 20]]


class _Writes:
    """A WAL file handle counting the ``write`` calls made on it."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return self.handle.write(data)

    def __getattr__(self, name):
        return getattr(self.handle, name)


def test_an_autocommit_write_reaches_the_wal_in_one_write(tmp_path):
    """The statement record is framed when the statement ends and goes
    out with its commit marker in one ``write``: the same two frames.  A
    statement of an explicit transaction is appended on its own, and a
    parameter that cannot be pickled still fails its statement."""
    database = repro.open_database(str(tmp_path), checkpoint_interval=0)
    try:
        session = database.create_session(autocommit=True)
        session.execute("create table t (k integer primary key, v integer)")
        wal = database.durability.wal
        wal._file = counted = _Writes(wal._file)
        session.execute("insert into t values (?, ?)", [1, 10])
        session.execute("update t set v = v + 1 where k = ?", [1])
        session.execute_batch("insert into t values (?, ?)", [[2, 0], [3, 0]])
        assert counted.writes == 3
        with open(wal.path, "rb") as handle:
            records, _end = scan_records(handle.read())
        assert [record.kind for record in records[-6:]] == [
            KIND_STATEMENT, KIND_COMMIT, KIND_STATEMENT, KIND_COMMIT,
            KIND_BATCH, KIND_COMMIT,
        ]
        explicit = database.create_session(autocommit=False)
        explicit.execute("delete from t where k = ?", [3])
        explicit.commit()
        assert counted.writes == 5

        class Local(int):
            """An integer pickle cannot find by name."""

        with pytest.raises(errors.DataError):
            session.execute("update t set v = ? where k = ?", [Local(5), 1])
        assert counted.writes == 6  # the ABORT marker only
        assert session.execute("select k, v from t order by k").rows == [
            [1, 11], [2, 0]
        ]
    finally:
        database.close()
    reopened = repro.open_database(str(tmp_path))
    try:
        assert reopened.create_session().execute(
            "select k, v from t order by k"
        ).rows == [[1, 11], [2, 0]]
    finally:
        reopened.close()


def _raised(session, sql, params):
    """The SQLSTATE ``sql`` raises, or None."""
    try:
        session.execute(sql, params)
    except errors.SQLException as exc:
        return exc.sqlstate
    return None


def _retrying(session, sql, params):
    """Run ``sql``, retrying a serialization failure."""
    while _raised(session, sql, params) == "40001":
        pass
