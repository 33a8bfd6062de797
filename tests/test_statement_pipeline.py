"""One statement pipeline: every entry point means the same thing.

``Session.execute``, ``Session.prepare().execute``, a statement parsed
ahead of time (with its own text, or with a rendering of it as its
text), ``Session.execute_batch`` and a customized profile entry all run
their statement through one envelope (``Session._run_statement``),
traced or not: tracing adds spans around its stages, never a path.
The table below runs each statement through every entry point that
accepts it and compares everything an observer could tell them apart
by — result, ``statements.*`` / ``rows.returned`` / ``errors.*``
counter deltas, the number of ``repro_stats.statements`` calls, the WAL
record sequence and the session's transaction state — against the same
statement run through ``execute`` on an identically prepared database;
tracing off and on, in memory and durable, autocommit and inside a
transaction.

The three regression tests at the bottom pin the bugs the shared
envelope fixed: a prepared query on a closed session, a customized
profile entry that ran outside the lock / statistics / transaction
machinery, and a prepared query whose failure left partial work in the
undo log.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from decimal import Decimal

import pytest

import repro
from repro import ConnectionContext, Database, errors, open_database
from repro.engine.database import PreparedStatementPlan
from repro.engine.dialects import STANDARD
from repro.engine.durability import WAL_FILENAME
from repro.engine.indexes import Index
from repro.engine.parser import parse_statement
from repro.engine.render import render_statement
from repro.engine.wal import KIND_BATCH, KIND_STATEMENT, scan_records
from repro.observability import slowlog, snapshot, tracing
from repro.procedures import build_par
from repro.profiles.customization import (
    ConnectedProfile,
    DialectCustomization,
)
from repro.profiles.customizer import customize_profile
from repro.profiles.model import EntryInfo, Profile
from repro.profiles.serialization import save_profile
from repro.server import ReproServer
from repro.translator import TranslationOptions, Translator

ROUTINES = '''
from repro import DriverManager


def bump(k, delta):
    conn = DriverManager.get_connection("DBAPI:DEFAULT:CONNECTION")
    stmt = conn.prepare_statement("UPDATE t SET v = v + ? WHERE k = ?")
    stmt.set_int(1, delta)
    stmt.set_int(2, k)
    stmt.execute_update()


def log_it(k):
    conn = DriverManager.get_connection("DBAPI:DEFAULT:CONNECTION")
    stmt = conn.prepare_statement("INSERT INTO audit VALUES (?)")
    stmt.set_int(1, k)
    stmt.execute_update()
    return 0
'''

SETUP = [
    "create table t (k int unique, v int)",
    "create table audit (k int)",
    "insert into t values (1, 10), (2, 20), (3, 30)",
    "create procedure bump(k integer, delta integer) modifies sql data "
    "external name 'p:pipeline_routines.bump' "
    "language python parameter style python",
    "create function log_it(k integer) returns integer modifies sql data "
    "external name 'p:pipeline_routines.log_it' "
    "language python parameter style python",
]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _via_profile(session, sql, params):
    profile = Profile(name="pipeline_profile", context_type="Default")
    profile.data.add(EntryInfo(index=0, sql=sql, role="STATEMENT"))
    customize_profile(profile, session.dialect.name)
    connected = ConnectedProfile(profile, session)
    assert isinstance(connected.customization(), DialectCustomization)
    return connected.execute(0, params)


def _via_statement(session, sql, params, render=False):
    """A statement parsed ahead of time, the way a customization ships
    it: with the text it was parsed from, or with a rendering of it."""
    statement = parse_statement(sql)
    if render:
        sql = render_statement(statement, STANDARD)
    return PreparedStatementPlan(session, sql, statement).execute(params)


ENTRY_POINTS = {
    "execute": lambda s, sql, p: s.execute(sql, p),
    "prepare": lambda s, sql, p: s.prepare(sql).execute(p),
    "statement+sql": _via_statement,
    "statement": lambda s, sql, p: _via_statement(s, sql, p, render=True),
    "batch": lambda s, sql, p: s.execute_batch(sql, [p]),
    "profile": _via_profile,
}

#: name, sql, params, accepted by execute_batch
CASES = [
    ("select_miss", "select v from t where k = ?", [1], False),
    ("select_hit", "select v from t where k = ?", [1], False),
    ("insert", "insert into t values (?, ?)", [4, 40], True),
    ("update", "update t set v = v + ? where k = ?", [5, 1], True),
    ("delete", "delete from t where k = ?", [2], True),
    ("ddl", "create table u (a int)", [], False),
    ("call", "call bump(?, ?)", [1, 7], False),
    ("explain", "explain select v from t where k = ?", [1], False),
    ("analyze", "analyze t", [], False),
    ("fail_insert", "insert into t values (?, ?)", [1, 99], True),
    ("fail_select", "select 1 / (v - v) from t where k = ?", [1], False),
    ("fail_function", "select 1 / log_it(k) from t where k = ?", [1], False),
]

COMBINATIONS = [
    pytest.param(case, entry, id=f"{case[0]}-{entry}")
    for case in CASES
    for entry in ENTRY_POINTS
    if entry != "execute"
    and (case[3] or entry != "batch")
]


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


@pytest.fixture(params=["untraced", "traced"])
def traced(request):
    if request.param == "traced":
        tracing.enable_tracing("json", io.StringIO())
    yield request.param == "traced"
    tracing.disable_tracing()


@pytest.fixture(params=["memory", "durable"])
def make_database(request, tmp_path):
    """Factory of identically prepared databases (one per label)."""
    par = build_par(
        os.path.join(str(tmp_path), "p.par"),
        {"pipeline_routines": ROUTINES},
    )
    opened = []

    def make(label):
        if request.param == "durable":
            directory = os.path.join(str(tmp_path), label)
            database = open_database(directory, checkpoint_interval=0)
            database.wal_path = os.path.join(directory, WAL_FILENAME)
        else:
            database = Database(name=label)
            database.wal_path = None
        admin = database.create_session(autocommit=True)
        admin.execute(f"call sqlj.install_par('{par}', 'p')")
        for statement in SETUP:
            admin.execute(statement)
        admin.close()
        opened.append(database)
        return database

    yield make
    for database in opened:
        database.close()


def _canonical(sql):
    return render_statement(parse_statement(sql), STANDARD)


def _wal(database, start=0):
    """The log from record ``start`` on, as comparable tuples; with
    ``start`` None, just its length.  Statement texts are canonicalised
    (a statement shipped with a rendering logs the rendering)."""
    if database.wal_path is None:
        return 0 if start is None else []
    with open(database.wal_path, "rb") as handle:
        records, _valid = scan_records(handle.read())
    if start is None:
        return len(records)
    out = []
    for record in records[start:]:
        data = record.data
        if record.kind in (KIND_STATEMENT, KIND_BATCH):
            data = (data[0], _canonical(data[1])) + tuple(data[2:])
        out.append((record.kind, record.txn, data))
    return out


def _counters():
    return {
        name: value
        for name, value in snapshot()["counters"].items()
        if name.startswith(("statements.", "rows.returned", "errors."))
    }


def _calls(database):
    return sum(row[1] for row in database.statement_stats.statement_rows())


def _position(session):
    """The session's write-list length: an undo mark."""
    txn = session.transaction
    return 0 if txn is None else len(txn.writes)


def _state(session, mark):
    txn = session.transaction
    snapshot = txn is not None and txn.id is not None
    return {
        "mvcc_open": snapshot,
        "pristine": txn.pristine if snapshot else None,
        "undo_growth": _position(session) - mark,
        "durable_open": txn is not None and txn.wal_txn is not None,
    }


def observe(database, entry, case, autocommit):
    """Run ``case`` through ``entry`` on a fresh session; returns every
    observable of that one statement."""
    name, sql, params, _batchable = case
    run = ENTRY_POINTS[entry]
    session = database.create_session(autocommit=autocommit)
    if name == "select_hit":
        run(session, sql, params)  # prime whatever cache this entry has
        if not autocommit:
            session.commit()
    wal_before = _wal(database, None)
    counters_before = _counters()
    calls_before = _calls(database)
    mark = _position(session)
    try:
        result = run(session, sql, params)
    except errors.SQLException as exc:
        outcome = ("error", type(exc).__name__, exc.sqlstate)
    else:
        if isinstance(result, list):  # execute_batch: per-row counts
            outcome = ("update", [], result[0])
        else:
            outcome = (result.kind, result.rows, result.update_count)
    counters_after = _counters()
    observed = {
        "outcome": outcome,
        "counters": {
            key: counters_after[key] - counters_before.get(key, 0)
            for key in counters_after
            if counters_after[key] != counters_before.get(key, 0)
        },
        "stats_calls": _calls(database) - calls_before,
        "state": _state(session, mark),
    }
    if not autocommit:
        session.commit()
    observed["wal"] = _wal(database, wal_before)
    observed["table"] = sorted(
        session.execute("select k, v from t").rows
    )
    observed["audit"] = session.execute("select count(*) from audit").rows
    session.close()
    return observed


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("autocommit", [True, False], ids=["auto", "txn"])
@pytest.mark.parametrize("case, entry", COMBINATIONS)
def test_entry_point_matches_execute(
    make_database, traced, case, entry, autocommit
):
    expected = observe(make_database("ref"), "execute", case, autocommit)
    actual = observe(make_database("sut"), entry, case, autocommit)
    assert actual == expected
    # Absolutes the comparison alone would not catch if every path
    # drifted together.  A routine body's nested statement is a
    # statement of its own.
    nested = 1 if case[0] in ("call", "fail_function") else 0
    assert actual["stats_calls"] == 1 + nested
    if autocommit:
        assert actual["state"] == {
            "mvcc_open": False,
            "pristine": None,
            "undo_growth": 0,
            "durable_open": False,
        }
    elif actual["outcome"][0] == "error":
        assert actual["state"]["undo_growth"] == 0
    elif actual["state"]["mvcc_open"]:
        assert actual["state"]["pristine"] is False
    if case[0].startswith("fail_"):
        assert actual["outcome"][0] == "error"
        assert actual["counters"].get(
            f"errors.{actual['outcome'][2]}"
        ) == 1
        assert actual["wal"] == []
    # A routine body's INSERT commits or rolls back with the statement
    # that called it, autocommit or not.
    assert actual["audit"] == [[0]]


@pytest.mark.parametrize("autocommit", [True, False], ids=["auto", "txn"])
def test_batch_of_many_is_the_n_row_case(make_database, traced, autocommit):
    """N parameter rows through ``execute_batch`` leave the state N
    single executions leave, as ONE statement: one counter bump, one
    statistics call, one WAL batch record."""
    sql = "update t set v = v + ? where k = ?"
    rows = [[1, 1], [2, 2], [3, 3], [4, 99]]
    reference = make_database("ref")
    session = reference.create_session(autocommit=autocommit)
    expected_counts = [
        session.execute(sql, row).update_count for row in rows
    ]
    session.commit()
    expected_table = sorted(session.execute("select k, v from t").rows)

    database = make_database("sut")
    session = database.create_session(autocommit=autocommit)
    wal_before = _wal(database, None)
    counters_before = _counters()
    calls_before = _calls(database)
    counts = session.execute_batch(sql, rows)
    counters_after = _counters()
    assert counts == expected_counts == [1, 1, 1, 0]
    assert counters_after["statements.update"] \
        - counters_before.get("statements.update", 0) == 1
    assert _calls(database) - calls_before == 1
    state = _state(session, _position(session))
    if autocommit:
        assert not state["mvcc_open"] and not state["durable_open"]
    else:
        assert state["pristine"] is False
        session.commit()
    assert sorted(session.execute("select k, v from t").rows) \
        == expected_table
    if database.wal_path is not None:
        batch, commit = _wal(database, wal_before)
        assert batch[0] == KIND_BATCH
        assert batch[2][1:3] == (
            _canonical(sql), tuple(tuple(row) for row in rows)
        )
        assert commit[0] == "commit" and commit[1] == batch[1]


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_write_conflict_retries_whole_statement(
    make_database, traced, entry
):
    """A statement blocked by another transaction's row claim waits with
    no engine lock held, then retries under a fresh snapshot — and is
    still ONE statement to every counter."""
    database = make_database("sut")
    blocker = database.create_session(autocommit=False)
    blocker.execute("update t set v = 100 where k = 1")
    session = database.create_session(autocommit=True)
    waits_before = snapshot()["counters"].get("mvcc.conflict_waits", 0)
    counters_before = _counters()
    calls_before = _calls(database)
    outcome = []

    def run():
        outcome.append(ENTRY_POINTS[entry](
            session, "update t set v = v + ? where k = ?", [1, 1]
        ))

    thread = threading.Thread(target=run)
    thread.start()
    deadline = time.monotonic() + 10.0
    while (
        snapshot()["counters"].get("mvcc.conflict_waits", 0) == waits_before
        and time.monotonic() < deadline
    ):
        time.sleep(0.001)
    assert database.lock.reader_count() == 0  # waiting outside the lock
    blocker.commit()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    [result] = outcome
    count = result[0] if isinstance(result, list) else result.update_count
    assert count == 1
    assert session.execute("select v from t where k = 1").rows == [[101]]
    deltas = _counters()
    assert deltas["statements.update"] \
        - counters_before.get("statements.update", 0) == 1
    # the retried update plus the verification select above
    assert _calls(database) - calls_before == 2
    assert not session.in_transaction


# ---------------------------------------------------------------------------
# regressions fixed by the shared envelope
# ---------------------------------------------------------------------------


def test_prepared_query_on_closed_session_raises(session):
    session.execute("create table t (k int)")
    plan = session.prepare("select k from t")
    session.close()
    with pytest.raises(errors.ConnectionClosedError) as excinfo:
        plan.execute()
    assert excinfo.value.sqlstate == "08003"


def test_customized_query_entry_runs_the_statement_pipeline(db):
    """A translated, customized query clause on an autocommit connection
    sees other sessions' commits, holds no snapshot between executions,
    replans after ANALYZE, and is visible to counters, the statistics
    views and the slow log."""
    from repro.runtime import PositionalIterator, sqlj
    from repro.translator import TranslationOptions, Translator

    admin = db.create_session(autocommit=True)
    admin.execute("create table t (k int, v int)")
    admin.execute("create index t_k on t (k)")
    admin.execute_batch(
        "insert into t values (?, ?)", [(i, 2) for i in range(200)]
    )
    admin.execute("analyze t")
    result = Translator(TranslationOptions(exemplar=db)).translate_source(
        "#sql iterator Values (int);\n"
        "def read(key):\n"
        "    rows: Values\n"
        "    #sql rows = { SELECT v FROM t WHERE k = :key };\n"
        "    return rows\n",
        "pipeline_mod",
    )
    profile = customize_profile(result.profiles[0], "standard")

    class Values(PositionalIterator):
        _column_types = (int,)

    reader = db.create_session(autocommit=True)
    context = ConnectionContext(reader)
    log = io.StringIO()
    slowlog.configure(0.0, log)

    def read(key):
        iterator = sqlj.query(profile, 0, context, (key,), Values)
        return [row[0] for row in iter(iterator.fetch_row, None)]

    selects_before = snapshot()["counters"].get("statements.select", 0)
    assert read(1) == [2]
    connected = context.connected_profile(profile)
    assert isinstance(connected.customization(), DialectCustomization)
    # no snapshot is held between statements ...
    assert not reader.in_transaction
    admin.execute("update t set v = 3 where k = 1")
    assert db.transactions.oldest_visible_seq() \
        == db.transactions.commit_seq
    # ... so the next execution sees the other session's commit
    assert read(1) == [3]
    assert snapshot()["counters"]["statements.select"] \
        == selects_before + 2
    # ANALYZE alone (catalog version unchanged) re-costs the held plan
    admin.execute("update t set k = 1")
    admin.execute("analyze t")
    assert len(read(1)) == 200
    held = connected.get_statement(0)._prepared._cached
    assert held.stats_version == db.catalog.stats_version
    # statistics views and slow log both saw the entry's vendor text
    text = connected.customization().sql_texts[0]
    calls = {
        row[0]: row[1] for row in db.statement_stats.statement_rows()
    }
    assert calls[text] == 3
    logged = [json.loads(line) for line in log.getvalue().splitlines()]
    assert sum(1 for record in logged if record["statement"] == text) == 3
    context.close()


@pytest.mark.parametrize("entry", ["prepare", "profile"])
def test_failed_held_query_rolls_back_to_its_mark(
    make_database, traced, entry
):
    """The function ran DML through the default connection before the
    SELECT failed; inside a transaction that partial work must not
    survive the statement."""
    database = make_database("sut")
    session = database.create_session(autocommit=False)
    session.execute("insert into audit values (0)")
    mark = _position(session)
    with pytest.raises(errors.DivisionByZeroError):
        ENTRY_POINTS[entry](
            session, "select 1 / log_it(k) from t where k = ?", [1]
        )
    assert _position(session) == mark
    assert session.execute("select k from audit").rows == [[0]]
    session.commit()
    assert session.execute("select k from audit").rows == [[0]]


#: Run in a child process against ``<data_dir>/wart`` (in process, or
#: through a ``repro://`` server in the child when argv[2] is "remote"):
#: the failing SELECT, then ``call bump(1, 7)`` on an autocommit
#: connection; print what the connection reads, then die without a
#: clean shutdown.
CRASHING_CLIENT = '''
import json, os, sys
import repro
from repro.server import ReproServer

data_dir, where = sys.argv[1:]
conn = repro.connect("pydbc:standard:wart", data_dir=data_dir)
if where == "remote":
    server = ReproServer(data_dir=data_dir).start_background()
    conn = repro.connect(
        f"repro://127.0.0.1:{server.port}/wart", user="dba"
    )
cursor = conn.cursor()
try:
    cursor.execute("select 1 / log_it(k) from t where k = 1")
except repro.errors.DivisionByZeroError:
    pass
else:
    raise AssertionError("the SELECT did not fail")
cursor.execute("call bump(1, 7)")
cursor.execute("select count(*) from audit")
audit = [list(row) for row in cursor.fetchall()]
cursor.execute("select k, v from t order by k")
table = [list(row) for row in cursor.fetchall()]
print(json.dumps({"audit": audit, "table": table}), flush=True)
os._exit(0)
'''


@pytest.mark.parametrize("where", ["engine", "remote"])
def test_routine_body_commits_with_its_caller_across_a_crash(
    tmp_path, where
):
    """A routine body's DML through a prepared statement on the default
    connection is part of the calling statement on an autocommit
    connection too: the failing SELECT leaves no audit row, before or
    after a crash, and a successful CALL's update is durable with it."""
    par = build_par(
        os.path.join(str(tmp_path), "p.par"),
        {"pipeline_routines": ROUTINES},
    )
    directory = os.path.join(str(tmp_path), "wart")
    database = open_database(directory)
    admin = database.create_session(autocommit=True)
    admin.execute(f"call sqlj.install_par('{par}', 'p')")
    for statement in SETUP:
        admin.execute(statement)
    admin.close()
    database.close()

    source = os.path.dirname(os.path.dirname(repro.__file__))
    child = subprocess.run(
        [sys.executable, "-c", CRASHING_CLIENT, str(tmp_path), where],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": source},
    )
    assert child.returncode == 0, child.stderr
    before = json.loads(child.stdout)
    assert before == {
        "audit": [[0]], "table": [[1, 17], [2, 20], [3, 30]],
    }
    recovered = open_database(directory)
    session = recovered.create_session(autocommit=True)
    after = {
        "audit": session.execute("select count(*) from audit").rows,
        "table": session.execute("select k, v from t order by k").rows,
    }
    session.close()
    recovered.close()
    assert after == before


def test_traced_prepared_query_takes_the_lock_once(session):
    """One engine-lock acquisition per statement, as locks.py documents
    (the traced prepared path used to take it for execute and again for
    fetch)."""
    session.execute("create table t (k int)")
    plan = session.prepare("select k from t")
    lock = session.database.lock
    acquisitions = []
    original = lock.acquire_read

    def counting():
        acquisitions.append(1)
        original()

    lock.acquire_read = counting
    tracer = tracing.enable_tracing("json", io.StringIO())
    try:
        plan.execute()
    finally:
        tracing.disable_tracing()
        del lock.acquire_read
    assert len(acquisitions) == 1
    names = [span.name for span, _depth in tracer.finished[-1].walk()]
    assert names == ["statement", "execute", "fetch"]


# ---------------------------------------------------------------------------
# unique keys: one answer on every entry point
# ---------------------------------------------------------------------------


class Tag:
    """Part 2 value with equality but no hash: the unique check has to
    probe it linearly instead of hashing it."""

    x: int

    def __init__(self, x: int):
        self.x = x

    def __eq__(self, other):
        return isinstance(other, Tag) and self.x == other.x

    __hash__ = None

    def __repr__(self):
        return f"Tag({self.x})"


KEY_INSERT = "insert into u (k) values (?)"
NAN = float("nan")

#: name: (column type, committed keys, the keys ONE statement inserts,
#: "23505" or the keys committed afterwards).  The pad, NaN, 1 / 1.0 and
#: scale cases pin that an index key (``sort_key``) and the heap pass's
#: ``key_image`` equate the same coerced values.
UNIQUE_INSERTS = {
    "varchar_pad": ("varchar(5)", ["a"], ["a "], "23505"),
    "varchar_pad_of_many": ("varchar(5)", ["a"], ["b", "a "], "23505"),
    "varchar_pad_intra": ("varchar(5)", ["a"], ["c", "c  "], "23505"),
    "char_pad": ("char(5)", ["a"], ["a "], "23505"),
    "char_pad_of_many": ("char(5)", ["a"], ["b", "a "], "23505"),
    "leading_blank": ("varchar(5)", ["a"], [" a"], [" a", "a"]),
    "nulls": ("integer", [1, None], [None, None], [1, None, None, None]),
    "intra_statement": ("integer", [1], [2, 2], "23505"),
    "udt_duplicate": ("tag", [Tag(1)], [Tag(2), Tag(1)], "23505"),
    "udt_fresh": ("tag", [Tag(1)], [Tag(3), Tag(2)],
                  [Tag(1), Tag(2), Tag(3)]),
    "double_nan": ("double", [NAN], [NAN], "23505"),
    "double_nan_intra": ("double", [1.5], [NAN, NAN], "23505"),
    "double_int_float": ("double", [1.0], [1], "23505"),
    "double_fresh": ("double", [1.0], [1.5, 2], [1.0, 1.5, 2.0]),
    "decimal_scale": ("decimal(5,2)", [Decimal("1.0")], [Decimal("1.00")],
                      "23505"),
}

#: name: (committed integer keys, UPDATE, its parameters, outcome)
UNIQUE_UPDATES = {
    "shift": ([1, 2, 3], "update u set k = k + ?", [1], [2, 3, 4]),
    "collapse": ([1, 2], "update u set k = ?", [5], "23505"),
    "shift_range": ([1, 2, 3], "update u set k = k + ? where k < 100", [1],
                    [2, 3, 4]),
    "collide_one": ([1, 2, 3], "update u set k = ? where k between 3 and 3",
                    [2], "23505"),
    "keep_own_key": ([1, 2, 3],
                     "update u set k = ? where k between 2 and 2", [2],
                     [1, 2, 3]),
}

#: layout: (``create index u_k on u (k)``?, where FILLERS keys go).  The
#: unique check probes the index for a small batch into a large heap
#: ("big_heap": FILLERS committed first) and makes one heap pass for a
#: large batch into a small heap ("big_batch": FILLERS ride in a
#: statement that takes many keys; for an UPDATE, no FILLERS, so its
#: rows are much of the heap).  "" is the table the cells began with.
UNIQUE_LAYOUTS = {
    "": (False, None),
    "plain-big_heap": (False, "heap"),
    "plain-big_batch": (False, "batch"),
    "indexed-big_heap": (True, "heap"),
    "indexed-big_batch": (True, "batch"),
}
FILLERS = 32


def _fillers(column_type):
    """FILLERS keys of ``column_type`` no case's own key collides with."""
    if column_type.startswith(("varchar", "char")):
        return [f"z{i:04d}" for i in range(FILLERS)]
    if column_type == "tag":
        return [Tag(1000 + i) for i in range(FILLERS)]
    if column_type == "decimal(5,2)":
        return [Decimal(f"{500 + i}.25") for i in range(FILLERS)]
    return [1000 + i for i in range(FILLERS)]  # integer, double


@pytest.fixture
def index_probes(monkeypatch):
    """Every ``Index.lookup`` call while the test runs."""
    calls = []
    lookup = Index.lookup

    def counted(self, values):
        calls.append(values)
        return lookup(self, values)

    monkeypatch.setattr(Index, "lookup", counted)
    return calls

#: #sql loops the translator compiles to one execute_batch call
SQLJ_LOOPS = '''
def insert_keys(keys):
    for key in keys:
        #sql { INSERT INTO u (k) VALUES (:key) };
    return True
'''
SQLJ_UPDATE_LOOP = '''
def update(values):
    for value in values:
        #sql { %s };
    return True
'''


def _keys(session):
    return sorted(
        (row[0] for row in session.execute("select k from u").rows),
        key=repr,
    )


class UniqueHarness:
    """One database per test with ``u (k <type> unique)``, reachable
    in process and over ``repro://``; ``env`` is the module's server,
    translation directory and translated-module cache."""

    def __init__(self, env, name, column_type, indexed=False):
        self.server, self.sqlj_dir, self.translated = env
        self.name, self.column_type = name, column_type
        self.indexed = indexed
        self.database = repro.registry.get_or_create(name, "standard")
        admin = self.database.create_session(autocommit=True)
        self.define(admin)
        admin.close()

    def define(self, session):
        if self.column_type == "tag":
            session.execute(
                f"create type tag external name "
                f"'{Tag.__module__}.Tag' language python ("
                "x integer external name x, "
                "method tag (x integer) returns tag external name Tag)"
            )
        session.execute(f"create table u (k {self.column_type} unique)")
        session.execute(f"create table stage (k {self.column_type})")
        if self.indexed:
            session.execute("create index u_k on u (k)")

    def session(self):
        return self.database.create_session(autocommit=True)

    def remote(self):
        conn = repro.connect(
            f"repro://127.0.0.1:{self.server.port}/{self.name}",
            user=self.database.admin_user,
        )
        conn.set_auto_commit(True)
        return conn

    def sqlj(self, source):
        """The translated module for ``source`` (checked against this
        schema), cached per schema and source."""
        key = (self.column_type, source)
        if key not in self.translated:
            exemplar = Database(name="unique_exemplar")
            self.define(exemplar.create_session(autocommit=True))
            module_name = f"unique_loop_{len(self.translated)}"
            result = Translator(
                TranslationOptions(exemplar=exemplar)
            ).translate_source(source, module_name)
            assert result.python_source.count("execute_batch") == 1
            directory = self.sqlj_dir
            with open(os.path.join(directory, module_name + ".py"),
                      "w") as handle:
                handle.write(result.python_source)
            for profile in result.profiles:
                save_profile(profile, directory)
            sys.path.insert(0, directory)
            try:
                self.translated[key] = importlib.import_module(module_name)
            finally:
                sys.path.remove(directory)
        return self.translated[key]

    def run_sqlj(self, session, source, function, rows):
        module = self.sqlj(source)
        ConnectionContext.set_default_context(ConnectionContext(session))
        try:
            getattr(module, function)(rows)
        finally:
            ConnectionContext.set_default_context(None)


def _insert_values(h, s, keys):
    marks = ", ".join("(?)" for _ in keys)
    s.execute(f"insert into u (k) values {marks}", keys)


def _insert_select(h, s, keys):
    s.execute_batch("insert into stage (k) values (?)", [[k] for k in keys])
    s.execute("insert into u (k) select k from stage")


def _insert_select_self(h, s, keys):
    one = "select ? from (select k from u limit 1) one"
    s.execute("insert into u (k) " + " union all ".join([one] * len(keys)),
              keys)


def _insert_remote(h, s, keys):
    with h.remote() as conn:
        conn.cursor().executemany(KEY_INSERT, [[k] for k in keys])


#: name: (takes N keys in one statement, run(harness, session, keys))
INSERT_ENTRIES = {
    "execute": (False, lambda h, s, keys: s.execute(KEY_INSERT, keys)),
    "prepare": (False, lambda h, s, keys: s.prepare(KEY_INSERT).execute(
        keys)),
    "executemany_1": (False, lambda h, s, keys: repro.Connection(
        s, owns_session=False).cursor().executemany(KEY_INSERT, [keys])),
    "values": (True, _insert_values),
    "executemany_n": (True, lambda h, s, keys: repro.Connection(
        s, owns_session=False).cursor().executemany(
            KEY_INSERT, [[k] for k in keys])),
    "sqlj_loop": (True, lambda h, s, keys: h.run_sqlj(
        s, SQLJ_LOOPS, "insert_keys", keys)),
    "insert_select": (True, _insert_select),
    "insert_select_self": (True, _insert_select_self),
    "remote": (True, _insert_remote),
}


def _update_remote(h, s, sql, params):
    with h.remote() as conn:
        conn.cursor().execute(sql, params)


UPDATE_ENTRIES = {
    "execute": lambda h, s, sql, params: s.execute(sql, params),
    "prepare": lambda h, s, sql, params: s.prepare(sql).execute(params),
    "executemany_1": lambda h, s, sql, params: repro.Connection(
        s, owns_session=False).cursor().executemany(sql, [params]),
    "sqlj_loop": lambda h, s, sql, params: h.run_sqlj(
        s, SQLJ_UPDATE_LOOP % sql.replace("?", ":value"),
        "update", params),
    "remote": _update_remote,
}


@pytest.fixture(scope="module")
def unique_env(tmp_path_factory):
    server = ReproServer().start_background()
    yield server, str(tmp_path_factory.mktemp("unique_sqlj")), {}
    server.stop_background()


@pytest.fixture
def unique_db(unique_env, request):
    def make(column_type, indexed=False):
        name = "uniq_" + "".join(
            c if c.isalnum() else "_" for c in request.node.name
        )
        return UniqueHarness(unique_env, name, column_type, indexed)

    return make


def _outcome(run):
    try:
        run()
    except errors.SQLException as exc:
        return exc.sqlstate
    return None


def _cell_id(*parts):
    return "-".join(part for part in parts if part)


UNIQUE_INSERT_COMBINATIONS = [
    pytest.param(case, entry, layout, id=_cell_id(case, entry, layout))
    for layout, (indexed, _fill) in UNIQUE_LAYOUTS.items()
    for case, (column_type, _before, keys, _want) in UNIQUE_INSERTS.items()
    for entry, (multi, _run) in INSERT_ENTRIES.items()
    if (multi or len(keys) == 1)
    # Part 2 objects do not cross the data-only wire codec, and an
    # object column cannot be indexed
    and not (column_type == "tag" and (entry == "remote" or indexed))
]


@pytest.mark.parametrize("case, entry, layout", UNIQUE_INSERT_COMBINATIONS)
def test_unique_insert_one_answer(unique_db, index_probes, case, entry,
                                  layout):
    column_type, before, keys, want = UNIQUE_INSERTS[case]
    indexed, fill = UNIQUE_LAYOUTS[layout]
    multi, run = INSERT_ENTRIES[entry]
    fillers = _fillers(column_type) if fill == "heap" or (
        fill == "batch" and multi
    ) else []
    harness = unique_db(column_type, indexed)
    session = harness.session()
    session.execute_batch(KEY_INSERT, [[k] for k in before])
    if fill == "heap":
        session.execute_batch(KEY_INSERT, [[k] for k in fillers])
    elif fillers:
        keys = fillers + keys
    committed = _keys(session)
    del index_probes[:]
    state = _outcome(lambda: run(harness, session, keys))
    assert bool(index_probes) == (
        indexed and fill == "heap" and any(k is not None for k in keys)
    )
    if want == "23505":
        assert (state, _keys(session)) == ("23505", committed)
    else:
        assert (state, _keys(session)) == (
            None, sorted(want + fillers, key=repr)
        )


UNIQUE_UPDATE_COMBINATIONS = [
    pytest.param(case, entry, layout, id=_cell_id(case, entry, layout))
    for layout, (indexed, fill) in UNIQUE_LAYOUTS.items()
    for case, (_before, sql, _params, _want) in UNIQUE_UPDATES.items()
    for entry in UPDATE_ENTRIES
    # FILLERS stay out of the statement: it must not reach them
    if layout != "plain-big_batch" and (fill != "heap" or "where" in sql)
]


@pytest.mark.parametrize("case, entry, layout", UNIQUE_UPDATE_COMBINATIONS)
def test_unique_update_one_answer(unique_db, index_probes, case, entry,
                                  layout):
    before, sql, params, want = UNIQUE_UPDATES[case]
    indexed, fill = UNIQUE_LAYOUTS[layout]
    fillers = _fillers("integer") if fill == "heap" else []
    harness = unique_db("integer", indexed)
    session = harness.session()
    session.execute_batch(KEY_INSERT, [[k] for k in before + fillers])
    del index_probes[:]
    state = _outcome(
        lambda: UPDATE_ENTRIES[entry](harness, session, sql, params)
    )
    assert bool(index_probes) == (indexed and fill == "heap")
    if want == "23505":
        assert (state, _keys(session)) == (
            "23505", sorted(before + fillers, key=repr)
        )
    else:
        assert (state, _keys(session)) == (
            None, sorted(want + fillers, key=repr)
        )


#: name: (committed keys, an INSERT whose source reads ``u`` — every
#: ``?`` takes the loop value —, the loop values, keys afterwards)
READING_INSERTS = {
    "not_exists": ([1], "insert into u (k) select ? where not exists "
                   "(select 1 from u where k = ?)", [5, 5], [1, 5]),
    "max_plus": ([1], "insert into u (k) select max(k) + ? from u",
                 [1, 1, 1], [1, 2, 3, 4]),
    "values_subquery": ([1], "insert into u (k) values "
                        "((select max(k) from u) + ?)", [1, 1], [1, 2, 3]),
}


def _loop_params(sql, values):
    return [[value] * sql.count("?") for value in values]


def _reading_remote(h, s, sql, values):
    with h.remote() as conn:
        conn.cursor().executemany(sql, _loop_params(sql, values))


#: each runs the INSERT once per loop value; all but the first batch it
READING_INSERT_ENTRIES = {
    "execute_each": lambda h, s, sql, values: [
        s.execute(sql, params) for params in _loop_params(sql, values)
    ],
    "executemany": lambda h, s, sql, values: repro.Connection(
        s, owns_session=False).cursor().executemany(
            sql, _loop_params(sql, values)),
    "execute_batch": lambda h, s, sql, values: s.execute_batch(
        sql, _loop_params(sql, values)),
    "sqlj_loop": lambda h, s, sql, values: h.run_sqlj(
        s, SQLJ_UPDATE_LOOP % sql.replace("?", ":value"), "update",
        values),
    "remote": _reading_remote,
}


@pytest.mark.parametrize("entry", list(READING_INSERT_ENTRIES))
@pytest.mark.parametrize("case", list(READING_INSERTS))
def test_batched_insert_sees_earlier_rows(unique_db, case, entry):
    """A batched INSERT whose source reads the table gives the answer
    of the same INSERT run once per row: each row sees the ones before
    it."""
    before, sql, values, want = READING_INSERTS[case]
    harness = unique_db("integer")
    session = harness.session()
    session.execute_batch(KEY_INSERT, [[k] for k in before])
    state = _outcome(
        lambda: READING_INSERT_ENTRIES[entry](harness, session, sql, values)
    )
    assert (state, _keys(session)) == (None, want)


@pytest.mark.parametrize("entry, blocker_ends, layout", [
    pytest.param(entry, ends, layout, id=_cell_id(entry, ends, layout))
    for layout in ("", "indexed-big_heap")
    for entry in INSERT_ENTRIES
    for ends in ("commit", "rollback")
])
def test_in_flight_collider_waits(unique_db, index_probes, entry,
                                  blocker_ends, layout):
    """Another transaction's uncommitted insert of the same key makes
    every entry point wait for it: 23505 if it commits, success if it
    rolls back — whether the unique check scans the heap or probes the
    key's index."""
    indexed, fill = UNIQUE_LAYOUTS[layout]
    fillers = _fillers("integer") if fill else []
    harness = unique_db("integer", indexed)
    session = harness.session()
    session.execute_batch(KEY_INSERT, [[k] for k in [1] + fillers])
    blocker = harness.database.create_session(autocommit=False)
    blocker.execute(KEY_INSERT, [7])
    del index_probes[:]
    waits_before = snapshot()["counters"].get("mvcc.conflict_waits", 0)
    outcome = []
    _multi, run = INSERT_ENTRIES[entry]
    thread = threading.Thread(
        target=lambda: outcome.append(
            _outcome(lambda: run(harness, session, [7]))
        )
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while (
        snapshot()["counters"].get("mvcc.conflict_waits", 0) == waits_before
        and time.monotonic() < deadline
    ):
        time.sleep(0.001)
    assert thread.is_alive(), "the insert did not wait for the blocker"
    getattr(blocker, blocker_ends)()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    if blocker_ends == "commit":
        assert outcome == ["23505"]
    else:
        assert outcome == [None]
    assert bool(index_probes) == indexed
    assert _keys(session) == sorted([1, 7] + fillers, key=repr)
