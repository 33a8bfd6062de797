"""Untraced and traced runs of the one statement envelope give one answer.

Every statement runs through one envelope, ``Session._run_statement``;
tracing only adds spans and timings around its stages.  Each scenario
below runs twice on fresh, identical databases — once untraced and
once traced — and must observe the same thing both times, so a trace
describes the path an untraced run takes:

* rows, row shapes and SQLSTATEs of a grid of queries, and their
  ``repro_stats.statements`` calls, errors, rows and plan-cache hits;
* the slow-query log line, and an ``executor.run`` fault;
* a repeatable read in an explicit transaction across a commit;
* a prepared statement and a cached text made stale by DDL and by
  ANALYZE;
* a SELECT calling a ``MODIFIES SQL DATA`` function, which rolls back
  the function's DML when the statement fails;
* a UDT iterator column's per-row ``InvalidCastError``.

Every scenario runs in process and over ``repro://`` (an in-process
server, whose tracing is this process's).
"""

from __future__ import annotations

import io
import itertools
import json

import pytest

import repro
from repro import errors, registry
from repro.observability import slowlog, tracing
from repro.observability.stats import normalize_statement
from repro.procedures import build_par
from repro.runtime import NamedIterator
from repro.server import ReproServer
from repro.testing import FaultPlan

from tests import paper_assets

ROUTINES = '''
from repro import DriverManager


def run_sql(sql):
    statement = DriverManager.get_connection(
        "DBAPI:DEFAULT:CONNECTION"
    ).create_statement()
    statement.execute("INSERT INTO audit VALUES (1)")
    statement.execute(sql)
    return 1
'''

SETUP = [
    "create table t (k integer primary key, v integer, s varchar(10))",
    "create index t_k on t (k)",
    "create table u (k integer, w integer)",
    "create table audit (k integer)",
    "create table one (x integer)",
    "insert into one values (1)",
    "insert into u values (2, 20), (4, 40), (9, 90)",
    "create function run_sql(s varchar(200)) returns integer "
    "modifies sql data external name 'p:read_routines.run_sql' "
    "language python parameter style python",
] + [
    f"insert into t values ({k}, {k * 10}, 'x{k}')" for k in range(1, 9)
]

#: name -> (sql, params)
QUERIES = {
    "point": ("select k, v, s from t where k = ?", [3]),
    "range": ("select k, s from t where k > ? and k < ?", [2, 6]),
    "star": ("select * from t where v >= ?", [60]),
    "filtered": ("select k from t where s = 'x3'", []),
    "order": ("select k, v from t order by v desc, k", []),
    "aggregate": ("select count(*), sum(v), max(s) from t", []),
    "join": ("select t.k, u.w from t join u on t.k = u.k order by t.k", []),
    "union": ("select k from t where k < 3 union select k from u", []),
    "limit": ("select k from t order by k limit 2", []),
    "empty": ("select k from t where k = ?", [999]),
    "null probe": ("select s from t where k = ?", [None]),
    "division": ("select k / (v - v) from t where k = ?", [1]),
    "missing parameter": ("select v from t where k = ?", []),
}

_names = itertools.count()


class World:
    """A fresh database with the setup above, reached in process or
    through a ``repro://`` server; ``admin`` is an engine session on it."""

    def __init__(self, where, tmp_path):
        self.name = f"read_path_{next(_names)}"
        self.server = None
        if where == "engine":
            self.url = f"pydbc:standard:{self.name}"
        else:
            self.server = ReproServer().start_background()
            self.url = f"repro://127.0.0.1:{self.server.port}/{self.name}"
        self.database = registry.get_or_create(self.name, "standard")
        self.tmp_path = tmp_path
        self.connections = []
        self.admin = self.database.create_session(autocommit=True)
        tmp_path.mkdir(parents=True, exist_ok=True)
        par = build_par(
            str(tmp_path / "read.par"), {"read_routines": ROUTINES}
        )
        self.admin.execute(f"call sqlj.install_par('{par}', 'p')")
        for statement in SETUP:
            self.admin.execute(statement)

    def open(self, autocommit=True):
        connection = repro.connect(self.url, user="dba")
        connection.set_auto_commit(autocommit)
        self.connections.append(connection)
        return connection.session

    def statements(self, texts):
        """``repro_stats.statements`` figures for ``texts``, by key."""
        keys = {normalize_statement(text) for text in texts}
        rows = self.admin.execute(
            "select statement, calls, errors, error_sqlstates, "
            "rows_returned, rows_scanned, plan_cache_hits "
            "from repro_stats.statements"
        ).rows
        found = sorted(row for row in rows if row[0] in keys)
        assert len(found) == len(keys)
        return found

    def close(self):
        for connection in self.connections:
            connection.close()
        if self.server is not None:
            self.server.stop_background()


def outcome(run):
    """``run()``'s rows and shape, or its SQLSTATE."""
    try:
        result = run()
    except errors.SQLException as exc:
        return ("error", exc.sqlstate)
    shape = [
        (column.name,
         None if column.descriptor is None
         else column.descriptor.sql_spelling())
        for column in result.shape.columns
    ]
    return ([list(row) for row in result.rows], shape)


@pytest.fixture(params=["engine", "remote"])
def where(request):
    return request.param


def both(where, tmp_path, scenario):
    """Run ``scenario(world)`` untraced and traced on fresh worlds and
    assert the two observations equal."""
    observed = {}
    for mode in ("untraced", "traced"):
        world = World(where, tmp_path / mode)
        if mode == "traced":
            tracing.enable_tracing("json", io.StringIO())
        try:
            observed[mode] = scenario(world)
        finally:
            tracing.disable_tracing()
            world.close()
    assert observed["untraced"] == observed["traced"]


# ---------------------------------------------------------------------------
# results and statistics
# ---------------------------------------------------------------------------


def test_a_grid_of_queries_agrees(where, tmp_path):
    def scenario(world):
        session = world.open()
        results = {}
        for name, (sql, params) in QUERIES.items():
            for _ in range(3):
                # An autocommit statement, failed or not, leaves no
                # transaction (and no snapshot) behind.
                results.setdefault(name, []).append((
                    outcome(lambda: session.execute(sql, params)),
                    session.in_transaction,
                ))
        texts = {sql for sql, _params in QUERIES.values()}
        return results, world.statements(texts)

    both(where, tmp_path, scenario)


def test_the_slow_log_and_a_fault_agree(where, tmp_path):
    sql, params = QUERIES["point"]

    def scenario(world):
        session = world.open()
        session.execute(sql, params)  # compiled and cached
        stream = io.StringIO()
        slowlog.configure(0, stream)
        try:
            rows = session.execute(sql, params).rows
        finally:
            slowlog.configure(None)
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        logged = [
            {key: record.get(key) for key in (
                "source", "user", "statement", "key", "rows",
                "rows_scanned", "sqlstate",
            )}
            for record in records
            if record["source"] == "engine" and record["statement"] == sql
            and record["db"] == world.name
        ]
        plan = FaultPlan(seed=3).inject(
            "executor.run", error=errors.OperatorExecutionError, times=1
        )
        with plan.armed():
            failed = outcome(lambda: session.execute(sql, params))
        after = outcome(lambda: session.execute(sql, params))
        return list(map(list, rows)), logged, failed, after, \
            world.statements({sql})

    both(where, tmp_path, scenario)


# ---------------------------------------------------------------------------
# transactions and staleness
# ---------------------------------------------------------------------------


def test_a_repeatable_read_across_a_commit_agrees(where, tmp_path):
    sql = "select v from t where k = ?"

    def scenario(world):
        reader, writer = world.open(autocommit=False), world.open()
        auto = world.open()
        reader.execute(sql, [1])  # cached
        reader.commit()
        seen = [reader.execute(sql, [1]).rows, auto.execute(sql, [1]).rows]
        writer.execute("update t set v = v + 1 where k = 1")
        seen.append(reader.execute(sql, [1]).rows)  # the pinned snapshot
        seen.append(auto.execute(sql, [1]).rows)  # a fresh one
        states = [reader.in_transaction, auto.in_transaction]
        reader.commit()
        seen.append(reader.execute(sql, [1]).rows)
        reader.commit()
        return [list(map(list, rows)) for rows in seen], states

    both(where, tmp_path, scenario)


@pytest.mark.parametrize("change", [
    "alter table t add column extra integer",
    "create index t_v on t (v)",
    "analyze t",
])
def test_a_stale_plan_agrees(where, tmp_path, change):
    sql = "select * from t where v = ?"

    def scenario(world):
        session = world.open()
        prepared = session.prepare(sql)
        seen = [outcome(lambda: prepared.execute([30])),
                outcome(lambda: session.execute(sql, [30]))]
        world.admin.execute(change)
        for _ in range(2):
            seen.append(outcome(lambda: prepared.execute([30])))
            seen.append(outcome(lambda: session.execute(sql, [30])))
        return seen

    both(where, tmp_path, scenario)


# ---------------------------------------------------------------------------
# routines and Part 2 values
# ---------------------------------------------------------------------------


def test_a_function_that_modifies_data_takes_the_envelope(
    where, tmp_path
):
    sql = "select run_sql(?) from one"

    def scenario(world):
        session = world.open()
        seen = [
            outcome(lambda: session.execute(sql, ["select 1 from one"])),
            outcome(lambda: session.execute(sql, ["select 1 / 0 from one"])),
            outcome(lambda: session.execute(sql, ["select 1 from one"])),
        ]
        audit = world.admin.execute("select count(*) from audit").rows
        return seen, audit

    both(where, tmp_path, scenario)


def test_a_udt_iterator_column_checks_each_row(where, tmp_path):
    """``home_addr`` is declared ``addr``; an iterator binding it to the
    subtype's class accepts the row holding an ``addr_2_line`` and
    raises 22018 on the row holding a plain ``addr``."""
    sql = "select name, home_addr from emps_addr order by name"

    def scenario(world):
        par = build_par(
            str(world.tmp_path / "address.par"),
            {"addressmod": paper_assets.ADDRESS_SOURCE},
        )
        admin = world.admin
        admin.execute(f"call sqlj.install_par('{par}', 'address_par')")
        admin.execute(paper_assets.CREATE_TYPE_ADDR)
        admin.execute(paper_assets.CREATE_TYPE_ADDR_2_LINE)
        admin.execute(paper_assets.PEOPLE_WITH_ADDRESSES_DDL)
        admin.execute(
            "insert into emps_addr values ('Ann', "
            "new addr_2_line('1 Main', 'Apt 2', '95001'), null), "
            "('Bob', new addr('2 Elm', '95002'), null)"
        )
        two_line = world.database.catalog.get_type("addr_2_line") \
            .python_class

        class HomeIter(NamedIterator):
            _columns = (("name", str), ("home_addr", two_line))

            def name(self):
                return self._get("name")

            def home_addr(self):
                return self._get("home_addr")

        session = world.open()
        seen = []
        for _ in range(3):  # compiled, then cached
            try:
                result = session.execute(sql)
            except errors.SQLException as exc:
                seen.append(("error", exc.sqlstate))
                continue
            iterator = HomeIter(result)
            while iterator.next():
                try:
                    home = iterator.home_addr()
                except errors.InvalidCastError as exc:
                    seen.append((iterator.name(), exc.sqlstate))
                    continue
                seen.append((iterator.name(), home.street))
                home.street = "changed"  # a copy: the table keeps its own
            iterator.close()
        return seen

    both(where, tmp_path, scenario)
