"""Counted work on the cache-hit paths: Python calls per operation.

A timing on a shared machine moves by tens of percent; the number of
Python function calls an operation makes does not.  Each test runs one
operation twice (compiling, caching and binding whatever it will reuse),
then counts the ``"call"`` events ``sys.setprofile`` reports for the
third run, keeping those whose code lives in the ``repro`` package, in
code the engine generated, or in the translated SQLJ module.  Calls into
the standard library are left out, so the counts hold from Python 3.10
to 3.12 (3.12 inlines comprehensions, which can only lower them).

Each ceiling pins the statement envelope (``Session._run_statement``,
the one path every statement takes, traced or not) and the runtime,
dbapi and profile layers above it: a change that puts a frame back on
a point read or a keyed write fails here before it shows in a
benchmark.  A write is one generated function (``DmlPlan.run``) and
an autocommit write one WAL ``write``; a batch is counted per row.
The database is durable, as the ``sqlj_oltp`` workload's is.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

import repro
from repro.translator import TranslationOptions, Translator

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

PROGRAM = '''
#sql public iterator AccountIter (int k, str owner, int balance, int branch);


def read_account(ctx, k):
    it: AccountIter
    #sql [ctx] it = { SELECT k, owner, balance, branch FROM accounts WHERE k = :k };
    rows = []
    while it.next():
        rows.append((it.k(), it.owner(), it.balance(), it.branch()))
    it.close()
    return rows


def deposit(ctx, k, amount):
    #sql [ctx] { UPDATE accounts SET balance = balance + :amount WHERE k = :k };
    return ctx.execution_context.update_count


def open_account(ctx, k, owner, balance, branch):
    #sql [ctx] { INSERT INTO accounts VALUES (:k, :owner, :balance, :branch) };
    return ctx.execution_context.update_count
'''

DDL = [
    "create table accounts (k integer primary key, owner varchar(20), "
    "balance integer, branch integer)",
    "create index accounts_k on accounts (k)",
]
READ = "select k, owner, balance, branch from accounts where k = ?"


class Bench:
    """A durable database with 100 accounts, the translated program and
    a connection, context, cursor and prepared read over it."""

    def __init__(self, tmp_path):
        exemplar = repro.Database(name="call_counts_exemplar")
        session = exemplar.create_session(autocommit=True)
        for statement in DDL:
            session.execute(statement)
        source = tmp_path / "bank.psqlj"
        source.write_text(PROGRAM)
        translation = Translator(
            TranslationOptions(exemplar=exemplar)
        ).translate_file(str(source), output_dir=str(tmp_path / "gen"))
        self.module_path = translation.module_path
        spec = importlib.util.spec_from_file_location(
            "call_counts_bank", self.module_path
        )
        self.module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.module)
        self.database = repro.open_database(str(tmp_path / "data"))
        self.connection = repro.DriverManager.get_connection(
            "pydbc:standard:call_counts", database=self.database
        )
        self.cursor = self.connection.cursor()
        for statement in DDL:
            self.cursor.execute(statement)
        self.cursor.executemany(
            "insert into accounts values (?, ?, ?, ?)",
            [[k, f"owner{k}", k * 10, k % 7] for k in range(100)],
        )
        self.context = repro.ConnectionContext(self.connection)
        self.session = self.connection.session
        self.prepared = self.connection.prepare_statement(READ)

    def count(self, operation):
        """Calls the third run of ``operation`` makes, counted as the
        module docstring says, and its result."""
        operation()
        operation()
        calls = 0
        module_path = self.module_path

        def profile(frame, event, _arg):
            nonlocal calls
            if event == "call":
                filename = frame.f_code.co_filename
                if (
                    filename.startswith(PACKAGE)
                    or filename == "<generated>"
                    or filename == module_path
                ):
                    calls += 1

        sys.setprofile(profile)
        try:
            result = operation()
        finally:
            sys.setprofile(None)
        return calls, result

    def close(self):
        self.context.close()
        self.connection.close()
        self.database.close()


@pytest.fixture
def bench(tmp_path):
    bench = Bench(tmp_path)
    yield bench
    bench.close()


def test_a_cached_point_select_through_session_execute(bench):
    calls, result = bench.count(lambda: bench.session.execute(READ, [5]))
    assert result.rows == [[5, "owner5", 50, 5]]
    assert calls <= 30


def test_a_sqlj_point_read_through_a_named_iterator(bench):
    calls, rows = bench.count(
        lambda: bench.module.read_account(bench.context, 5)
    )
    assert rows == [(5, "owner5", 50, 5)]
    assert calls <= 55


def test_a_dbapi_cursor_read_with_fetchall(bench):
    calls, rows = bench.count(
        lambda: bench.cursor.execute(READ, [5]).fetchall()
    )
    assert rows == [(5, "owner5", 50, 5)]
    assert calls <= 40


def test_a_prepared_select_with_one_fetch(bench):
    def read():
        bench.prepared.set_int(1, 5)
        result_set = bench.prepared.execute_query()
        result_set.next()
        return result_set.get_int(3)

    calls, balance = bench.count(read)
    assert balance == 50
    assert calls <= 40


def test_a_sqlj_keyed_update(bench):
    calls, count = bench.count(
        lambda: bench.module.deposit(bench.context, 5, 1)
    )
    assert count == 1
    assert calls <= 81
    assert bench.session.execute(
        "select balance from accounts where k = 5"
    ).rows == [[53]]


def test_a_sqlj_autocommit_insert(bench):
    keys = iter(range(1000, 1003))
    calls, count = bench.count(
        lambda: bench.module.open_account(
            bench.context, next(keys), "new", 0, 1
        )
    )
    assert count == 1
    assert calls <= 82
    assert bench.session.execute(
        "select owner from accounts where k = 1002"
    ).rows == [["new"]]


def test_a_dbapi_keyed_delete(bench):
    keys = iter(range(10, 13))
    calls, cursor = bench.count(
        lambda: bench.cursor.execute(
            "delete from accounts where k = ?", [next(keys)]
        )
    )
    assert cursor.rowcount == 1
    assert calls <= 75
    assert bench.session.execute(
        "select count(*) from accounts where k between 10 and 12"
    ).rows == [[0]]


def test_an_executemany_insert_per_row(bench):
    batches = iter(range(1, 4))

    def insert():
        base = 1000 * next(batches)
        bench.cursor.executemany(
            "insert into accounts values (?, ?, ?, ?)",
            [[base + k, "bulk", k, k % 7] for k in range(100)],
        )
        return bench.cursor.rowcount

    calls, rowcount = bench.count(insert)
    assert rowcount == 100
    assert calls / 100 <= 10.76
    assert bench.session.execute(
        "select count(*) from accounts where owner = 'bulk'"
    ).rows == [[300]]
