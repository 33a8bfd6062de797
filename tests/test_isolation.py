"""Isolation-anomaly battery for MVCC snapshot isolation.

Each classic anomaly gets a seeded, deterministic scenario asserting
the *exact* outcome snapshot isolation promises: dirty reads, non-
repeatable reads, phantoms and lost updates are impossible; write-write
conflicts resolve first-committer-wins with SQLSTATE 40001 for the
loser; readers never block writers and writers never block readers.

Every scenario runs four ways — against in-process engine sessions
(pure in-memory; durable on a directory migrated from a whole-database
``snapshot.db`` checkpoint; durable on a fresh directory) and over
``repro://`` through the network server — behind one small harness
facade, proving the guarantees survive the wire protocol and the
durable store unchanged (the paper's location transparency, applied
to transaction semantics).  The durable modes use a tiny checkpoint
interval so LSM flushes actually interleave with the battery.  Each
way runs twice more with
``accounts_id`` indexed (the ``-indexed`` ids), so the keyed UPDATEs
find their rows by index probe instead of a heap scan.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro import errors
from repro.engine.database import Database
from repro.engine.durability import open_database
from repro.procedures import build_par
from repro.server import ReproServer
from repro.testing import retry_serialization, run_concurrent
from tests.legacy_formats import write_snapshot_dir


# ---------------------------------------------------------------------------
# harness: one facade over engine sessions and remote connections
# ---------------------------------------------------------------------------


class EngineHandle:
    def __init__(self, session):
        self.session = session

    def execute(self, sql, params=()):
        result = self.session.execute(sql, params)
        return [list(row) for row in result.rows]

    def commit(self):
        self.session.commit()

    def rollback(self):
        self.session.rollback()

    def close(self):
        self.session.close()


class RemoteHandle:
    def __init__(self, connection):
        self.connection = connection
        self.statement = connection.create_statement()

    def execute(self, sql, params=()):
        if params:
            prepared = self.connection.prepare_statement(sql)
            for position, value in enumerate(params, start=1):
                prepared.set_object(position, value)
            if not prepared.execute():
                return []
            rows = self._drain(prepared.get_result_set())
            prepared.close()
            return rows
        if not self.statement.execute(sql):
            return []
        return self._drain(self.statement.get_result_set())

    @staticmethod
    def _drain(result_set):
        width = result_set.get_meta_data().get_column_count()
        rows = []
        while result_set.next():
            rows.append(
                [result_set.get_object(i) for i in range(1, width + 1)]
            )
        return rows

    def commit(self):
        self.connection.commit()

    def rollback(self):
        self.connection.rollback()

    def close(self):
        self.connection.close()


class Harness:
    """Opens transactional handles against one shared database."""

    def __init__(
        self, mode, server=None, name="iso",
        directory=None, storage="snapshot", indexed=False,
    ):
        self.mode = mode
        self.indexed = indexed
        self.server = server
        self.name = name
        if mode == "engine":
            self.database = Database(name=name)
        elif mode == "durable":
            if storage == "snapshot":
                write_snapshot_dir(directory, Database(name=name))
            # checkpoint_interval=8: memtable flushes interleave with
            # the anomaly scenarios instead of only firing at close.
            self.database = open_database(
                directory, name=name, storage=storage,
                sync=False, checkpoint_interval=8,
            )
        else:
            self.database = None

    def open(self, autocommit=False):
        if self.database is not None:
            session = self.database.create_session(
                "dba", autocommit=autocommit
            )
            handle = EngineHandle(session)
        else:
            url = f"repro://127.0.0.1:{self.server.port}/{self.name}"
            connection = repro.connect(url)
            connection.set_auto_commit(autocommit)
            handle = RemoteHandle(connection)
        handle.indexed = self.indexed
        return handle

    def close(self):
        if self.database is not None:
            self.database.close()


@pytest.fixture(params=[
    pytest.param((way, indexed), id=way + ("-indexed" if indexed else ""))
    for indexed in (False, True)
    for way in ("engine", "engine-snapshot", "engine-lsm", "remote")
])
def iso(request, tmp_path):
    way, indexed = request.param
    if way == "engine":
        harness = Harness("engine", indexed=indexed)
        yield harness
        harness.close()
    elif way.startswith("engine-"):
        harness = Harness(
            "durable",
            directory=str(tmp_path / "iso"),
            storage=way.split("-", 1)[1],
            indexed=indexed,
        )
        yield harness
        harness.close()
    else:
        server = ReproServer().start_background()
        harness = Harness(
            "remote", server=server, name=f"iso_{request.node.name}",
            indexed=indexed,
        )
        try:
            yield harness
        finally:
            server.stop_background()


def seed_accounts(handle):
    handle.execute(
        "create table accounts (id int primary key, balance int)"
    )
    if handle.indexed:
        handle.execute("create index accounts_id on accounts (id)")
    handle.execute("insert into accounts values (1, 100), (2, 200)")
    handle.commit()


def balances(handle):
    return handle.execute(
        "select id, balance from accounts order by id"
    )


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------


class TestDirtyRead:
    def test_uncommitted_update_is_invisible(self, iso):
        setup = iso.open()
        seed_accounts(setup)
        writer = iso.open()
        reader = iso.open()
        writer.execute("update accounts set balance = 999 where id = 1")
        # The reader's snapshot must show the committed value, not the
        # in-flight one — and reading must not block on the writer.
        assert balances(reader) == [[1, 100], [2, 200]]
        writer.rollback()
        reader.rollback()
        assert balances(setup) == [[1, 100], [2, 200]]
        for handle in (setup, writer, reader):
            handle.close()

    def test_uncommitted_insert_is_invisible(self, iso):
        setup = iso.open()
        seed_accounts(setup)
        writer = iso.open()
        reader = iso.open()
        writer.execute("insert into accounts values (3, 300)")
        assert balances(reader) == [[1, 100], [2, 200]]
        # The writer sees its own uncommitted insert.
        assert balances(writer) == [[1, 100], [2, 200], [3, 300]]
        writer.rollback()
        assert balances(reader) == [[1, 100], [2, 200]]
        for handle in (setup, writer, reader):
            handle.close()


class TestNonRepeatableRead:
    def test_reread_returns_snapshot_value(self, iso):
        setup = iso.open()
        seed_accounts(setup)
        reader = iso.open()
        writer = iso.open(autocommit=True)
        first = balances(reader)  # pins the reader's snapshot
        writer.execute("update accounts set balance = 150 where id = 1")
        # A new transaction sees the committed change...
        fresh = iso.open()
        assert balances(fresh) == [[1, 150], [2, 200]]
        # ...but the pinned snapshot rereads the original value.
        assert balances(reader) == first == [[1, 100], [2, 200]]
        reader.commit()
        assert balances(reader) == [[1, 150], [2, 200]]
        for handle in (setup, reader, writer, fresh):
            handle.close()


class TestPhantom:
    def test_predicate_reread_sees_no_phantom(self, iso):
        setup = iso.open()
        seed_accounts(setup)
        reader = iso.open()
        writer = iso.open(autocommit=True)
        count_sql = (
            "select count(*) from accounts where balance >= 100"
        )
        assert reader.execute(count_sql) == [[2]]
        writer.execute("insert into accounts values (3, 300)")
        writer.execute("update accounts set balance = 400 where id = 1")
        # Neither the new matching row nor the updated one leaks into
        # the open snapshot.
        assert reader.execute(count_sql) == [[2]]
        assert balances(reader) == [[1, 100], [2, 200]]
        reader.commit()
        assert reader.execute(count_sql) == [[3]]
        for handle in (setup, reader, writer):
            handle.close()


class TestLostUpdate:
    def test_second_writer_gets_40001(self, iso):
        """Read-modify-write on a pinned snapshot: the first committer
        wins, the second writer fails with SQLSTATE 40001 rather than
        silently overwriting."""
        setup = iso.open()
        seed_accounts(setup)
        first = iso.open()
        second = iso.open()
        # Both transactions read (pinning their snapshots)...
        assert balances(first)[0] == [1, 100]
        assert balances(second)[0] == [1, 100]
        # ...the first updates and commits...
        first.execute(
            "update accounts set balance = balance + 10 where id = 1"
        )
        first.commit()
        # ...so the second's conflicting update must fail, retryably.
        with pytest.raises(errors.SerializationFailureError) as info:
            second.execute(
                "update accounts set balance = balance + 5 where id = 1"
            )
            second.commit()
        assert info.value.sqlstate == "40001"
        second.rollback()
        # The committed outcome is exactly the first writer's update.
        assert balances(setup)[0] == [1, 110]
        for handle in (setup, first, second):
            handle.close()

    def test_retry_loop_recovers_both_updates(self, iso):
        setup = iso.open()
        seed_accounts(setup)
        second = iso.open()

        def transfer():
            [[balance]] = second.execute(
                "select balance from accounts where id = 1"
            )
            if balance == 100:
                # Only on the first attempt: a rival commits in the
                # middle of our read-modify-write.
                rival = iso.open()
                rival.execute(
                    "update accounts set balance = balance + 10 "
                    "where id = 1"
                )
                rival.commit()
                rival.close()
            second.execute(
                "update accounts set balance = ? where id = 1",
                (balance + 5,),
            )
            second.commit()

        retry_serialization(transfer, on_failure=second.rollback)
        # Both increments survive: 100 + 10 (rival) + 5 (retried).
        assert balances(setup)[0] == [1, 115]
        for handle in (setup, second):
            handle.close()


class TestFirstCommitterWins:
    def test_concurrent_claims_one_wins(self, iso):
        """Two transactions race to update the same row with pinned
        snapshots: exactly one commits, the loser gets 40001 while the
        winner's value is the committed outcome."""
        setup = iso.open()
        seed_accounts(setup)

        gate = threading.Barrier(2, timeout=30)

        def contender(index):
            handle = iso.open()
            try:
                balances(handle)  # pin the snapshot
                gate.wait()
                handle.execute(
                    "update accounts set balance = ? where id = 2",
                    (1000 + index,),
                )
                handle.commit()
                return 1000 + index
            except errors.SerializationFailureError as exc:
                assert exc.sqlstate == "40001"
                handle.rollback()
                return None
            finally:
                handle.close()

        outcome = run_concurrent(2, contender, barrier=True)
        outcome.raise_first()
        winners = [value for value in outcome.values if value is not None]
        assert len(winners) == 1
        assert balances(setup)[1] == [2, winners[0]]
        setup.close()


class TestReadersAndWritersDontBlock:
    def test_reader_completes_while_writer_holds_claims(self, iso):
        setup = iso.open()
        seed_accounts(setup)
        writer = iso.open()
        writer.execute("update accounts set balance = 0 where id = 1")

        finished = threading.Event()

        def read():
            reader = iso.open()
            try:
                assert balances(reader) == [[1, 100], [2, 200]]
            finally:
                reader.rollback()
                reader.close()
            finished.set()

        thread = threading.Thread(target=read)
        thread.start()
        thread.join(timeout=10)
        assert finished.is_set(), "reader blocked behind a writer"
        writer.rollback()
        for handle in (setup, writer):
            handle.close()

    def test_writer_commits_while_reader_snapshot_open(self, iso):
        setup = iso.open()
        seed_accounts(setup)
        reader = iso.open()
        assert balances(reader) == [[1, 100], [2, 200]]

        finished = threading.Event()

        def write():
            writer = iso.open()
            try:
                writer.execute(
                    "update accounts set balance = 500 where id = 2"
                )
                writer.commit()
            finally:
                writer.close()
            finished.set()

        thread = threading.Thread(target=write)
        thread.start()
        thread.join(timeout=10)
        assert finished.is_set(), "writer blocked behind a reader"
        # The open snapshot still reads the old state.
        assert balances(reader) == [[1, 100], [2, 200]]
        reader.commit()
        assert balances(reader) == [[1, 100], [2, 500]]
        for handle in (setup, reader):
            handle.close()


# ---------------------------------------------------------------------------
# a shared plan runs on the session executing it
# ---------------------------------------------------------------------------
#
# The plan cache shares one compiled plan among every session of a user
# (two repro:// connections included), so nothing compiled into it may
# keep the session that planned it: a subquery or an external function
# must read through the executing session's snapshot.

U_COUNT = '''
from repro import DriverManager


def u_count():
    conn = DriverManager.get_connection("DBAPI:DEFAULT:CONNECTION")
    result = conn.create_statement().execute_query("SELECT COUNT(*) FROM u")
    result.next()
    return result.get_int(1)
'''

#: name: a query whose second column counts the rows of ``u`` it sees
SHARED_PLAN_QUERIES = {
    "scalar": "select k, (select count(*) from u) from t",
    "exists": "select k, case when exists (select 1 from u) "
              "then 1 else 0 end from t",
    "in": "select k, case when k in (select k from u) "
          "then 1 else 0 end from t",
    "function": "select k, u_count() from t",
}


@pytest.fixture(params=["engine", "remote"])
def shared(request, tmp_path):
    """A harness over one database with ``t`` = {1}, an empty ``u`` and
    the ``u_count()`` function, in process or behind ``repro://``."""
    par = build_par(str(tmp_path / "count.par"), {"count_routines": U_COUNT})
    server = None
    if request.param == "engine":
        harness = Harness("engine")
        harness.served = harness.database
    else:
        server = ReproServer().start_background()
        harness = Harness(
            "remote", server=server, name=f"shared_{request.node.name}"
        )
        harness.served = repro.registry.get_or_create(
            harness.name, "standard"
        )
    admin = harness.open(autocommit=True)
    for sql in (
        f"call sqlj.install_par('{par}', 'cnt')",
        "create table t (k int)",
        "create table u (k int)",
        "insert into t values (1)",
        "create function u_count() returns integer reads sql data "
        "external name 'cnt:count_routines.u_count' "
        "language python parameter style python",
    ):
        admin.execute(sql)
    admin.close()
    try:
        yield harness
    finally:
        if server is not None:
            server.stop_background()


def _open(harness, autocommit=False):
    """A handle, the engine session serving it and its database."""
    database = harness.served
    before = set(database.sessions)
    handle = harness.open(autocommit=autocommit)
    handle.execute("select 1")  # a remote session exists once it ran
    [session] = set(database.sessions) - before
    return handle, session, database


@pytest.mark.parametrize("query", list(SHARED_PLAN_QUERIES))
def test_planned_by_writer_runs_on_reader(shared, query):
    """The uncommitted writer plans the text; a reader's cache hit must
    not read through the writer's transaction (a dirty read)."""
    sql = SHARED_PLAN_QUERIES[query]
    writer, _session, _db = _open(shared)
    reader, _session, _db = _open(shared, autocommit=True)
    writer.execute("insert into u values (1)")
    assert writer.execute(sql) == [[1, 1]]
    assert reader.execute(sql) == [[1, 0]]
    writer.rollback()
    for handle in (writer, reader):
        handle.close()


@pytest.mark.parametrize("query", list(SHARED_PLAN_QUERIES))
def test_planned_by_reader_runs_on_writer(shared, query):
    """The other order: a writer whose text another session planned
    still sees its own uncommitted row."""
    sql = SHARED_PLAN_QUERIES[query]
    writer, _session, _db = _open(shared)
    reader, _session, _db = _open(shared, autocommit=True)
    assert reader.execute(sql) == [[1, 0]]
    writer.execute("insert into u values (1)")
    assert writer.execute(sql) == [[1, 1]]
    writer.rollback()
    for handle in (writer, reader):
        handle.close()


@pytest.mark.parametrize("query", list(SHARED_PLAN_QUERIES))
def test_closed_planning_session_stays_closed(shared, query):
    """A cache hit after the planning session closed neither reads
    through it nor begins a snapshot on it that would pin the vacuum
    horizon for good."""
    sql = SHARED_PLAN_QUERIES[query]
    planner, planning_session, database = _open(shared, autocommit=True)
    assert planner.execute(sql) == [[1, 0]]
    planner.close()
    deadline = time.monotonic() + 10.0
    while not planning_session.closed and time.monotonic() < deadline:
        time.sleep(0.001)
    assert planning_session.closed
    writer, _session, _db = _open(shared, autocommit=True)
    writer.execute("insert into u values (1)")
    reader, _session, _db = _open(shared, autocommit=True)
    assert reader.execute(sql) == [[1, 1]]
    assert not planning_session.in_transaction
    assert database.transactions.oldest_visible_seq() \
        == database.transactions.commit_seq
    for handle in (writer, reader):
        handle.close()
