"""One lock regime for a routine body: a user CALL holds the engine lock
shared, as a function under a SELECT does.

* Two CALLs run at once: their bodies meet at a two-party barrier.
* A ``sqlj.*`` CALL still takes the lock exclusively, so one issued
  while a user CALL is in flight waits for it.
* DDL or a ``sqlj.*`` CALL from a routine body is refused with SQLSTATE
  38003 (the lock is never upgraded) — from a CALL, from a function in
  a SELECT and from a customized profile entry; the calling statement
  rolls back and the session goes on.
* A routine body's write conflict fails at once with 40001: its caller
  holds the lock, so waiting on the claim could only end at
  ``lock_timeout`` while a queued writer held up the blocker's COMMIT.
* Many CALLs incrementing one row at once lose no update.
* A routine body may not end its caller's transaction: COMMIT and
  ROLLBACK, as SQL or as ``Connection.commit()``/``rollback()`` on the
  default connection, raise SQLSTATE 2D000 from a CALL, from a
  function in a SELECT and from a customized profile entry.  The
  calling statement rolls back and the session goes on; on a durable
  database the caller's own COMMIT is durable and checkpoints.  So do
  RELEASE and ROLLBACK TO of a savepoint the body did not create; one
  it creates it may end itself.
* A COMMIT statement leaves the checkpoint it makes due to the next
  commit, which runs with no lock held.

The SQL cases run in process and over ``repro://``; the checkpoint
case opens a durable database in process.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro
from repro import errors, registry
from repro.observability import snapshot
from repro.procedures import build_par
from repro.profiles.customization import ConnectedProfile
from repro.profiles.customizer import customize_profile
from repro.profiles.model import EntryInfo, Profile
from repro.server import ReproServer
from repro.testing import retry_serialization, run_concurrent

TIMEOUT = 15.0

LOCK_ROUTINES = '''
import threading
import time

from repro import DriverManager

#: Two bodies meet here, which they can only do while both run.
BARRIER = threading.Barrier(2, timeout=5)
#: When each rendezvous body finished, as its last act.
FINISHED = []


def rendezvous():
    BARRIER.wait()
    FINISHED.append(time.monotonic())


def run_sql(sql):
    statement = DriverManager.get_connection(
        "DBAPI:DEFAULT:CONNECTION"
    ).create_statement()
    statement.execute("INSERT INTO audit VALUES (1)")
    statement.execute(sql)


def run_sql_fn(sql):
    run_sql(sql)
    return 1


def run_sqls(sqls):
    statement = DriverManager.get_connection(
        "DBAPI:DEFAULT:CONNECTION"
    ).create_statement()
    for sql in sqls.split(";"):
        statement.execute(sql)


def run_sqls_fn(sqls):
    run_sqls(sqls)
    return 1


def end_txn(how):
    connection = DriverManager.get_connection("DBAPI:DEFAULT:CONNECTION")
    connection.create_statement().execute("INSERT INTO audit VALUES (1)")
    getattr(connection, how)()


def end_txn_fn(how):
    end_txn(how)
    return 1


def bump(k):
    conn = DriverManager.get_connection("DBAPI:DEFAULT:CONNECTION")
    stmt = conn.prepare_statement("UPDATE t SET v = v + 1 WHERE k = ?")
    stmt.set_int(1, k)
    stmt.execute_update()
    return 1
'''

SETUP = [
    "create table t (k int primary key, v int)",
    "create table audit (k int)",
    "create table one (x int)",
    "insert into t values (1, 0)",
    "insert into one values (1)",
    "create procedure rendezvous() modifies sql data "
    "external name 'p:lock_routines.rendezvous' "
    "language python parameter style python",
    "create procedure run_sql(s varchar(200)) modifies sql data "
    "external name 'p:lock_routines.run_sql' "
    "language python parameter style python",
    "create function run_sql_fn(s varchar(200)) returns integer "
    "modifies sql data external name 'p:lock_routines.run_sql_fn' "
    "language python parameter style python",
    "create procedure run_sqls(s varchar(200)) modifies sql data "
    "external name 'p:lock_routines.run_sqls' "
    "language python parameter style python",
    "create function run_sqls_fn(s varchar(200)) returns integer "
    "modifies sql data external name 'p:lock_routines.run_sqls_fn' "
    "language python parameter style python",
    "create procedure end_txn(how varchar(20)) modifies sql data "
    "external name 'p:lock_routines.end_txn' "
    "language python parameter style python",
    "create function end_txn_fn(how varchar(20)) returns integer "
    "modifies sql data external name 'p:lock_routines.end_txn_fn' "
    "language python parameter style python",
    "create function bump(k integer) returns integer modifies sql data "
    "external name 'p:lock_routines.bump' "
    "language python parameter style python",
    "create procedure incr(k integer) modifies sql data "
    "external name 'p:lock_routines.bump' "
    "language python parameter style python",
]


class Env:
    """One database with the routines above, reached in process or
    through a ``repro://`` server; ``open`` hands out sessions (an
    engine ``Session`` or a ``RemoteSession``)."""

    def __init__(self, url, name, par):
        self.url = url
        self.par = par
        self.database = registry.get_or_create(name, "standard")
        self.connections = []

    def open(self, autocommit=True):
        connection = repro.connect(self.url)
        connection.set_auto_commit(autocommit)
        self.connections.append(connection)
        return connection.session

    def routines(self):
        """The routines' module, as the database loaded it."""
        par = self.database.catalog.get_par("p")
        return self.database.par_loader.load_module(par, "lock_routines")

    def barrier(self):
        return self.routines().BARRIER

    def close(self):
        for connection in self.connections:
            connection.close()


@pytest.fixture(params=["engine", "remote"])
def env(request, tmp_path):
    par = build_par(
        str(tmp_path / "lock.par"), {"lock_routines": LOCK_ROUTINES}
    )
    name = f"locking_{request.param}"
    server = None
    if request.param == "engine":
        url = f"pydbc:standard:{name}"
    else:
        server = ReproServer().start_background()
        url = f"repro://127.0.0.1:{server.port}/{name}"
    environment = Env(url, name, par)
    admin = environment.open()
    admin.execute(f"call sqlj.install_par('{par}', 'p')")
    for statement in SETUP:
        admin.execute(statement)
    try:
        yield environment
    finally:
        environment.close()
        if server is not None:
            server.stop_background()


def _in_thread(target):
    """Run ``target`` in a thread; ``outcome`` gets its result or error,
    then the time it finished."""
    outcome = []

    def run():
        try:
            outcome.append(target())
        except Exception as exc:  # noqa: BLE001 - asserted by the test
            outcome.append(exc)
        outcome.append(time.monotonic())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def _join(*threads):
    for thread in threads:
        thread.join(TIMEOUT)
        assert not thread.is_alive(), "a statement hung"


def _wait_until(condition):
    deadline = time.monotonic() + TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


# ---------------------------------------------------------------------------
# a user CALL runs shared, a sqlj.* CALL exclusive
# ---------------------------------------------------------------------------


def test_two_calls_run_at_once(env):
    first, second = env.open(), env.open()
    calls = [
        _in_thread(lambda s=session: s.execute("call rendezvous()").kind)
        for session in (first, second)
    ]
    _join(*(thread for thread, _outcome in calls))
    assert [outcome[0] for _thread, outcome in calls] == ["call", "call"]


def test_a_system_call_waits_for_a_call_in_flight(env):
    barrier = env.barrier()
    finished = env.routines().FINISHED  # before the replace reloads it
    caller, admin = env.open(), env.open()
    call, call_outcome = _in_thread(
        lambda: caller.execute("call rendezvous()").kind
    )
    _wait_until(lambda: barrier.n_waiting == 1)  # the body is running
    replace, replace_outcome = _in_thread(lambda: admin.execute(
        f"call sqlj.replace_par('{env.par}', 'p')"
    ).kind)
    _wait_until(lambda: env.database.lock._waiting_writers == 1)
    time.sleep(0.05)
    assert not replace_outcome  # queued behind the shared hold
    barrier.wait()  # let the body finish
    _join(call, replace)
    assert call_outcome[0] == replace_outcome[0] == "call"
    # The body's last act happened under the CALL's shared hold, which
    # the replace had to wait out.  (The two threads' reply stamps are
    # no witness: the replace may stamp its reply first.)
    assert len(finished) == 1
    assert finished[0] <= replace_outcome[1]


def test_concurrent_calls_lose_no_update(env):
    """Eight sessions (more than the cores) CALL a procedure that
    increments one row, with a short switch interval: the bodies run
    at once, their UPDATEs serialise through the row claim, a nested
    conflict's 40001 retries the CALL, and no increment is lost."""
    workers, calls = 8, 15
    sessions = [env.open() for _ in range(workers)]

    def work(index):
        session = sessions[index]
        for _ in range(calls):
            retry_serialization(
                lambda: session.execute("call incr(1)"),
                attempts=10_000, on_failure=lambda: time.sleep(0.0005),
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_concurrent(workers, work, timeout=TIMEOUT * 4).raise_first()
    finally:
        sys.setswitchinterval(interval)
    assert sessions[0].execute("select v from t").rows == [
        [workers * calls]
    ]


# ---------------------------------------------------------------------------
# DDL or a sqlj.* CALL from a routine body: 38003
# ---------------------------------------------------------------------------

PROHIBITED = {
    "ddl": "create table u (a int)",
    "sqlj_call": "call sqlj.alter_module_path('p', 'p')",
}


def _via_profile(session, sql, params):
    profile = Profile(name="locking_profile", context_type="Default")
    profile.data.add(EntryInfo(index=0, sql=sql, role="STATEMENT"))
    customize_profile(profile, "standard")
    return ConnectedProfile(profile, session).execute(0, params)


CALLERS = {
    "call": lambda s, sql: s.execute("call run_sql(?)", [sql]),
    "select": lambda s, sql: s.execute(
        "select run_sql_fn(?) from one", [sql]
    ),
    "profile": lambda s, sql: _via_profile(s, "call run_sql(?)", [sql]),
}


@pytest.mark.parametrize("autocommit", [True, False], ids=["auto", "txn"])
@pytest.mark.parametrize("caller", list(CALLERS))
@pytest.mark.parametrize("inner", list(PROHIBITED))
def test_a_routine_body_may_not_take_the_lock_exclusively(
    env, inner, caller, autocommit
):
    session = env.open(autocommit=autocommit)
    if not autocommit:
        session.execute("insert into audit values (0)")
    with pytest.raises(errors.SQLException) as excinfo:
        CALLERS[caller](session, PROHIBITED[inner])
    assert excinfo.value.sqlstate == "38003"
    # The body's INSERT rolled back with its caller; the session goes
    # on (an open transaction keeps its earlier statement).
    assert session.execute("select k from audit").rows == (
        [] if autocommit else [[0]]
    )
    assert session.execute("select v from t").rows == [[0]]
    if not autocommit:
        session.commit()
    assert "u" not in env.database.catalog.tables
    assert env.database.catalog.get_par("p").path == []
    assert env.database.lock.reader_count() == 0


# ---------------------------------------------------------------------------
# a nested write conflict fails at once
# ---------------------------------------------------------------------------


def test_a_nested_write_conflict_does_not_wait(env):
    """Session A's function updates a row session B claimed, while a
    DDL statement queues for the lock: A fails at once with 40001
    instead of waiting (with the lock held) for B, whose COMMIT would
    wait behind the queued DDL until A's ``lock_timeout`` ran out."""
    blocker, caller, ddl = env.open(autocommit=False), env.open(), env.open()
    blocker.execute("update t set v = 100 where k = 1")
    waits = snapshot()["counters"].get("mvcc.conflict_waits", 0)
    started = time.monotonic()
    call, call_outcome = _in_thread(
        lambda: caller.execute("select bump(1) from one")
    )
    _wait_until(lambda: call_outcome or snapshot()["counters"].get(
        "mvcc.conflict_waits", 0) > waits)
    create, create_outcome = _in_thread(
        lambda: ddl.execute("create table z (a int)").kind
    )
    _wait_until(
        lambda: create_outcome or env.database.lock._waiting_writers
    )
    committing = time.monotonic()
    blocker.commit()
    commit_seconds = time.monotonic() - committing
    _join(call, create)
    error, finished = call_outcome
    assert isinstance(error, errors.SerializationFailureError)
    assert error.sqlstate == "40001"
    assert finished - started < 1.0  # lock_timeout is 10 s
    assert commit_seconds < 1.0
    assert create_outcome[0] == "ddl"
    assert caller.execute("select v from t").rows == [[100]]


# ---------------------------------------------------------------------------
# a routine body may not end its caller's transaction
# ---------------------------------------------------------------------------

#: How a body tries to end the transaction, and the routine doing it.
ENDINGS = {
    "commit": ("run_sql", "commit"),
    "rollback": ("run_sql", "rollback"),
    "connection_commit": ("end_txn", "commit"),
    "connection_rollback": ("end_txn", "rollback"),
}

ENDING_CALLERS = {
    "call": lambda s, routine, arg: s.execute(f"call {routine}(?)", [arg]),
    "select": lambda s, routine, arg: s.execute(
        f"select {routine}_fn(?) from one", [arg]
    ),
    "profile": lambda s, routine, arg: _via_profile(
        s, f"call {routine}(?)", [arg]
    ),
}


@pytest.mark.parametrize("autocommit", [True, False], ids=["auto", "txn"])
@pytest.mark.parametrize("caller", list(ENDING_CALLERS))
@pytest.mark.parametrize("ending", list(ENDINGS))
def test_a_routine_body_may_not_end_its_callers_transaction(
    env, ending, caller, autocommit
):
    session = env.open(autocommit=autocommit)
    if not autocommit:
        session.execute("insert into audit values (0)")
    routine, arg = ENDINGS[ending]
    with pytest.raises(errors.SQLException) as excinfo:
        ENDING_CALLERS[caller](session, routine, arg)
    assert excinfo.value.sqlstate == "2D000"
    # The body's INSERT rolled back with its caller, and the caller's
    # transaction is intact: its own row is still pending.
    assert session.execute("select k from audit").rows == (
        [] if autocommit else [[0]]
    )
    if not autocommit:
        session.rollback()
        assert session.execute("select k from audit").rows == []
    assert env.database.lock.reader_count() == 0


#: A body releasing or rolling back to a savepoint of its caller's.
SAVEPOINT_ENDINGS = {
    "release": "release savepoint sp",
    "rollback_to": "rollback to savepoint sp",
}


@pytest.mark.parametrize("caller", ["call", "select"])
@pytest.mark.parametrize("ending", list(SAVEPOINT_ENDINGS))
def test_a_routine_body_may_not_end_its_callers_savepoint(
    env, ending, caller
):
    session = env.open(autocommit=False)
    session.execute("insert into audit values (0)")
    session.execute("savepoint sp")
    session.execute("insert into audit values (2)")
    with pytest.raises(errors.SQLException) as excinfo:
        ENDING_CALLERS[caller](session, "run_sql", SAVEPOINT_ENDINGS[ending])
    assert excinfo.value.sqlstate == "2D000"
    # The body's INSERT rolled back with its caller; the caller's
    # savepoint, and its writes on both sides of it, are intact.
    assert session.execute("select k from audit order by k").rows == [
        [0], [2]
    ]
    session.execute("rollback to savepoint sp")
    assert session.execute("select k from audit").rows == [[0]]
    session.execute("release savepoint sp")
    session.rollback()
    assert session.execute("select k from audit").rows == []
    assert env.database.lock.reader_count() == 0


@pytest.mark.parametrize("caller", ["call", "select"])
def test_a_routine_body_ends_its_own_savepoint(env, caller):
    session = env.open(autocommit=False)
    session.execute("savepoint sp")
    ENDING_CALLERS[caller](session, "run_sqls", ";".join([
        "insert into audit values (3)", "savepoint mine",
        "insert into audit values (4)", "rollback to savepoint mine",
        "release savepoint mine",
    ]))
    assert session.execute("select k from audit").rows == [[3]]
    with pytest.raises(errors.SQLException):
        session.execute("release savepoint mine")
    # The caller's own savepoint is still there.
    session.execute("rollback to savepoint sp")
    assert session.execute("select k from audit").rows == []
    session.rollback()


def test_a_commit_in_a_routine_body_is_refused_on_a_durable_database(
    tmp_path
):
    """A COMMIT in a routine body is refused and leaves the caller's
    transaction open, so nothing of it is durable or checkpointed until
    the caller commits; that COMMIT runs with no lock held and takes the
    checkpoint it makes due."""
    par = build_par(
        str(tmp_path / "lock.par"), {"lock_routines": LOCK_ROUTINES}
    )
    directory = str(tmp_path / "data")
    database = repro.open_database(directory, checkpoint_interval=1)
    try:
        admin = database.create_session(autocommit=True)
        admin.execute(f"call sqlj.install_par('{par}', 'p')")
        for statement in SETUP:
            admin.execute(statement)
        session = database.create_session()
        session.execute("insert into audit values (0)")  # a logged txn
        checkpoints = snapshot()["counters"]["wal.checkpoints"]
        with pytest.raises(errors.SQLException) as excinfo:
            session.execute("call run_sql('commit')")
        assert excinfo.value.sqlstate == "2D000"
        assert snapshot()["counters"]["wal.checkpoints"] == checkpoints
        assert admin.execute("select k from audit").rows == []
        session.commit()
        assert snapshot()["counters"]["wal.checkpoints"] == checkpoints + 1
        assert admin.execute("select k from audit").rows == [[0]]
    finally:
        database.close()
    reopened = repro.open_database(directory)
    try:
        assert reopened.create_session().execute(
            "select k from audit"
        ).rows == [[0]]
    finally:
        reopened.close()


def test_a_commit_statement_leaves_the_checkpoint_for_later(tmp_path):
    """A COMMIT statement runs under its envelope's shared hold, which
    the checkpoint it makes due cannot take: the commit is durable at
    once, and the next commit, with no lock held, checkpoints."""
    database = repro.open_database(
        str(tmp_path / "data"), checkpoint_interval=1
    )
    try:
        admin = database.create_session(autocommit=True)
        admin.execute("create table audit (k int)")
        session = database.create_session()
        session.execute("insert into audit values (0)")
        checkpoints = snapshot()["counters"]["wal.checkpoints"]
        assert session.execute("commit").kind == "ddl"
        assert snapshot()["counters"]["wal.checkpoints"] == checkpoints
        admin.execute("insert into audit values (1)")
        assert snapshot()["counters"]["wal.checkpoints"] == checkpoints + 1
        assert admin.execute("select k from audit order by k").rows \
            == [[0], [1]]
    finally:
        database.close()
