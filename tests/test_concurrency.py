"""Concurrency stress tests: locking, pooling, and fault injection.

These are the ISSUE-2 acceptance checks: a 16-thread mixed workload
with zero lost updates or torn reads, pool exhaustion surfacing as a
typed SQLSTATE timeout (never a hang), recycling of dead connections,
concurrent DDL vs DML, and deterministic fault replay.
"""

from __future__ import annotations

import threading

import pytest

from repro import errors
from repro.dbapi.driver import DriverManager
from repro.dbapi.pool import ConnectionPool
from repro.engine.indexes import Index
from repro import Database
from repro.observability import metrics as _metrics
from repro.testing import (
    FaultPlan,
    WorkloadGenerator,
    retry_serialization,
    run_concurrent,
)

N_THREADS = 16


@pytest.fixture
def pooled_db():
    db = Database(name="pooldb")
    admin = db.create_session(autocommit=True)
    yield db, admin
    admin.close()


class TestLostUpdates:
    def test_16_thread_counter_has_no_lost_updates(self, pooled_db):
        db, admin = pooled_db
        admin.execute("CREATE TABLE counter (n INTEGER)")
        admin.execute("INSERT INTO counter VALUES (0)")
        pool = ConnectionPool(db, max_size=8, timeout=30.0)
        increments = 25

        def bump(_thread_index):
            conn = pool.checkout(timeout=30.0)
            try:
                conn.session.execute("UPDATE counter SET n = n + 1")
            finally:
                conn.close()

        result = run_concurrent(
            N_THREADS, bump, repeat=increments
        ).raise_first()
        assert result.ok
        rows = admin.execute("SELECT n FROM counter").rows
        assert rows == [[N_THREADS * increments]]
        pool.close()

    def test_retry_helper_recovers_pinned_snapshot_conflicts(
        self, pooled_db
    ):
        """Explicit read-modify-write transactions pin their snapshot,
        so racing threads hit genuine 40001 serialization failures;
        :func:`repro.testing.retry_serialization` must absorb every one
        of them and still produce the exact serial count."""
        db, admin = pooled_db
        admin.execute("CREATE TABLE acct (id INTEGER, n INTEGER)")
        admin.execute("INSERT INTO acct VALUES (1, 0)")
        threads, increments = 8, 10

        def bump(_thread_index):
            session = db.create_session(autocommit=False)
            session.lock_timeout = 2.0
            try:
                for _ in range(increments):

                    def txn():
                        [[n]] = session.execute(
                            "SELECT n FROM acct WHERE id = 1"
                        ).rows
                        session.execute(
                            "UPDATE acct SET n = ? WHERE id = 1",
                            (n + 1,),
                        )
                        session.commit()

                    retry_serialization(
                        txn, attempts=200, on_failure=session.rollback
                    )
            finally:
                session.close()

        run_concurrent(threads, bump, timeout=120.0).raise_first()
        assert admin.execute("SELECT n FROM acct").rows == [
            [threads * increments]
        ]

    def test_concurrent_inserts_all_land(self, pooled_db):
        db, admin = pooled_db
        admin.execute("CREATE TABLE log (thread INTEGER, seq INTEGER)")
        pool = ConnectionPool(db, max_size=6, timeout=30.0)
        per_thread = 20

        def writer(i):
            for seq in range(per_thread):
                conn = pool.checkout(timeout=30.0)
                try:
                    conn.session.execute(
                        f"INSERT INTO log VALUES ({i}, {seq})"
                    )
                finally:
                    conn.close()

        run_concurrent(N_THREADS, writer).raise_first()
        rows = admin.execute("SELECT COUNT(*) FROM log").rows
        assert rows == [[N_THREADS * per_thread]]
        # Every (thread, seq) pair exactly once: no torn/duplicated writes.
        distinct = admin.execute(
            "SELECT COUNT(*) FROM log WHERE seq >= 0"
        ).rows
        assert distinct == [[N_THREADS * per_thread]]
        pool.close()


class TestUniqueUnderConcurrency:
    def test_duplicate_key_race_admits_exactly_one_row(self, pooled_db):
        """Unique check and heap append are one atomic step.

        All threads race to INSERT the same PRIMARY KEY value per
        round; without the check running under the table's mutation
        lock, two inserts could both scan before either appends and
        both commit a duplicate.  Exactly one row per key must land,
        every loser getting SQLSTATE 23505.
        """
        self._race(*pooled_db, indexed=False)

    def test_duplicate_key_race_on_the_key_index(self, pooled_db,
                                                 monkeypatch):
        """The same race when the unique check probes the key's index
        instead of scanning the heap."""
        probes = []
        lookup = Index.lookup
        monkeypatch.setattr(
            Index, "lookup",
            lambda index, values: probes.append(values)
            or lookup(index, values),
        )
        self._race(*pooled_db, indexed=True)
        assert probes

    def _race(self, db, admin, indexed):
        admin.execute(
            "CREATE TABLE reg (id INTEGER PRIMARY KEY, who INTEGER)"
        )
        if indexed:
            admin.execute("CREATE INDEX reg_id ON reg (id)")
            # Filler rows make each one-row INSERT a small batch into
            # a large heap: the side of the choice that probes.
            admin.execute_batch(
                "INSERT INTO reg VALUES (?, 0)",
                [[-1 - n] for n in range(N_THREADS)],
            )
        rounds = 10
        wins = []
        wins_lock = threading.Lock()

        def contender(i):
            session = db.create_session(autocommit=True)
            try:
                for key in range(rounds):
                    try:
                        session.execute(
                            f"INSERT INTO reg VALUES ({key}, {i})"
                        )
                        with wins_lock:
                            wins.append(key)
                    except errors.UniqueViolationError as exc:
                        assert exc.sqlstate == "23505"
            finally:
                session.close()

        run_concurrent(N_THREADS, contender).raise_first()
        assert sorted(wins) == list(range(rounds))
        assert admin.execute(
            "SELECT COUNT(*) FROM reg WHERE id >= 0"
        ).rows == [[rounds]]

    def test_check_and_append_atomic_under_injected_delay(self, pooled_db):
        """Deterministic replay of the unique-check TOCTOU window.

        The ``storage.insert`` fault site fires before the heap append;
        injecting a delay there held both racing inserts between a
        *non-atomic* unique scan and their appends, letting both pass
        the check and commit a duplicate key.  With the check running
        under the table's mutation lock the delay is harmless: exactly
        one row commits, the other insert fails with 23505.
        """
        db, admin = pooled_db
        admin.execute("CREATE TABLE slot (id INTEGER PRIMARY KEY)")
        plan = FaultPlan(seed=7).inject(
            "storage.insert", delay=0.05, times=2
        )
        outcomes = []
        outcomes_lock = threading.Lock()

        def contender(_i):
            session = db.create_session(autocommit=True)
            try:
                try:
                    session.execute("INSERT INTO slot VALUES (1)")
                    result = "ok"
                except errors.UniqueViolationError:
                    result = "dup"
                with outcomes_lock:
                    outcomes.append(result)
            finally:
                session.close()

        with plan.armed():
            run_concurrent(2, contender).raise_first()
        assert sorted(outcomes) == ["dup", "ok"]
        assert admin.execute("SELECT COUNT(*) FROM slot").rows == [[1]]


class TestTornReads:
    def test_readers_never_observe_partial_statement(self, pooled_db):
        """A single-statement flip keeps SUM(balance) = 100 invariant.

        ``UPDATE accounts SET balance = 100 - balance`` mutates both
        rows inside one exclusive-lock statement; shared-lock readers
        must never observe one row flipped and the other not.
        """
        db, admin = pooled_db
        admin.execute("CREATE TABLE accounts (id INTEGER, balance INTEGER)")
        admin.execute("INSERT INTO accounts VALUES (1, 30)")
        admin.execute("INSERT INTO accounts VALUES (2, 70)")
        sums = []
        sums_lock = threading.Lock()

        def worker(i):
            session = db.create_session(autocommit=True)
            try:
                for _ in range(40):
                    if i % 2 == 0:
                        session.execute(
                            "UPDATE accounts SET balance = 100 - balance"
                        )
                    else:
                        rows = session.execute(
                            "SELECT SUM(balance) FROM accounts"
                        ).rows
                        with sums_lock:
                            sums.append(rows[0][0])
            finally:
                session.close()

        run_concurrent(N_THREADS, worker).raise_first()
        assert sums, "reader threads observed nothing"
        assert set(sums) == {100}


class TestPoolLimits:
    def test_exhaustion_times_out_with_sqlstate(self, pooled_db):
        db, _admin = pooled_db
        pool = ConnectionPool(db, max_size=2, timeout=0.05)
        held = [pool.checkout(), pool.checkout()]
        with pytest.raises(errors.PoolTimeoutError) as excinfo:
            pool.checkout(timeout=0.05)
        assert excinfo.value.sqlstate == "08004"
        for conn in held:
            conn.close()
        # Capacity is back after the holders return.
        pool.checkout().close()
        pool.close()

    def test_waiter_gets_connection_when_one_frees(self, pooled_db):
        db, _admin = pooled_db
        pool = ConnectionPool(db, max_size=1, timeout=10.0)
        first = pool.checkout()
        release = threading.Timer(0.05, first.close)
        release.start()
        try:
            second = pool.checkout(timeout=10.0)  # must not time out
            second.close()
        finally:
            release.cancel()
        pool.close()

    def test_dead_connection_is_recycled(self, pooled_db):
        db, _admin = pooled_db
        pool = ConnectionPool(db, max_size=2)
        recycled_before = _metrics.registry.counter("pool.recycled").value
        conn = pool.checkout()
        conn.session.close()  # the connection "dies" while checked out
        conn.close()  # health check on return discards it
        assert (
            _metrics.registry.counter("pool.recycled").value
            == recycled_before + 1
        )
        # The slot is free again and the replacement session works.
        fresh = pool.checkout()
        assert fresh.session.execute("SELECT 1").rows == [[1]]
        fresh.close()
        assert pool.stats()["in_use"] == 0
        pool.close()

    def test_returned_transaction_is_rolled_back(self, pooled_db):
        db, admin = pooled_db
        admin.execute("CREATE TABLE t (a INTEGER)")
        pool = ConnectionPool(db, max_size=1, autocommit=False)
        conn = pool.checkout()
        conn.session.execute("INSERT INTO t VALUES (1)")
        conn.close()  # uncommitted work must not leak to the next client
        reused = pool.checkout()
        reused.session.autocommit = True
        assert reused.session.execute(
            "SELECT COUNT(*) FROM t"
        ).rows == [[0]]
        reused.close()
        pool.close()

    def test_returned_read_snapshot_is_released(self, pooled_db):
        """A manual-commit client that only read still holds a
        snapshot; checkin ends it, so the next client sees later
        commits and the vacuum horizon moves on."""
        db, admin = pooled_db
        admin.execute("CREATE TABLE t (a INTEGER)")
        admin.execute("INSERT INTO t VALUES (1)")
        pool = ConnectionPool(db, max_size=1, autocommit=False)
        first = pool.checkout()
        session = first.session
        assert session.execute("SELECT COUNT(*) FROM t").rows == [[1]]
        assert session.in_transaction
        first.close()
        assert not session.in_transaction
        admin.execute("INSERT INTO t VALUES (2)")
        second = pool.checkout()
        assert second.session is session
        assert session.execute("SELECT COUNT(*) FROM t").rows == [[2]]
        second.close()
        tm = db.transactions
        assert tm.oldest_visible_seq() == tm.commit_seq
        pool.close()


class TestPoolFaults:
    def test_checkout_fault_does_not_leak_slot(self, pooled_db):
        db, _admin = pooled_db
        pool = ConnectionPool(db, max_size=1, timeout=0.2)
        plan = FaultPlan(seed=3).inject(
            "pool.checkout",
            error=errors.ConnectionError_,
            times=1,
        )
        with plan.armed():
            with pytest.raises(errors.ConnectionError_):
                pool.checkout()
        assert plan.fired["pool.checkout"] == 1
        assert pool.stats()["in_use"] == 0
        # The single slot survived the injected failure.
        pool.checkout().close()
        pool.close()

    def test_checkin_pipe_can_kill_connection(self, pooled_db):
        db, _admin = pooled_db
        pool = ConnectionPool(db, max_size=2)

        def kill(session):
            session.close()
            return session

        plan = FaultPlan(seed=4).inject(
            "pool.checkin", corrupt=kill, times=1
        )
        recycled_before = _metrics.registry.counter("pool.recycled").value
        with plan.armed():
            pool.checkout().close()
        assert (
            _metrics.registry.counter("pool.recycled").value
            == recycled_before + 1
        )
        pool.checkout().close()  # pool still serves healthy sessions
        pool.close()


class TestConcurrentDDL:
    def test_ddl_races_dml_without_corruption(self, pooled_db):
        """CREATE/DROP on private tables races DML on a shared table.

        Any error must be a typed SQLException; afterwards the shared
        table's contents must equal exactly what the DML threads wrote.
        """
        db, admin = pooled_db
        admin.execute("CREATE TABLE shared (thread INTEGER)")
        sql_errors = []

        def ddl_worker(i):
            session = db.create_session(autocommit=True)
            try:
                for round_no in range(15):
                    name = f"scratch_{i}"
                    try:
                        session.execute(
                            f"CREATE TABLE {name} (a INTEGER)"
                        )
                        session.execute(
                            f"INSERT INTO {name} VALUES ({round_no})"
                        )
                        session.execute(f"DROP TABLE {name}")
                    except errors.SQLException as exc:
                        sql_errors.append(exc)
            finally:
                session.close()

        def dml_worker(i):
            session = db.create_session(autocommit=True)
            try:
                for _ in range(15):
                    session.execute(
                        f"INSERT INTO shared VALUES ({i})"
                    )
                    session.execute("SELECT COUNT(*) FROM shared")
            finally:
                session.close()

        ops = [
            (lambda i=i: ddl_worker(i)) if i < 4
            else (lambda i=i: dml_worker(i))
            for i in range(N_THREADS)
        ]
        run_concurrent(N_THREADS, ops).raise_first()
        rows = admin.execute("SELECT COUNT(*) FROM shared").rows
        assert rows == [[(N_THREADS - 4) * 15]]
        # DDL threads dropped everything they created.
        for i in range(4):
            with pytest.raises(errors.SQLException):
                admin.execute(f"SELECT * FROM scratch_{i}")


class TestMixedWorkloadUnderFaults:
    def test_16_thread_generated_workload_with_faults_never_hangs(
        self, pooled_db
    ):
        """Random faults across executor and storage sites surface as
        typed SQLExceptions; no thread hangs, and the database stays
        queryable afterwards."""
        db, admin = pooled_db
        gen = WorkloadGenerator(seed=11)
        admin.execute(gen.ddl())
        for stmt in gen.seed_statements(30):
            admin.execute(stmt)
        pool = ConnectionPool(db, max_size=8, timeout=30.0)
        plan = (
            FaultPlan(seed=11)
            .inject(
                "executor.run",
                error=errors.OperatorExecutionError,
                probability=0.05,
            )
            .inject(
                "storage.insert",
                error=errors.OperatorExecutionError,
                probability=0.05,
            )
            .inject("storage.update", delay=0.0005, probability=0.1)
        )
        workloads = [
            WorkloadGenerator(seed=100 + i).statements(30)
            for i in range(N_THREADS)
        ]
        foreign = []
        foreign_lock = threading.Lock()

        def worker(i):
            for stmt in workloads[i]:
                conn = pool.checkout(timeout=30.0)
                try:
                    conn.session.execute(stmt)
                except errors.SQLException:
                    pass  # injected or legitimate SQL error: fine
                except BaseException as exc:  # noqa: BLE001
                    with foreign_lock:
                        foreign.append(exc)
                finally:
                    conn.close()

        with plan.armed():
            result = run_concurrent(N_THREADS, worker, timeout=120.0)
        assert result.stragglers == 0, "a worker thread hung"
        assert not result.failures
        assert not foreign, f"non-SQL exceptions escaped: {foreign!r}"
        assert sum(plan.fired.values()) > 0, "no fault ever fired"
        # Engine is still consistent and serving.
        count = admin.execute("SELECT COUNT(*) FROM workload").rows
        assert count[0][0] >= 0
        pool.close()


class TestFaultReplay:
    def test_same_seed_same_failures(self):
        """A seeded probabilistic plan fails the same statements when
        replayed over the same single-threaded workload."""

        def run_once():
            db = Database(name="replaydb")
            session = db.create_session(autocommit=True)
            session.execute("CREATE TABLE r (a INTEGER)")
            plan = FaultPlan(seed=21).inject(
                "storage.insert",
                error=errors.OperatorExecutionError,
                probability=0.3,
            )
            failed = []
            with plan.armed():
                for i in range(50):
                    try:
                        session.execute(f"INSERT INTO r VALUES ({i})")
                    except errors.OperatorExecutionError:
                        failed.append(i)
            surviving = session.execute("SELECT COUNT(*) FROM r").rows
            session.close()
            return failed, surviving

        first_failed, first_rows = run_once()
        second_failed, second_rows = run_once()
        assert first_failed, "plan never fired at p=0.3 over 50 inserts"
        assert first_failed == second_failed
        assert first_rows == second_rows
        assert first_rows == [[50 - len(first_failed)]]

    def test_failed_statement_leaves_no_partial_row(self):
        db = Database(name="atomdb")
        session = db.create_session(autocommit=True)
        session.execute("CREATE TABLE a (x INTEGER)")
        plan = FaultPlan(seed=5).inject(
            "storage.insert",
            error=errors.OperatorExecutionError,
            after=1,
            times=1,
        )
        # Second insert of the same statement batch faults; the
        # statement-level undo mark must remove the first row too.
        with plan.armed():
            with pytest.raises(errors.OperatorExecutionError):
                session.execute("INSERT INTO a VALUES (1), (2)")
        assert session.execute("SELECT COUNT(*) FROM a").rows == [[0]]
        session.close()


class TestSharedPoolWiring:
    def test_pooled_contexts_share_one_pool(self, pooled_db):
        from repro import ConnectionContext

        db, _admin = pooled_db
        ctx1 = ConnectionContext(db, pooled=True)
        ctx2 = ConnectionContext(db, pooled=True)
        pool = DriverManager.get_pool(f"pool:{db.name}", database=db)
        assert pool.stats()["in_use"] == 2
        ctx1.close()
        ctx2.close()
        assert pool.stats()["in_use"] == 0
        assert pool.stats()["idle"] == 2  # sessions were kept, not closed
