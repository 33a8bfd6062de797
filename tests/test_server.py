"""Network server + remote driver: the client/server boundary.

Covers the tentpole of the server PR: multi-client TCP concurrency,
cursor paging, SQLSTATE round-trips through error frames, graceful
shutdown draining, seeded ``net.*`` fault replay, pool health checks
for dead TCP connections, and a differential run proving remote and
local connections are indistinguishable on a generated workload.

The second-process acceptance test at the bottom starts the server via
``python -m repro.server`` and runs the TUTORIAL.md §2 embedded-SQL
example, translated here, in a fresh interpreter over ``repro://``.
"""

import socket
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro
from repro import ConnectionContext, errors
from repro.dbapi.remote import RemoteRows, RemoteTarget, parse_remote_url
from repro.server import ReproServer
from repro.server import protocol
from repro.testing import FaultPlan, WorkloadGenerator, run_concurrent


@pytest.fixture
def server():
    srv = ReproServer(page_size=16).start_background()
    yield srv
    srv.stop_background()


def url_of(srv, name):
    return f"repro://127.0.0.1:{srv.port}/{name}"


def _server_threads():
    return [
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-server-")
    ]


def _connection_threads():
    return [
        thread for thread in _server_threads()
        if thread.name.startswith("repro-server-conn-")
    ]


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


def _hello(sock, database):
    """Raw-socket handshake; returns the WELCOME payload."""
    protocol.send_frame(
        sock, protocol.MSG_HELLO,
        {"magic": protocol.MAGIC, "version": protocol.PROTOCOL_VERSION,
         "database": database},
    )
    msg_type, payload = protocol.recv_frame(sock)
    assert msg_type == protocol.MSG_WELCOME, payload
    return payload


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------


class TestRemoteBasics:
    def test_roundtrip_ddl_dml_query(self, server):
        with repro.connect(url_of(server, "basics")) as conn:
            stmt = conn.create_statement()
            stmt.execute_update(
                "create table emps (name varchar(50), sales int)"
            )
            assert stmt.execute_update(
                "insert into emps values ('Ann', 10), ('Bob', 20)"
            ) == 2
            rs = stmt.execute_query(
                "select name, sales from emps order by sales desc"
            )
            assert rs.next()
            assert (rs.get_string(1), rs.get_int("sales")) == ("Bob", 20)
            assert rs.next() and rs.get_string("name") == "Ann"
            assert not rs.next()

    def test_prepared_statement_remote(self, server):
        with repro.connect(url_of(server, "prepared")) as conn:
            conn.create_statement().execute_update(
                "create table t (n int, s varchar(10))"
            )
            ps = conn.prepare_statement("insert into t values (?, ?)")
            for i in range(5):
                ps.set_int(1, i)
                ps.set_string(2, f"v{i}")
                ps.execute_update()
            ps = conn.prepare_statement("select s from t where n = ?")
            ps.set_int(1, 3)
            rs = ps.execute_query()
            assert rs.next() and rs.get_string(1) == "v3"

    def test_prepare_parses_client_side(self, server):
        with repro.connect(url_of(server, "parse")) as conn:
            with pytest.raises(errors.SQLSyntaxError):
                conn.prepare_statement("selec broken")

    def test_callable_statement_out_params(self, server, tmp_path):
        # Install the routine through the shared registry (the server
        # runs in-process), then CALL it over the wire: the routine
        # executes server-side and the OUT value rides the RESULT frame.
        from repro.procedures import build_par
        from repro.sqltypes import typecodes

        with repro.connect(url_of(server, "routines")) as conn:
            conn.create_statement().execute_update(
                "create table seen (n int)"
            )
        par = build_par(
            str(tmp_path / "r.par"),
            {"mod": "def fill(container):\n    container[0] = 'remote'\n"},
        )
        local = repro.registry.lookup("routines").create_session(
            autocommit=True
        )
        local.execute(f"call sqlj.install_par('{par}', 'rp')")
        local.execute(
            "create procedure fill(out x varchar(10)) no sql "
            "external name 'rp:mod.fill' language python "
            "parameter style python"
        )
        local.execute("grant execute on fill to public")
        local.close()

        with repro.connect(url_of(server, "routines")) as conn:
            stmt = conn.prepare_call("{call fill(?)}")
            stmt.register_out_parameter(1, typecodes.VARCHAR)
            stmt.execute()
            assert stmt.get_string(1) == "remote"

    def test_autocommit_and_transactions(self, server):
        with repro.connect(url_of(server, "txn")) as conn:
            st = conn.create_statement()
            st.execute_update("create table t (n int)")
            conn.set_auto_commit(False)
            st.execute_update("insert into t values (1)")
            assert conn.session.in_transaction
            conn.rollback()
            assert not conn.session.in_transaction
            rs = st.execute_query("select count(*) from t")
            rs.next()
            assert rs.get_int(1) == 0
            st.execute_update("insert into t values (2)")
            conn.commit()
            rs = st.execute_query("select count(*) from t")
            rs.next()
            assert rs.get_int(1) == 1

    def test_in_txn_reports_a_read_snapshot(self, server):
        """A manual-commit SELECT leaves a snapshot open server-side:
        its reply says so (an error reply too), and COMMIT / ROLLBACK
        say the transaction ended."""
        with repro.connect(url_of(server, "readtxn")) as conn:
            st = conn.create_statement()
            st.execute_update("create table t (n int)")
            st.execute_update("insert into t values (1)")
            assert not conn.session.in_transaction
            conn.set_auto_commit(False)
            for end in (conn.commit, conn.rollback):
                st.execute_query("select count(*) from t").close()
                assert conn.session.in_transaction
                end()
                assert not conn.session.in_transaction
            with pytest.raises(errors.DivisionByZeroError):
                st.execute_query("select 1 / (n - n) from t")
            assert conn.session.in_transaction
            conn.rollback()
            assert not conn.session.in_transaction

    def test_sqlstate_error_roundtrip(self, server):
        with repro.connect(url_of(server, "errs")) as conn:
            st = conn.create_statement()
            with pytest.raises(errors.UndefinedTableError) as exc:
                st.execute_query("select * from nope")
            assert exc.value.sqlstate == "42P01"
            with pytest.raises(errors.SQLSyntaxError) as exc:
                st.execute_update("not sql at all")
            assert exc.value.sqlstate.startswith("42")
            st.execute_update("create table u (n int unique)")
            st.execute_update("insert into u values (1)")
            with pytest.raises(errors.UniqueViolationError) as exc:
                st.execute_update("insert into u values (1)")
            assert exc.value.sqlstate == "23505"

    def test_connect_rejects_data_dir_for_remote(self, server):
        with pytest.raises(errors.ConnectionError_):
            repro.connect(url_of(server, "x"), data_dir="/tmp/nope")

    def test_malformed_remote_urls(self):
        for bad in ("repro://", "repro://host:1", "repro:standard:x"):
            with pytest.raises(errors.ConnectionError_):
                parse_remote_url(bad)
        parts = parse_remote_url("repro://h:9/db?user=smith&dialect=acme")
        assert parts == {
            "host": "h", "port": 9, "database": "db",
            "user": "smith", "dialect": "acme", "auth": None,
        }


# ---------------------------------------------------------------------------
# cursor paging
# ---------------------------------------------------------------------------


class TestCursorPaging:
    def test_large_result_pages_through_cursor(self, server):
        with repro.connect(url_of(server, "paging")) as conn:
            st = conn.create_statement()
            st.execute_update("create table big (n int)")
            ps = conn.prepare_statement("insert into big values (?)")
            for i in range(100):
                ps.set_int(1, i)
                ps.execute_update()
            before = repro.observability.snapshot()["counters"].get(
                "remote.fetches", 0
            )
            rs = st.execute_query("select n from big order by n")
            rows = [rs.get_int(1) for _ in iter(rs.next, False)]
            assert rows == list(range(100))
            after = repro.observability.snapshot()["counters"].get(
                "remote.fetches", 0
            )
            # page_size=16 → 100 rows need several FETCH round trips
            assert after - before >= 5

    def test_slice_and_negative_index(self, server):
        with repro.connect(url_of(server, "slices")) as conn:
            st = conn.create_statement()
            st.execute_update("create table s (n int)")
            for i in range(40):
                st.execute_update(f"insert into s values ({i})")
            result = conn.session.execute("select n from s order by n")
            assert isinstance(result.rows, RemoteRows)
            assert len(result.rows) == 40
            assert result.rows[-1] == [39]
            assert result.rows[10:13] == [[10], [11], [12]]
            rs_all = [row[0] for row in result.rows]
            assert rs_all == list(range(40))

    def test_scrollable_resultset_over_remote_rows(self, server):
        with repro.connect(url_of(server, "scroll")) as conn:
            st = conn.create_statement()
            st.execute_update("create table s (n int)")
            for i in range(50):
                st.execute_update(f"insert into s values ({i})")
            rs = st.execute_query("select n from s order by n")
            assert rs.last() and rs.get_int(1) == 49
            assert rs.first() and rs.get_int(1) == 0
            assert rs.absolute(25) and rs.get_int(1) == 24
            assert rs.fetch_all() == [[n] for n in range(25, 50)]


# ---------------------------------------------------------------------------
# multi-client concurrency
# ---------------------------------------------------------------------------


class TestMultiClient:
    def test_concurrent_clients_serialise_writes(self, server):
        setup = repro.connect(url_of(server, "conc"))
        setup.create_statement().execute_update(
            "create table counter (n int)"
        )
        setup.create_statement().execute_update(
            "insert into counter values (0)"
        )
        setup.close()

        def bump(_thread):
            with repro.connect(url_of(server, "conc")) as conn:
                for _ in range(5):
                    conn.create_statement().execute_update(
                        "update counter set n = n + 1"
                    )

        result = run_concurrent(8, bump, timeout=60.0)
        result.raise_first()
        with repro.connect(url_of(server, "conc")) as conn:
            rs = conn.create_statement().execute_query(
                "select n from counter"
            )
            rs.next()
            assert rs.get_int(1) == 40

    def test_connection_limit_refused_with_08004(self):
        srv = ReproServer(max_connections=1).start_background()
        try:
            keep = repro.connect(url_of(srv, "limit"))
            with pytest.raises(errors.ConnectionError_) as exc:
                repro.connect(url_of(srv, "limit"))
            assert exc.value.sqlstate == "08004"
            keep.close()
        finally:
            srv.stop_background()

    def test_auth_token_gate(self):
        srv = ReproServer(auth_token="sesame").start_background()
        try:
            with pytest.raises(errors.AuthorizationError) as exc:
                repro.connect(url_of(srv, "authy"))
            assert exc.value.sqlstate == "28000"
            conn = repro.connect(url_of(srv, "authy") + "?auth=sesame")
            conn.create_statement().execute_update(
                "create table ok (n int)"
            )
            conn.close()
        finally:
            srv.stop_background()

    def test_pre_handshake_sockets_count_toward_limit(self):
        # Sockets that dialled but never sent HELLO occupy their slot
        # during the handshake window — the cap is on connections, not
        # on completed handshakes.
        srv = ReproServer(max_connections=2).start_background()
        idlers = []
        try:
            idlers = [
                socket.create_connection(("127.0.0.1", srv.port))
                for _ in range(2)
            ]
            time.sleep(0.3)  # let the accept thread admit both
            with pytest.raises(errors.ConnectionError_) as exc:
                repro.connect(url_of(srv, "flood"))
            assert exc.value.sqlstate == "08004"
        finally:
            for sock in idlers:
                sock.close()
            srv.stop_background()


# ---------------------------------------------------------------------------
# cancel + graceful shutdown
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_cancel_inflight_statement_57014(self, server):
        conn = repro.connect(url_of(server, "cancel"))
        conn.create_statement().execute_update("create table t (n int)")
        plan = FaultPlan(seed=1).inject("executor.run", delay=0.4, times=1)
        outcome = {}

        def run():
            try:
                conn.create_statement().execute_query("select * from t")
                outcome["error"] = None
            except errors.ReproError as exc:
                outcome["error"] = exc

        with plan.armed():
            worker = threading.Thread(target=run)
            worker.start()
            time.sleep(0.15)
            conn.session.cancel()
            worker.join(timeout=30)
        assert isinstance(outcome["error"], errors.QueryCanceledError)
        assert outcome["error"].sqlstate == "57014"
        # the session survives a cancel
        rs = conn.create_statement().execute_query(
            "select count(*) from t"
        )
        rs.next()
        assert rs.get_int(1) == 0
        conn.close()

    def test_stale_cancel_does_not_kill_next_statement(self, server):
        # A cancel that loses the race — its target already answered —
        # must be discarded by sequence number, not left armed to
        # spuriously cancel whatever runs next.  TCP ordering makes
        # this deterministic: the CANCEL frame is written before the
        # next EXECUTE, so the server always sees it first.
        with repro.connect(url_of(server, "stale")) as conn:
            st = conn.create_statement()
            st.execute_update("create table t (n int)")
            st.execute_update("insert into t values (1)")
            conn.session.cancel()  # targets the finished INSERT
            rs = st.execute_query("select count(*) from t")
            rs.next()
            assert rs.get_int(1) == 1  # no spurious 57014

    def test_cancel_ahead_of_its_execute_cancels_for_certain(self, server):
        # Raw socket, CANCEL{seq:n} written *before* EXECUTE{seq:n}: the
        # connection thread reads frames in order, so the cancel is
        # armed by the time its statement is dispatched — the statement
        # never runs, and the next one is untouched.
        with repro.connect(url_of(server, "ahead")) as setup:
            setup.create_statement().execute_update(
                "create table t (n int)"
            )
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            _hello(sock, "ahead")
            protocol.send_frame(sock, protocol.MSG_CANCEL, {"seq": 5})
            protocol.send_frame(
                sock, protocol.MSG_EXECUTE,
                {"sql": "insert into t values (1)", "params": [], "seq": 5},
            )
            msg_type, payload = protocol.recv_frame(sock)
            assert msg_type == protocol.MSG_ERROR
            error = protocol.rebuild_error(payload)
            assert error.sqlstate == "57014"
            assert "cancelled before execution" in error.message
            protocol.send_frame(
                sock, protocol.MSG_EXECUTE,
                {"sql": "select count(*) from t", "params": [], "seq": 6},
            )
            msg_type, payload = protocol.recv_frame(sock)
            assert msg_type == protocol.MSG_RESULT
            assert payload["rows"] == [[0]]  # the cancelled INSERT never ran

    def test_vanished_client_mid_statement_leaves_nothing_behind(self):
        srv = ReproServer().start_background()
        try:
            conn = repro.connect(url_of(srv, "vanish"))
            conn.create_statement().execute_update("create table t (n int)")
            conn.set_auto_commit(False)
            conn.create_statement().execute_update(
                "insert into t values (1)"
            )  # an open transaction the server must roll back
            database = repro.registry.lookup("vanish")
            assert len(database.transactions.active_transactions()) == 1
            sock = conn.session._sock
            plan = FaultPlan(seed=8).inject(
                "executor.run", delay=0.4, times=1
            )
            with plan.armed():
                protocol.send_frame(
                    sock, protocol.MSG_EXECUTE,
                    {"sql": "select * from t", "params": [], "seq": 99},
                )
                time.sleep(0.15)  # the statement is inside its delay
                sock.close()      # ...and the client is gone
                _wait_until(lambda: not _connection_threads())
            assert plan.fired["executor.run"] == 1
            assert database.transactions.active_transactions() == []
            assert not [s for s in database.sessions if not s.closed]
            gauges = repro.observability.snapshot()["counters"]
            assert gauges["server.vanish.sessions"] == 0
            assert not srv._connections
            with repro.connect(url_of(srv, "vanish")) as check:
                rs = check.create_statement().execute_query(
                    "select count(*) from t"
                )
                rs.next()
                assert rs.get_int(1) == 0  # rolled back, not committed
        finally:
            srv.stop_background()

    def test_graceful_shutdown_drains_inflight(self):
        srv = ReproServer().start_background()
        conn = repro.connect(url_of(srv, "drain"))
        conn.create_statement().execute_update("create table t (n int)")
        conn.create_statement().execute_update("insert into t values (7)")
        plan = FaultPlan(seed=2).inject("executor.run", delay=0.5, times=1)
        outcome = {}

        def run():
            try:
                rs = conn.create_statement().execute_query(
                    "select n from t"
                )
                rs.next()
                outcome["value"] = rs.get_int(1)
            except errors.ReproError as exc:  # pragma: no cover
                outcome["value"] = exc

        with plan.armed():
            worker = threading.Thread(target=run)
            worker.start()
            time.sleep(0.15)
            srv.stop_background()  # graceful: drains the slow SELECT
            worker.join(timeout=30)
        assert outcome["value"] == 7
        # afterwards the link is down and typed as such
        with pytest.raises(errors.ConnectionError_):
            conn.create_statement().execute_query("select n from t")

    def test_drain_matrix_idle_busy_and_pre_handshake(self):
        srv = ReproServer().start_background()
        busy = repro.connect(url_of(srv, "matrix"))
        busy.create_statement().execute_update("create table t (n int)")
        busy.create_statement().execute_update("insert into t values (7)")
        idle = repro.connect(url_of(srv, "matrix"))
        silent = socket.create_connection(("127.0.0.1", srv.port))
        plan = FaultPlan(seed=10).inject("executor.run", delay=0.5, times=1)
        outcome = {}

        def run():
            try:
                rs = busy.create_statement().execute_query("select n from t")
                rs.next()
                outcome["value"] = rs.get_int(1)
            except errors.ReproError as exc:  # pragma: no cover
                outcome["value"] = exc

        try:
            with plan.armed():
                worker = threading.Thread(target=run)
                worker.start()
                time.sleep(0.15)
                _wait_until(lambda: len(_connection_threads()) == 3)
                started = time.monotonic()
                srv.stop_background(drain_timeout=5.0)
                elapsed = time.monotonic() - started
                worker.join(timeout=30)
            assert elapsed < 5.0  # drained, not timed out
            assert outcome["value"] == 7  # the busy client got its rows
            with pytest.raises(errors.ConnectionClosedError) as exc:
                idle.create_statement().execute_query("select n from t")
            assert "server shutting down" in str(exc.value)  # GOODBYE
            silent.settimeout(10)
            assert silent.recv(16) == b""  # pre-handshake: just closed
            assert not _connection_threads()
        finally:
            silent.close()

    def test_one_thread_per_connection_and_none_after_stop(self):
        srv = ReproServer().start_background()
        conns = [repro.connect(url_of(srv, "threads")) for _ in range(5)]
        try:
            for conn in conns:
                assert conn.session.ping()
            assert len(_connection_threads()) == 5
            conns.pop().close()
            _wait_until(lambda: len(_connection_threads()) == 4)
        finally:
            srv.stop_background()
        assert not _server_threads()
        for conn in conns:
            conn.close()

    def test_server_refuses_while_draining_or_after(self):
        srv = ReproServer().start_background()
        url = url_of(srv, "gone")
        repro.connect(url).close()
        srv.stop_background()
        with pytest.raises(errors.ConnectionError_):
            repro.connect(url)


# ---------------------------------------------------------------------------
# net.* fault replay
# ---------------------------------------------------------------------------


class TestNetFaults:
    def test_torn_client_frame_is_connection_lost(self, server):
        conn = repro.connect(url_of(server, "torn"))
        conn.create_statement().execute_update("create table t (n int)")
        plan = FaultPlan(seed=3).inject(
            "net.write", corrupt=lambda data: data[:7], times=1
        )
        with plan.armed():
            with pytest.raises(errors.ConnectionLostError) as exc:
                conn.create_statement().execute_query("select * from t")
        assert exc.value.sqlstate == "08006"
        assert plan.fired["net.write"] == 1
        assert conn.session.closed  # desynced stream must not be reused

    def test_mid_response_disconnect(self, server):
        conn = repro.connect(url_of(server, "midresp"))
        conn.create_statement().execute_update("create table t (n int)")
        plan = FaultPlan(seed=4).inject(
            "net.respond", corrupt=lambda data: data[:3], times=1
        )
        with plan.armed():
            with pytest.raises(errors.ConnectionLostError):
                conn.create_statement().execute_query("select * from t")
        assert plan.fired["net.respond"] == 1

    def test_slow_peer_delay_still_succeeds(self, server):
        conn = repro.connect(url_of(server, "slow"))
        conn.create_statement().execute_update("create table t (n int)")
        plan = FaultPlan(seed=5).inject("net.write", delay=0.2, times=1)
        with plan.armed():
            started = time.monotonic()
            conn.create_statement().execute_update(
                "insert into t values (1)"
            )
            assert time.monotonic() - started >= 0.2
        conn.close()

    def test_seeded_replay_is_exact(self, server):
        conn = repro.connect(url_of(server, "replay"))
        conn.create_statement().execute_update("create table t (n int)")

        def workload(plan):
            failures = 0
            with plan.armed():
                for _ in range(10):
                    try:
                        conn2 = repro.connect(url_of(server, "replay"))
                        conn2.create_statement().execute_update(
                            "insert into t values (1)"
                        )
                        conn2.close()
                    except errors.ConnectionError_:
                        failures += 1
            return failures, dict(plan.fired)

        plan = FaultPlan(seed=6).inject(
            "net.write", corrupt=lambda data: data[:5], probability=0.3
        )
        first = workload(plan)
        plan.reset()
        second = workload(plan)
        assert first == second
        assert first[1].get("net.write", 0) > 0


# ---------------------------------------------------------------------------
# pool health for remote connections (the PR's bugfix)
# ---------------------------------------------------------------------------


class TestRemotePoolHealth:
    def test_dead_tcp_connection_replaced_on_checkout(self):
        srv = ReproServer().start_background()
        url = url_of(srv, "poolheal")
        pool = repro.DriverManager.get_pool(url, max_size=2)
        conn = pool.checkout()
        conn.create_statement().execute_update("create table t (n int)")
        first_session = conn.session
        conn.close()  # idle, healthy
        port = srv.port
        srv.stop_background()  # the idle session's peer dies

        srv2 = ReproServer(port=port).start_background()
        try:
            conn2 = pool.checkout()  # must NOT hand out the dead session
            assert conn2.session is not first_session
            conn2.create_statement().execute_update(
                "create table t2 (n int)"
            )
            conn2.close()
            assert first_session.closed  # ping probe marked it dead
        finally:
            srv2.stop_background()

    def test_fault_injected_silent_socket_death(self):
        srv = ReproServer().start_background()
        try:
            url = url_of(srv, "silent")
            pool = repro.DriverManager.get_pool(url, max_size=2)
            conn = pool.checkout()
            victim = conn.session
            # Kill the socket under the session without marking it
            # closed — a silently dropped TCP connection.  The ping
            # probe at checkin notices, disposes the session, and the
            # next checkout gets a fresh one.
            plan = FaultPlan(seed=7).inject(
                "pool.checkin",
                corrupt=lambda s: (s._sock.close() or s),
                times=1,
            )
            with plan.armed():
                conn.close()
            assert victim.closed  # probe caught the dead link
            conn2 = pool.checkout()
            assert conn2.session is not victim
            conn2.create_statement().execute_update(
                "create table ok (n int)"
            )
            conn2.close()
        finally:
            srv.stop_background()

    def test_max_age_recycles_remote_sessions(self):
        srv = ReproServer().start_background()
        try:
            url = url_of(srv, "aged")
            pool = repro.DriverManager.get_pool(
                url, max_size=2, max_age=0.05
            )
            conn = pool.checkout()
            old = conn.session
            conn.close()
            time.sleep(0.1)
            conn2 = pool.checkout()
            assert conn2.session is not old
            assert old.closed  # retired session was closed, not leaked
            conn2.close()
        finally:
            srv.stop_background()

    def test_checkin_releases_a_read_snapshot(self, server):
        """A manual-commit pool over repro://: the first client only
        reads, yet its server-side snapshot must not reach the next
        client (stale rows) or outlive the checkin (vacuum horizon)."""
        url = url_of(server, "poolsnap")
        with repro.connect(url) as conn:
            st = conn.create_statement()
            st.execute_update("create table t (n int)")
            st.execute_update("insert into t values (1)")
        database = repro.registry.lookup("poolsnap")
        pool = repro.DriverManager.get_pool(
            url, max_size=1, autocommit=False
        )

        def count(conn):
            rs = conn.create_statement().execute_query(
                "select count(*) from t"
            )
            rs.next()
            return rs.get_int(1)

        try:
            first = pool.checkout()
            session = first.session
            assert count(first) == 1
            first.close()
            with repro.connect(url) as writer:
                writer.create_statement().execute_update(
                    "insert into t values (2)"
                )
            second = pool.checkout()
            assert second.session is session
            assert count(second) == 2
            second.close()
            tm = database.transactions
            assert tm.oldest_visible_seq() == tm.commit_seq
        finally:
            pool.close()

    def test_handshake_timeout_is_bounded(self):
        # A server that accepts the TCP dial but never answers HELLO
        # must fail the handshake within the connect timeout instead of
        # blocking forever on an unbounded read.
        from repro.dbapi.remote import RemoteSession

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        try:
            started = time.monotonic()
            with pytest.raises(errors.ConnectionError_):
                RemoteSession(
                    "127.0.0.1", port, "db", connect_timeout=0.5
                )
            assert time.monotonic() - started < 5
        finally:
            listener.close()

    def test_health_probe_runs_outside_pool_lock(self):
        # A hung health probe must slow only its own checkout; other
        # pool operations (here: stats(), which takes the pool lock)
        # keep working while the probe is stuck.
        srv = ReproServer().start_background()
        try:
            pool = repro.DriverManager.get_pool(
                url_of(srv, "nolock"), max_size=2
            )
            conn = pool.checkout()
            victim = conn.session
            conn.close()  # one idle session
            release = threading.Event()

            def stuck_ping(timeout=None):
                release.wait(10)
                return False

            victim.ping = stuck_ping
            picked = {}

            def blocked_checkout():
                c = pool.checkout(timeout=15)
                picked["session"] = c.session
                c.close()

            worker = threading.Thread(target=blocked_checkout)
            worker.start()
            time.sleep(0.3)  # worker is now inside the stuck probe
            started = time.monotonic()
            stats = pool.stats()
            assert time.monotonic() - started < 1.0
            assert stats["in_use"] == 1  # the probing slot is reserved
            release.set()
            worker.join(timeout=30)
            assert picked["session"] is not victim  # probe said dead
            pool.close()
        finally:
            srv.stop_background()


# ---------------------------------------------------------------------------
# protocol-level hygiene
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_handshake_rejects_bad_magic_and_version(self, server):
        for hello in (
            {"magic": "wrong", "version": protocol.PROTOCOL_VERSION},
            {"magic": protocol.MAGIC, "version": 999},
        ):
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                protocol.send_frame(
                    sock, protocol.MSG_HELLO, dict(hello, database="x")
                )
                msg_type, payload = protocol.recv_frame(sock)
                assert msg_type == protocol.MSG_ERROR
                error = protocol.rebuild_error(payload)
                assert error.sqlstate == "08P01"

    def test_oversized_frame_announcement_rejected(self):
        header = (protocol.MAX_FRAME + 1).to_bytes(4, "little") + b"\x01"
        with pytest.raises(errors.ProtocolError):
            protocol.parse_header(header)

    def test_error_rebuild_unknown_class_degrades(self):
        error = protocol.rebuild_error(
            {"error": "SomeFutureError", "sqlstate": "58000",
             "message": "m", "vendor_code": 3}
        )
        assert isinstance(error, errors.SQLException)
        assert error.sqlstate == "58000"
        assert error.vendor_code == 3


# ---------------------------------------------------------------------------
# wire safety: the payload encoding is data-only
# ---------------------------------------------------------------------------


class TestWireSafety:
    """Frames carry data, never code.

    Protocol v1 pickled payloads, which handed arbitrary code execution
    to any peer that could reach the socket — before the auth token was
    even looked at.  v2's typed encoding can only decode into plain SQL
    data values; these tests pin that property.
    """

    def test_typed_encoding_roundtrips_sql_data(self):
        import datetime
        import decimal

        payload = {
            "none": None, "flag": True, "off": False,
            "int": -42, "big": 2 ** 90, "float": 2.5,
            "text": "héllo", "blob": b"\x00\xff",
            "dec": decimal.Decimal("12.34"),
            "date": datetime.date(1999, 12, 31),
            "time": datetime.time(23, 59, 58),
            "ts": datetime.datetime(2000, 1, 1, 12, 30, 45, 123456),
            "list": [1, [2, None]], "tuple": (1, "a"),
        }
        frame = protocol.encode_frame(protocol.MSG_RESULT, payload)
        decoded = protocol.decode_payload(frame[protocol.HEADER_SIZE:])
        assert decoded == payload
        assert isinstance(decoded["tuple"], tuple)
        assert isinstance(decoded["dec"], decimal.Decimal)
        assert decoded["big"] == 2 ** 90

    def test_arbitrary_objects_cannot_cross(self):
        with pytest.raises(errors.ProtocolError):
            protocol.encode_frame(protocol.MSG_RESULT, {"x": object()})

    def test_pickle_payload_is_garbage_not_code(self):
        import pickle

        body = pickle.dumps({"magic": protocol.MAGIC})
        with pytest.raises(errors.ProtocolError):
            protocol.decode_payload(body)

    def test_malicious_hello_does_not_execute_preauth(self, server, tmp_path):
        # A pickle bomb in place of HELLO must be rejected as garbage
        # without any side effect — even though no token was presented.
        import os
        import pickle

        marker = tmp_path / "owned"

        class Evil:
            def __reduce__(self):
                return (os.mkdir, (str(marker),))

        body = pickle.dumps(Evil())
        frame = (
            len(body).to_bytes(4, "little")
            + bytes([protocol.MSG_HELLO])
            + body
        )
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(frame)
            sock.settimeout(10)
            assert sock.recv(1024) == b""  # dropped, no code ran
        assert not marker.exists()


def _strict(value):
    """``value`` with every leaf tagged by its type, so ``True`` and
    ``1`` (or a list and a tuple) do not compare equal."""
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_strict(item) for item in value])
    if isinstance(value, dict):
        return ("dict", [(_strict(k), _strict(v)) for k, v in value.items()])
    return (type(value).__name__, value)


def _random_scalar(rng):
    import datetime
    import decimal

    return rng.choice([
        lambda: None,
        lambda: rng.random() < 0.5,
        lambda: rng.randint(-2 ** 63, 2 ** 63 - 1),
        lambda: rng.choice([-1, 1]) * rng.randint(2 ** 63, 2 ** 100),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: "".join(rng.choice("aé€😀 \x00z") for _ in range(
            rng.randint(0, 6))),
        lambda: bytes(rng.randrange(256) for _ in range(rng.randint(0, 4))),
        lambda: decimal.Decimal(rng.randint(-10 ** 6, 10 ** 6)).scaleb(-2),
        lambda: datetime.date(rng.randint(1, 9999), 12, 31),
        lambda: datetime.time(rng.randint(0, 23), 59, 58, 1234),
        lambda: datetime.datetime(2000, 1, 1, 12, rng.randint(0, 59)),
    ])()


def _random_rows(rng):
    """A list of rows in one of the shapes a row page must handle."""
    count = rng.randint(0, 8)
    width = rng.randint(0, 4)
    shape = rng.choice(
        ["ints", "texts", "nullable", "bools", "huge", "mixed", "ragged",
         "tuples"]
    )
    rows = []
    for index in range(count):
        if shape == "ints":
            row = [rng.randint(-2 ** 63, 2 ** 63 - 1) for _ in range(width)]
        elif shape == "texts":
            row = [f"{'ü' * (index % 3)}t{index}" for _ in range(width)]
        elif shape == "nullable":
            row = [rng.choice([None, index]) for _ in range(width)]
        elif shape == "bools":
            row = [rng.choice([True, 1, False, 0]) for _ in range(width)]
        elif shape == "huge":
            row = [2 ** 64 + index for _ in range(width)]
        elif shape == "ragged":
            row = [index] * rng.randint(0, 3)
        else:
            row = [_random_scalar(rng) for _ in range(width)]
        rows.append(tuple(row) if shape == "tuples" else row)
    return rows


def _random_payload(rng, depth=0):
    if depth > 2 or rng.random() < 0.3:
        return _random_scalar(rng)
    kind = rng.choice(["rows", "list", "tuple", "dict"])
    if kind == "rows":
        return _random_rows(rng)
    items = [_random_payload(rng, depth + 1)
             for _ in range(rng.randint(0, 4))]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return {f"k{i}": item for i, item in enumerate(items)}


class TestCodecProperties:
    """The v3 codec: exact round trips, and every malformed payload is
    a ProtocolError (08P01), never an IndexError, struct.error or
    UnicodeDecodeError escaping from the decoder."""

    SEEDS = range(120)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_payload_roundtrips_exactly(self, seed):
        import random

        payload = _random_payload(random.Random(seed))
        frame = protocol.encode_frame(protocol.MSG_RESULT, payload)
        body = frame[protocol.HEADER_SIZE:]
        assert _strict(protocol.decode_payload(body)) == _strict(payload)

    @pytest.mark.parametrize("seed", SEEDS[:40])
    def test_every_strict_prefix_and_trailing_byte_is_refused(self, seed):
        import random

        rng = random.Random(seed)
        body = protocol.encode_frame(
            protocol.MSG_RESULT,
            {"rows": _random_rows(rng), "more": _random_payload(rng)},
        )[protocol.HEADER_SIZE:]
        # (the empty prefix is the empty payload, which means None)
        for end in range(1, len(body)):
            with pytest.raises(errors.ProtocolError):
                protocol.decode_payload(body[:end])
        with pytest.raises(errors.ProtocolError, match="trailing"):
            protocol.decode_payload(body + b"N")

    @pytest.mark.parametrize("seed", SEEDS[:40])
    def test_corrupted_bytes_decode_or_raise_protocol_error(self, seed):
        import random

        rng = random.Random(seed)
        body = bytearray(protocol.encode_frame(
            protocol.MSG_RESULT, [_random_rows(rng), _random_rows(rng)]
        )[protocol.HEADER_SIZE:])
        for _ in range(50):
            broken = bytearray(body)
            broken[rng.randrange(len(broken))] = rng.randrange(256)
            try:
                protocol.decode_payload(bytes(broken))
            except errors.ProtocolError:
                pass

    def test_unknown_tag_and_unknown_column_kind(self):
        with pytest.raises(errors.ProtocolError, match="unknown value tag"):
            protocol.decode_payload(b"l\x01\x00\x00\x00Q")
        page = protocol.encode_frame(
            protocol.MSG_ROWS, [[1], [2], [3]]
        )[protocol.HEADER_SIZE:]
        assert page[9:10] == b"i"  # P, rows (u32), width (u32), kind
        bad = page[:9] + b"x" + page[10:]
        with pytest.raises(errors.ProtocolError, match="column kind"):
            protocol.decode_payload(bad)
        with pytest.raises(errors.ProtocolError, match="without columns"):
            protocol.decode_payload(b"P\x03\x00\x00\x00\x00\x00\x00\x00")
        texts = protocol.encode_frame(
            protocol.MSG_ROWS, [["ab"], ["c"], ["d"]]
        )[protocol.HEADER_SIZE:]
        assert texts[10:14] == b"\x02\x00\x00\x00"  # first length
        with pytest.raises(errors.ProtocolError, match="lengths"):
            protocol.decode_payload(texts[:10] + b"\x03" + texts[11:])

    def test_range_page_is_one_tag_then_one_block_per_column(
        self, monkeypatch
    ):
        import struct

        rows = [[k, f"item{k:06d}"] for k in range(1000, 1050)]
        body = protocol.encode_frame(
            protocol.MSG_ROWS, rows
        )[protocol.HEADER_SIZE:]
        assert body[:9] == b"P" + struct.pack("<II", 50, 2)
        ints = struct.pack("<50q", *range(1000, 1050))
        assert body[9:10 + len(ints)] == b"i" + ints
        texts = body[10 + len(ints):]
        assert texts[:1] == b"s"
        assert texts[1:201] == struct.pack("<50I", *[10] * 50)
        assert texts[201:] == struct.pack("<I", 500) + "".join(
            row[1] for row in rows
        ).encode()
        calls = []
        counted = {
            tag: (lambda data, pos, tag=tag, fn=fn:
                  calls.append(tag) or fn(data, pos))
            for tag, fn in protocol._DECODERS.items()
        }
        monkeypatch.setattr(protocol, "_DECODERS", counted)
        assert protocol.decode_payload(body) == rows
        assert calls == [ord("P")]  # no per-value tag dispatch


@pytest.fixture
def result_frames(monkeypatch):
    """Every RESULT frame a client reads, as ``(payload, bytes)``."""
    frames = []
    read = protocol.read_frame

    def spy(sock):
        msg_type, payload = read(sock)
        if msg_type == protocol.MSG_RESULT:
            frames.append(
                (dict(payload), protocol.encode_frame(msg_type, payload))
            )
        return msg_type, payload

    monkeypatch.setattr(protocol, "read_frame", spy)
    return frames


#: Protocol v2's RESULT frame for the point select below: every field
#: spelled out, the shape's triples on every reply.
V2_POINT_FRAME_BYTES = 395


class TestDescribeOnce:
    POINT = "select k, grp, val, name from items where k = ?"

    def test_repeated_point_select_carries_no_triples_or_defaults(
        self, server, result_frames
    ):
        with repro.connect(url_of(server, "describe")) as conn:
            st = conn.create_statement()
            st.execute_update(
                "create table items (k integer primary key, grp integer, "
                "val integer, name varchar(16))"
            )
            st.execute_update(
                "insert into items values (5, 5, 300, 'item000005')"
            )
            ps = conn.prepare_statement(self.POINT)
            del result_frames[:]
            for _ in range(3):
                ps.set_int(1, 5)
                rs = ps.execute_query()
                assert rs.fetch_all() == [[5, 5, 300, "item000005"]]
                meta = rs.get_meta_data()
                assert [meta.get_column_name(i) for i in range(1, 5)] \
                    == ["k", "grp", "val", "name"]
                assert meta.get_column_type_name(4) == "VARCHAR(16)"
        (first, _), (second, frame), (third, _) = result_frames
        assert first["describe"][3] == [None, "name", "VARCHAR(16)"]
        assert second == third
        assert set(second) == {"kind", "in_txn", "shape", "rows"}
        assert second["shape"] == first["shape"]
        assert len(frame) <= 0.6 * V2_POINT_FRAME_BYTES

    def test_same_text_after_drop_and_create_describes_anew(self, server):
        import datetime
        import decimal

        with repro.connect(url_of(server, "redescribe")) as conn:
            st = conn.create_statement()
            session = conn.session
            st.execute_update("create table t (a int, b varchar(5))")
            st.execute_update("insert into t values (1, 'x')")
            before = session.execute("select * from t")
            assert before.column_names() == ["a", "b"]
            st.execute_update("drop table t")
            st.execute_update(
                "create table t (x decimal(6,2), y date, z int)"
            )
            row = [decimal.Decimal("1.50"), datetime.date(2001, 2, 3), 7]
            session.execute("insert into t values (?, ?, ?)", row)
            after = session.execute("select * from t")
            assert after.column_names() == ["x", "y", "z"]
            assert [c.descriptor.sql_spelling() for c in after.shape.columns] \
                == ["DECIMAL(6,2)", "DATE", "INTEGER"]
            assert list(after.rows) == [row]

    def test_paged_result_after_its_shape_was_described(self, server):
        with repro.connect(url_of(server, "describepages")) as conn:
            st = conn.create_statement()
            st.execute_update("create table p (n int, s varchar(8))")
            conn.session.execute_batch(
                "insert into p values (?, ?)",
                [(i, f"s{i}") for i in range(100)],
            )
            for _ in range(2):  # the second run reuses the describe id
                result = conn.session.execute(
                    "select n, s from p order by n"
                )
                assert len(result.rows) == 100
                assert list(result.rows) == [
                    [i, f"s{i}"] for i in range(100)
                ]
                assert result.column_names() == ["n", "s"]

    def test_shared_connection_never_sees_an_undescribed_id(
        self, server, monkeypatch
    ):
        from repro.dbapi.remote import RemoteSession

        resolve = RemoteSession._resolve_shape

        def checked(self, reply):
            assert self._request_lock._is_owned()
            return resolve(self, reply)

        monkeypatch.setattr(RemoteSession, "_resolve_shape", checked)
        with repro.connect(url_of(server, "sharedshapes")) as conn:
            conn.create_statement().execute_update("create table t (n int)")
            conn.create_statement().execute_update(
                "insert into t values (1)"
            )
            session = conn.session
            failures = []

            def worker(tag):
                # 4 x 40 distinct shapes wrap the 64 describe slots.
                for i in range(40):
                    name = f"{tag}{i}"
                    try:
                        result = session.execute(
                            f"select n as {name} from t"
                        )
                    except AssertionError as exc:
                        failures.append((name, exc))
                        return
                    if result.column_names() != [name]:
                        failures.append((name, result.column_names()))

            threads = [threading.Thread(target=worker, args=(tag,))
                       for tag in "abcd"]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []

    def test_describe_table_is_bounded(self, server):
        slots = protocol.SHAPE_SLOTS
        with repro.connect(url_of(server, "boundedshapes")) as conn:
            conn.create_statement().execute_update("create table t (n int)")
            conn.create_statement().execute_update(
                "insert into t values (1)"
            )
            session = conn.session
            for i in range(10 * slots):
                result = session.execute(f"select n as c{i} from t")
                assert result.column_names() == [f"c{i}"]
            (served,) = [c for c in server._connections
                         if c.database_name == "boundedshapes"]
            assert len(served.shape_ids) <= slots
            assert len(session._shapes) <= slots
            # an evicted shape is described again, not misread
            assert session.execute(
                "select n as c0 from t"
            ).column_names() == ["c0"]

    def test_hello_for_protocol_v2_is_refused_08P01(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            protocol.send_frame(
                sock, protocol.MSG_HELLO,
                {"magic": protocol.MAGIC, "version": 2, "database": "v2"},
            )
            msg_type, payload = protocol.recv_frame(sock)
        assert msg_type == protocol.MSG_ERROR
        error = protocol.rebuild_error(payload)
        assert isinstance(error, errors.ProtocolError)
        assert error.sqlstate == "08P01"
        assert "version 2" in str(error)


# ---------------------------------------------------------------------------
# cursor hygiene: abandoned paged results must not pin rows server-side
# ---------------------------------------------------------------------------


class TestCursorHygiene:
    def test_resultset_close_releases_server_cursor(self, server):
        with repro.connect(url_of(server, "curclose")) as conn:
            st = conn.create_statement()
            st.execute_update("create table big (n int)")
            ps = conn.prepare_statement("insert into big values (?)")
            for i in range(60):
                ps.set_int(1, i)
                ps.execute_update()
            rs = st.execute_query("select n from big order by n")
            assert rs.next()
            rows = rs.to_statement_result().rows
            cursor_id = rows._cursor
            assert cursor_id is not None  # 60 rows > page_size 16
            rs.close()  # sends CLOSE_CURSOR for the unread remainder
            assert rows._cursor is None
            with pytest.raises(errors.InvalidCursorStateError):
                conn.session._fetch_page(cursor_id)

    def test_abandoned_cursors_are_lru_capped(self):
        srv = ReproServer(page_size=4, max_cursors=2).start_background()
        try:
            with repro.connect(url_of(srv, "lru")) as conn:
                st = conn.create_statement()
                st.execute_update("create table t (n int)")
                for i in range(12):
                    st.execute_update(f"insert into t values ({i})")
                results = [
                    conn.session.execute("select n from t order by n")
                    for _ in range(3)
                ]
                # three live cursors > max_cursors=2: the oldest was
                # evicted server-side, the newer two still page fine
                with pytest.raises(errors.InvalidCursorStateError):
                    list(results[0].rows)
                assert [r[0] for r in results[2].rows] == list(range(12))
                assert [r[0] for r in results[1].rows] == list(range(12))
        finally:
            srv.stop_background()


# ---------------------------------------------------------------------------
# SQLJ runtime over the wire (location transparency)
# ---------------------------------------------------------------------------


class TestConnectionContextRemote:
    def test_context_and_pooled_context(self, server):
        url = url_of(server, "ctx")
        with repro.connect(url) as conn:
            conn.create_statement().execute_update(
                "create table people (name varchar(50), year int)"
            )
            conn.create_statement().execute_update(
                "insert into people values ('Ada', 1815), ('Alan', 1912)"
            )
        with ConnectionContext(url) as ctx:
            result = ctx.session.execute(
                "select name from people order by year"
            )
            assert list(result.rows) == [["Ada"], ["Alan"]]
        with ConnectionContext(url, pooled=True) as ctx:
            assert ctx.session.ping()

    def test_observability_counters_flow(self, server):
        with repro.connect(url_of(server, "obs")) as conn:
            conn.create_statement().execute_update(
                "create table t (n int)"
            )
            conn.create_statement().execute_update(
                "insert into t values (1)"
            )
        counters = repro.observability.snapshot()["counters"]
        assert counters.get("server.connections", 0) >= 1
        assert counters.get("server.requests", 0) >= 2
        assert counters.get("remote.executions", 0) >= 2
        assert counters.get("remote.connects", 0) >= 1

    def test_trace_propagation_across_the_wire(self, server):
        import io
        import json

        from repro.observability import tracing

        with repro.connect(url_of(server, "traced")) as conn:
            conn.create_statement().execute_update(
                "create table t (n int)"
            )
            buffer = io.StringIO()
            tracing.enable_tracing("json", stream=buffer)
            try:
                conn.create_statement().execute_update(
                    "insert into t values (1)"
                )
            finally:
                tracing.disable_tracing()
        spans = [json.loads(line) for line in buffer.getvalue().splitlines()]
        names = {span["name"] for span in spans}
        # both halves of the wire appear in one trace stream: the client
        # span and the server-side execution span it propagated to
        assert "remote.execute" in names
        assert "server.execute" in names


# ---------------------------------------------------------------------------
# differential: remote vs local must be indistinguishable
# ---------------------------------------------------------------------------


class TestDifferential:
    def test_workload_identical_remote_and_local(self, server):
        generator = WorkloadGenerator(seed=11)
        statements = (
            [generator.ddl()]
            + generator.seed_statements(20)
            + generator.statements(120)
        )
        local = repro.connect("pydbc:standard:wl_local", durable=False)
        remote = repro.connect(url_of(server, "wl_remote"))
        try:
            for sql in statements:
                local_outcome = self._apply(local, sql)
                remote_outcome = self._apply(remote, sql)
                assert local_outcome == remote_outcome, sql
        finally:
            local.close()
            remote.close()

    @staticmethod
    def _apply(conn, sql):
        try:
            result = conn.session.execute(sql, ())
        except errors.ReproError as exc:
            return ("error", exc.sqlstate)
        if result.is_rowset:
            key = lambda row: tuple((v is None, v) for v in row)
            return ("rows", sorted(map(tuple, result.rows), key=key))
        return ("update", result.update_count)


# ---------------------------------------------------------------------------
# acceptance: second process runs the TUTORIAL §2 example over repro://
# ---------------------------------------------------------------------------


TUTORIAL_SECTION_2_PROGRAM = """
#sql iterator ByPos (str, int);
#sql public iterator ByName (int year, str name);
#sql context Department;

def load(n):
    #sql { INSERT INTO emp VALUES (:n) };
    pass

def scan():
    positer: ByPos
    #sql positer = { SELECT name, year FROM people };
    name = None; year = 0
    out = []
    while True:
        #sql { FETCH :positer INTO :name, :year };
        if positer.endfetch():
            break
        out.append((name, year))
    positer.close()
    return out
"""

CLIENT_SCRIPT = """
import sys
sys.path.insert(0, {build_dir!r})

import repro
from repro import ConnectionContext, errors
from repro.testing import FaultPlan

url = "repro://127.0.0.1:{port}/tutorial"
conn = repro.connect(url)
stmt = conn.create_statement()
stmt.execute_update("create table emp (n int)")
stmt.execute_update(
    "create table people (name varchar(50), year int)")
stmt.execute_update(
    "insert into people values ('Ada', 1815), ('Alan', 1912)")

ConnectionContext.set_default_context(ConnectionContext(conn))
import tutorial_app

tutorial_app.load(41)
tutorial_app.load(42)
print("scan:", sorted(tutorial_app.scan()))
rs = stmt.execute_query("select count(*) from emp")
rs.next(); print("emp:", rs.get_int(1))

plan = FaultPlan(seed=9).inject(
    "net.write", corrupt=lambda data: data[:6], times=1)
with plan.armed():
    try:
        stmt.execute_query("select * from people")
        print("fault: MISSED")
    except errors.ConnectionError_ as exc:
        print("fault:", exc.sqlstate)
"""


class TestSecondProcessAcceptance:
    def test_tutorial_section2_over_the_wire(self, tmp_path):
        from repro import Database
        from repro.translator import TranslationOptions, Translator

        # Translate the §2 program against a local exemplar schema.
        exemplar = Database(name="exemplar")
        session = exemplar.create_session(autocommit=True)
        session.execute("create table emp (n int)")
        session.execute(
            "create table people (name varchar(50), year int)"
        )
        source = tmp_path / "tutorial_app.psqlj"
        source.write_text(TUTORIAL_SECTION_2_PROGRAM)
        build_dir = tmp_path / "build"
        Translator(TranslationOptions(exemplar=exemplar)).translate_file(
            str(source), output_dir=str(build_dir)
        )

        # Server: its own process, via the CLI.
        server_proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
        )
        try:
            banner = server_proc.stdout.readline()
            assert "listening on" in banner, banner
            port = int(banner.rsplit(":", 1)[1])

            # Client: a third process, connecting over TCP.
            script = textwrap.dedent(
                CLIENT_SCRIPT.format(build_dir=str(build_dir), port=port)
            )
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=120,
                env=_subprocess_env(),
            )
            assert completed.returncode == 0, completed.stderr
            lines = completed.stdout.strip().splitlines()
            assert lines[0] == "scan: [('Ada', 1815), ('Alan', 1912)]"
            assert lines[1] == "emp: 2"
            assert lines[2] == "fault: 08006"
        finally:
            server_proc.terminate()
            server_proc.wait(timeout=30)


class TestCliSignals:
    @pytest.mark.parametrize("signum", ["SIGTERM", "SIGINT"])
    def test_signal_drains_and_exits_zero(self, signum):
        import signal

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--drain-timeout", "5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("repro server listening on "), banner
            port = int(banner.rsplit(":", 1)[1])
            conn = repro.connect(f"repro://127.0.0.1:{port}/sig")
            conn.create_statement().execute_update("create table t (n int)")
            started = time.monotonic()
            proc.send_signal(getattr(signal, signum))
            assert proc.wait(timeout=30) == 0
            assert time.monotonic() - started < 5.0  # inside the drain
            # The idle client was told, not just cut off.
            with pytest.raises(errors.ConnectionClosedError) as exc:
                conn.create_statement().execute_query("select n from t")
            assert "server shutting down" in str(exc.value)
            assert "repro server stopped" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()


def _subprocess_env():
    import os

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
