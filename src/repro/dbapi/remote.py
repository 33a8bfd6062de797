"""Remote driver: a ``repro://`` session over TCP.

This is the client half of the network boundary in
:mod:`repro.server`.  :class:`RemoteSession` implements the same
duck-typed session surface the dbapi layer already consumes from the
engine's :class:`~repro.engine.database.Session` — ``execute`` /
``prepare`` / ``commit`` / ``rollback`` / ``close`` / ``autocommit`` /
``in_transaction`` — so :class:`~repro.dbapi.connection.Connection`,
:class:`~repro.dbapi.pool.ConnectionPool` and the SQLJ runtime's
:class:`~repro.runtime.context.ConnectionContext` all work over the
wire unchanged.  That is the paper's portability promise made literal:
translated SQLJ programs are location-transparent because the
connection context neither knows nor cares whether its session is a
local engine or a socket.

URL form::

    repro://host:port/dbname[?user=...&dialect=...&auth=...]

Rows come back paged: the first page rides on the RESULT frame and
:class:`RemoteRows` fetches the rest on demand through the session's
cursor, so iterating a huge result does not buffer it all client-side
(a real ``java.sql.ResultSet`` fetch-size, not a simulation).

Error frames are rebuilt into the same typed, SQLSTATE-carrying
exceptions a local session raises (:func:`repro.server.protocol.rebuild_error`),
and any transport failure surfaces as a class-08 connection error and
marks the session closed — which is what lets ``ConnectionPool``'s
health check detect and replace dead TCP connections on checkout.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import errors, faultpoints
from repro.engine.database import StatementResult
from repro.engine.dialects import DIALECTS, Dialect
from repro.engine.expressions import RowShape
from repro.engine.parser import Parser
from repro.observability import metrics as _metrics
from repro.observability import slowlog as _slowlog
from repro.observability import tracing as _tracing
from repro.server import protocol
from repro.server.protocol import (
    MSG_AUTOCOMMIT, MSG_CANCEL, MSG_CLOSE_CURSOR, MSG_COMMIT, MSG_ERROR,
    MSG_EXECUTE, MSG_EXECUTE_BATCH, MSG_FETCH, MSG_GOODBYE, MSG_HELLO,
    MSG_OK, MSG_PING, MSG_RESULT, MSG_ROLLBACK, MSG_ROWS, MSG_WELCOME,
)

__all__ = [
    "RemoteTarget",
    "RemoteSession",
    "RemoteRows",
    "parse_remote_url",
]

_EXECUTIONS = _metrics.registry.counter("remote.executions")
_FETCHES = _metrics.registry.counter("remote.fetches")
_CONNECTS = _metrics.registry.counter("remote.connects")


def parse_remote_url(url: str) -> Dict[str, Any]:
    """Split ``repro://host:port/dbname[?k=v...]`` into its parts."""
    parts = urlsplit(url)
    if parts.scheme.lower() != "repro":
        raise errors.ConnectionError_(
            f"not a repro:// URL: {url!r}"
        )
    if not parts.hostname:
        raise errors.ConnectionError_(
            f"malformed repro:// URL {url!r}; expected "
            "'repro://host:port/dbname'"
        )
    database = parts.path.lstrip("/")
    if not database:
        raise errors.ConnectionError_(
            f"repro:// URL {url!r} names no database; expected "
            "'repro://host:port/dbname'"
        )
    query = {
        key: values[-1]
        for key, values in parse_qs(parts.query).items()
    }
    return {
        "host": parts.hostname,
        "port": parts.port or protocol.DEFAULT_PORT,
        "database": database,
        "user": query.get("user"),
        "dialect": query.get("dialect"),
        "auth": query.get("auth"),
    }


class RemoteRows:
    """Lazy, list-like row sequence backed by a server-side cursor.

    Supports exactly the operations
    :class:`~repro.dbapi.resultset.ResultSet` performs on
    ``StatementResult.rows`` — ``len``, truthiness, integer indexing,
    slicing, iteration — fetching further pages over the wire only when
    the cursor position demands them.
    """

    def __init__(
        self,
        session: "RemoteSession",
        first_page: List[List[Any]],
        total: int,
        cursor_id: Optional[int],
    ) -> None:
        self._session = session
        self._rows: List[List[Any]] = first_page
        self._total = total
        self._cursor = cursor_id

    def __len__(self) -> int:
        return self._total

    def __bool__(self) -> bool:
        return self._total > 0

    def close(self) -> None:
        """Release the server-side cursor of a partially read result.

        Idempotent; a fully fetched result has no cursor left to close.
        Without this, abandoning a paged result would pin its remaining
        rows server-side until the TCP connection goes away — a leak on
        long-lived pooled connections.  :class:`~repro.dbapi.resultset
        .ResultSet.close` calls it automatically.
        """
        cursor, self._cursor = self._cursor, None
        if cursor is None or self._session.closed:
            return
        try:
            self._session._close_cursor(cursor)
        except errors.ReproError:
            pass  # dead link: the server reclaims cursors with the session

    def _fetch_more(self) -> None:
        if self._cursor is None:
            raise errors.InvalidCursorStateError(
                "remote cursor closed or exhausted early "
                "(result closed, or connection recycled?)"
            )
        _FETCHES.increment()
        payload = self._session._fetch_page(self._cursor)
        self._rows.extend(payload.get("rows", []))
        if payload.get("done"):
            self._cursor = None

    def _ensure(self, upto: int) -> None:
        """Fetch pages until at least ``upto`` rows are local."""
        upto = min(upto, self._total)
        while len(self._rows) < upto:
            self._fetch_more()

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            self._ensure(self._total)
            return self._rows[index]
        if index < 0:
            index += self._total
        if not 0 <= index < self._total:
            raise IndexError(index)
        self._ensure(index + 1)
        return self._rows[index]

    def __iter__(self) -> Iterator[List[Any]]:
        for index in range(self._total):
            yield self[index]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (list, RemoteRows)):
            return list(self) == list(other)
        return NotImplemented


class RemotePreparedPlan:
    """Client-side stand-in for the engine's ``PreparedStatementPlan``.

    The SQL is parsed locally (same grammar, the dialect announced in
    WELCOME), so syntax errors still surface at prepare time and
    :class:`~repro.dbapi.statement.CallableStatement` can inspect the
    CALL's argument list; execution ships the SQL to the server, where
    the engine-side plan cache makes repeated execution cheap.
    """

    def __init__(self, session: "RemoteSession", sql: str) -> None:
        self.session = session
        self.sql = sql
        self.statement = Parser(sql, session.dialect).parse_statement()

    def execute(self, params: Sequence[Any] = ()) -> StatementResult:
        return self.session.execute(self.sql, params)


class RemoteSession:
    """One TCP connection to a :class:`~repro.server.ReproServer`."""

    #: Duck-typed marker: profile customizations check this and fall
    #: back to dynamic SQL, since precompiled plans need local storage.
    is_remote = True

    def __init__(
        self,
        host: str,
        port: int,
        database: str,
        *,
        user: Optional[str] = None,
        dialect: Optional[str] = None,
        auth: Optional[str] = None,
        autocommit: bool = True,
        connect_timeout: float = 10.0,
    ) -> None:
        self.closed = True  # until the handshake succeeds
        self.user = user or "PUBLIC"
        self.database_name = database
        #: Client-side slow-query threshold (ms); set by
        #: ``repro.connect(slow_query_ms=...)``, None defers to the
        #: process-wide ``REPRO_SLOW_QUERY_MS`` setting.
        self.slow_query_ms: Optional[float] = None
        #: The server session's ``in_transaction``, as reported by its
        #: latest reply (every reply after the handshake carries it).
        self.in_transaction = False
        self._autocommit = bool(autocommit)
        self._connect_timeout = connect_timeout
        self._request_lock = threading.RLock()
        self._send_lock = threading.RLock()
        #: Client-assigned EXECUTE sequence numbers; CANCEL names the
        #: sequence it targets so the server can discard stale cancels.
        self._seq = 0
        self._inflight_seq = 0
        #: Describe id -> RowShape, filled from RESULT frames that carry
        #: a shape's triples (the server sends each once per connection).
        self._shapes: Dict[int, Optional[RowShape]] = {}
        faultpoints.trigger("net.connect")
        _CONNECTS.increment()
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise errors.ConnectionError_(
                f"cannot connect to repro server at {host}:{port}: {exc}"
            ) from exc
        # cancel() followed by the next execute() is two small writes
        # in a row: with Nagle on, the second waits out a delayed ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            # The connect timeout stays armed through the handshake: a
            # server that accepts but never answers HELLO must fail the
            # dial, not hang the caller (or a pool) indefinitely.
            protocol.send_frame(
                self._sock,
                MSG_HELLO,
                {
                    "magic": protocol.MAGIC,
                    "version": protocol.PROTOCOL_VERSION,
                    "database": database,
                    "dialect": dialect,
                    "user": user,
                    "auth": auth,
                    "autocommit": self._autocommit,
                },
            )
            msg_type, payload = protocol.recv_frame(self._sock)
            if msg_type == MSG_ERROR:
                raise protocol.rebuild_error(payload)
            if msg_type != MSG_WELCOME or not isinstance(payload, dict):
                raise errors.ProtocolError(
                    "server did not answer the handshake with WELCOME"
                )
        except BaseException:
            self._sock.close()
            raise
        self._sock.settimeout(None)  # statements may legitimately be slow
        self.server_version = payload.get("server_version", "")
        self.session_id = payload.get("session_id", 0)
        self._page_size = int(payload.get("page_size") or 256)
        dialect_name = payload.get("dialect") or "standard"
        self.dialect: Dialect = DIALECTS.get(
            dialect_name, DIALECTS["standard"]
        )
        self.closed = False

    # ------------------------------------------------------------------
    # request/response plumbing
    # ------------------------------------------------------------------

    def _teardown(self) -> None:
        """Mark dead after a transport failure; the stream state is
        unknown, so the socket must not be reused."""
        self.closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def _request(self, msg_type: int, payload: Any) -> Tuple[int, Any]:
        with self._request_lock:
            if self.closed:
                raise errors.ConnectionClosedError(
                    "remote session is closed"
                )
            try:
                with self._send_lock:
                    protocol.send_frame(self._sock, msg_type, payload)
                reply_type, reply = protocol.recv_frame(self._sock)
            except errors.ConnectionError_:
                self._teardown()
                raise
            except OSError as exc:
                self._teardown()
                raise errors.ConnectionLostError(
                    f"transport failure: {exc}"
                ) from exc
            if reply_type == MSG_GOODBYE:
                # Unsolicited: the server is shutting down.
                self._teardown()
                raise errors.ConnectionClosedError(
                    "server closed the connection: "
                    + str((reply or {}).get("reason", "goodbye"))
                )
            if isinstance(reply, dict) and "in_txn" in reply:
                self.in_transaction = bool(reply["in_txn"])
            if reply_type == MSG_ERROR:
                raise protocol.rebuild_error(reply)
            if reply_type == MSG_RESULT and "shape" in reply:
                # Resolved under the request lock: another thread's
                # reply may describe a new shape into the same slot.
                reply["shape"] = self._resolve_shape(reply)
            return reply_type, reply

    def _resolve_shape(self, reply: Dict[str, Any]) -> Optional[RowShape]:
        shape_id = reply["shape"]
        if "describe" in reply and shape_id in range(protocol.SHAPE_SLOTS):
            self._shapes[shape_id] = protocol.decode_shape(reply["describe"])
        if shape_id not in self._shapes:
            self._teardown()
            raise errors.ProtocolError(
                f"RESULT names shape {shape_id!r}, which the server "
                "never described"
            )
        return self._shapes[shape_id]

    def _expect(
        self, msg_type: int, payload: Any, expected: int
    ) -> Any:
        reply_type, reply = self._request(msg_type, payload)
        if reply_type != expected:
            self._teardown()
            raise errors.ProtocolError(
                f"expected {protocol.MESSAGE_NAMES[expected]}, got "
                f"{protocol.MESSAGE_NAMES.get(reply_type, reply_type)}"
            )
        return reply

    # ------------------------------------------------------------------
    # the session surface the dbapi layer consumes
    # ------------------------------------------------------------------

    def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> StatementResult:
        return self._build_result(self._run(MSG_EXECUTE, sql, list(params)))

    def execute_batch(
        self, sql: str, param_rows: Sequence[Sequence[Any]]
    ) -> List[int]:
        """Execute one DML statement against many parameter rows in a
        single round trip.

        The whole batch rides on ONE ``MSG_EXECUTE_BATCH`` frame —
        thousands of parameter rows cost one request/response cycle
        instead of one per row — and the server runs it through
        ``Session.execute_batch``, so the engine-side guarantees (one
        parse, one WAL record, one fsync barrier, all-or-nothing
        rollback) hold over the wire too.  Returns the per-row affected
        counts.
        """
        rows = [list(row) for row in param_rows]
        if not rows:
            return []
        reply = self._run(MSG_EXECUTE_BATCH, sql, rows, len(rows))
        return list(reply.get("update_counts") or [])

    def _run(
        self,
        msg_type: int,
        sql: str,
        params: List[Any],
        batch_rows: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One EXECUTE (or EXECUTE_BATCH of ``batch_rows`` rows) round
        trip, traced and slow-logged; returns the RESULT payload."""
        _EXECUTIONS.increment()
        with self._send_lock:
            self._seq += 1
            seq = self._inflight_seq = self._seq
        payload = {"sql": sql, "params": params, "seq": seq}
        tracer = _tracing.current
        slow_ms = _slowlog.effective_threshold(self)
        start = time.perf_counter() if slow_ms is not None else 0.0
        if tracer.enabled:
            with tracer.span(
                "remote.execute" if batch_rows is None
                else "remote.execute_batch",
                sql=sql,
                **({} if batch_rows is None else {"batch": batch_rows}),
            ) as span:
                # Ship this span's identity so the server parents its
                # spans under ours: one connected trace, two processes.
                payload["trace"] = {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                }
                reply = self._expect(msg_type, payload, MSG_RESULT)
        else:
            reply = self._expect(msg_type, payload, MSG_RESULT)
        if slow_ms is not None:
            # Client-side view of the same statement: includes network
            # time, carries no wait breakdown (that is in the server's
            # own record and in repro_stats.statements).
            _slowlog.maybe_log(
                self,
                sql=sql,
                key=None,
                seconds=time.perf_counter() - start,
                source="client",
                batch_rows=batch_rows,
            )
        return reply

    def prepare(self, sql: str) -> RemotePreparedPlan:
        return RemotePreparedPlan(self, sql)

    def explain(self, sql: str, params: Sequence[Any] = (),
                analyze: bool = False):
        """The server-side plan for ``sql`` as a typed PlanNode tree.

        Runs ``EXPLAIN (FORMAT JSON) <sql>`` over the wire — the JSON
        document is plain protocol data — and rebuilds the
        :class:`repro.engine.explain.PlanNode` tree client-side, so
        local and remote sessions expose the same introspection API.
        """
        import json

        from repro.engine.explain import PlanNode

        options = "ANALYZE, FORMAT JSON" if analyze else "FORMAT JSON"
        result = self.execute(f"EXPLAIN ({options}) {sql}", params)
        document = json.loads(result.rows[0][0])
        return PlanNode.from_dict(document["plan"])

    def commit(self) -> None:
        self._expect(MSG_COMMIT, None, MSG_OK)

    def rollback(self) -> None:
        self._expect(MSG_ROLLBACK, None, MSG_OK)

    @property
    def autocommit(self) -> bool:
        return self._autocommit

    @autocommit.setter
    def autocommit(self, enabled: bool) -> None:
        enabled = bool(enabled)
        if enabled == self._autocommit:
            return
        self._expect(MSG_AUTOCOMMIT, {"value": enabled}, MSG_OK)
        self._autocommit = enabled

    def close(self) -> None:
        if self.closed:
            return
        try:
            with self._send_lock:
                protocol.send_frame(
                    self._sock, MSG_GOODBYE, {"reason": "client close"}
                )
        except errors.ReproError:
            pass
        finally:
            self._teardown()

    def ping(self, timeout: Optional[float] = None) -> bool:
        """Round-trip liveness probe; False means the link is dead.

        ``ConnectionPool._healthy`` calls this (when present) so a dead
        TCP connection is detected at checkout, not handed to a caller.
        The probe is bounded: a server that accepted the connection but
        stopped responding fails the ping after ``timeout`` seconds
        (the connect timeout by default) instead of hanging the pool,
        and the timed-out session is marked dead — the stream may hold
        a late reply, so it cannot be reused.
        """
        if self.closed:
            return False
        if timeout is None:
            timeout = self._connect_timeout
        try:
            with self._request_lock:
                self._sock.settimeout(timeout)
                try:
                    self._expect(MSG_PING, None, MSG_OK)
                finally:
                    if not self.closed:
                        try:
                            self._sock.settimeout(None)
                        except OSError:
                            pass
            return True
        except errors.ReproError:
            return False
        except OSError:
            # The socket died under us (silently dropped connection).
            self._teardown()
            return False

    def cancel(self) -> None:
        """Ask the server to cancel the in-flight statement.

        Sent out of band (it does not wait for a response); the
        statement being cancelled fails with SQLSTATE 57014.  May be
        called from any thread.  The frame names the sequence number of
        the latest EXECUTE, so a cancel that arrives after its target
        already answered is discarded server-side rather than spilling
        onto the next statement.
        """
        if self.closed:
            return
        with self._send_lock:
            protocol.send_frame(
                self._sock, MSG_CANCEL, {"seq": self._inflight_seq}
            )

    # ------------------------------------------------------------------
    # result materialisation
    # ------------------------------------------------------------------

    def _fetch_page(self, cursor_id: int) -> Dict[str, Any]:
        return self._expect(
            MSG_FETCH,
            {"cursor": cursor_id, "max_rows": self._page_size},
            MSG_ROWS,
        )

    def _close_cursor(self, cursor_id: int) -> None:
        """Release a server-side cursor a result abandoned early."""
        self._expect(MSG_CLOSE_CURSOR, {"cursor": cursor_id}, MSG_OK)

    def _build_result(self, payload: Dict[str, Any]) -> StatementResult:
        first_page = payload.get("rows") or []
        result = StatementResult(
            payload.get("kind", "update"),
            shape=payload.get("shape"),
            update_count=payload.get("update_count", 0),
            out_values=payload.get("out_values"),
            result_sets=[
                StatementResult(
                    "rowset",
                    rows=nested.get("rows") or [],
                    shape=protocol.decode_shape(nested.get("shape")),
                )
                for nested in payload.get("result_sets") or []
            ],
        )
        result.rows = RemoteRows(
            self,
            first_page,
            payload.get("row_count", len(first_page)),
            payload.get("cursor"),
        )
        return result

    # ------------------------------------------------------------------
    # explicit non-features
    # ------------------------------------------------------------------

    @property
    def catalog(self) -> Any:
        raise errors.FeatureNotSupportedError(
            "remote connections do not expose the engine catalog; "
            "run metadata queries through SQL instead"
        )

    @property
    def database(self) -> Any:
        raise errors.FeatureNotSupportedError(
            "remote connections do not expose the engine database object"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return (
            f"<RemoteSession {self.database_name!r} "
            f"session={self.session_id} {state}>"
        )


class RemoteTarget:
    """Database-shaped factory for remote sessions.

    Quacks like :class:`~repro.engine.database.Database` exactly as far
    as ``DriverManager`` and ``ConnectionPool`` need: a ``name`` and a
    ``create_session(user=..., autocommit=...)`` that dials a fresh
    :class:`RemoteSession`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        name: str,
        *,
        dialect: Optional[str] = None,
        auth: Optional[str] = None,
        user: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name
        self.dialect_name = dialect
        self.auth = auth
        self.default_user = user

    @classmethod
    def from_url(cls, url: str) -> "RemoteTarget":
        parts = parse_remote_url(url)
        return cls(
            parts["host"],
            parts["port"],
            parts["database"],
            dialect=parts["dialect"],
            auth=parts["auth"],
            user=parts["user"],
        )

    def create_session(
        self,
        user: Optional[str] = None,
        autocommit: bool = True,
    ) -> RemoteSession:
        return RemoteSession(
            self.host,
            self.port,
            self.name,
            user=user or self.default_user,
            dialect=self.dialect_name,
            auth=self.auth,
            autocommit=autocommit,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RemoteTarget repro://{self.host}:{self.port}/{self.name}>"
        )
