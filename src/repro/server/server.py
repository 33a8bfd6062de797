"""Blocking-socket TCP server: one thread per ``repro://`` connection.

One :class:`ReproServer` owns a listening socket, one accept thread,
and one engine :class:`~repro.engine.database.Database` per database
name a client asks for — durable via ``registry.get_or_open_durable``
when the server is configured with a data directory.

Every admitted connection gets one thread that reads a frame, runs the
engine call **inline**, and writes exactly one response frame, so a
session's statements run strictly in order on one thread, exactly as
they do embedded.  The engine is thread-safe but blocking and
statements are not interruptible, so nothing sits between the socket
and the engine — no event loop, no request queue, no executor pool —
and ``max_connections`` is the one bound on engine-side concurrency.

Before and after each engine call the connection thread takes whatever
frames are already buffered on its socket (a zero-timeout readiness
check).  Requests keep their arrival order; a CANCEL is not queued but
arms the connection's cancel flag, which is how it overtakes the
statement it targets.  Cancellation is best-effort, as in real servers:
a statement whose CANCEL arrived ahead of it is cancelled for certain
(SQLSTATE 57014); a statement already executing runs to completion
inside the engine and its *response* is replaced by the 57014 error.
Each EXECUTE carries a client-assigned sequence number and CANCEL names
the sequence it targets, so a cancel that loses the race (arriving
after its statement already answered) is discarded instead of killing
the next statement.

Graceful shutdown closes the listener and shuts the read side of every
connection: an idle thread wakes at once, a busy one first answers the
statement in flight and the requests it had already read, then each
session gets GOODBYE and is closed.  Connections that do not drain
within the timeout are force-closed.
"""

from __future__ import annotations

import collections
import hmac
import os
import select
import socket
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import errors, faultpoints
from repro.dbapi.driver import registry
from repro.engine.database import StatementResult
from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.server import protocol
from repro.server.protocol import (
    MSG_AUTOCOMMIT, MSG_CANCEL, MSG_CLOSE_CURSOR, MSG_COMMIT, MSG_ERROR,
    MSG_EXECUTE, MSG_EXECUTE_BATCH, MSG_FETCH, MSG_GOODBYE, MSG_HELLO,
    MSG_OK, MSG_PING, MSG_RESULT, MSG_ROLLBACK, MSG_ROWS, MSG_WELCOME,
    SHAPE_SLOTS,
)

__all__ = ["ReproServer"]

_CONNECTIONS = _metrics.registry.counter("server.connections")
_REJECTED = _metrics.registry.counter("server.rejected")
_REQUESTS = _metrics.registry.counter("server.requests")
_ERRORS = _metrics.registry.counter("server.errors")
_CANCELLED = _metrics.registry.counter("server.cancelled")
_FETCHES = _metrics.registry.counter("server.fetches")
_REQUEST_SECONDS = _metrics.registry.histogram("server.request.seconds")
_EXECUTE_SECONDS = _metrics.registry.histogram("server.execute.seconds")

#: StatementResult fields a RESULT frame carries only when they differ
#: from these defaults.
_RESULT_DEFAULTS = (("update_count", 0), ("out_values", []))


class _ClientConnection:
    """One client's socket and session, owned by its connection thread.

    The only thing another thread does to it is ``stop_background``
    shutting the socket's read side to wake a blocked read.
    """

    def __init__(self, sock: socket.socket, session_id: int) -> None:
        self.sock = sock
        self.session_id = session_id
        self.session: Any = None
        self.database_name = ""
        self.thread: Optional[threading.Thread] = None
        self.poller = select.poll()
        self.poller.register(sock, select.POLLIN)
        #: Requests read off the socket but not yet answered, oldest
        #: first (CANCEL and GOODBYE never wait here).
        self.pending: Deque[Tuple[int, Any]] = collections.deque()
        #: No further frame will arrive: EOF, reset, a torn frame, or
        #: the client's own GOODBYE.
        self.eof = False
        self.cancel_armed = False
        #: Sequence number the armed CANCEL targets (None = any).
        self.cancel_seq: Optional[int] = None
        self.cursors: Dict[int, Tuple[list, int]] = {}
        self.next_cursor = 1
        #: Shapes this client holds: triples -> describe id, and the
        #: triples each id slot carries (a new shape takes the oldest).
        self.shape_ids: Dict[tuple, int] = {}
        self.shape_slots: List[Optional[tuple]] = [None] * SHAPE_SLOTS
        self.next_shape = 0


class ReproServer:
    """Serve one or more engine databases over TCP.

    Parameters
    ----------
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port; the bound
        port is available as ``self.port`` after
        :meth:`start_background`.
    data_dir:
        When set, databases are opened durably under
        ``<data_dir>/<name>`` (WAL + checkpoints + crash recovery).
        When ``None``, databases are in-memory.
    dialect:
        Engine dialect for databases this server creates.
    max_connections:
        Hard cap on concurrent client connections; clients beyond it
        are refused with SQLSTATE 08004.  Each connection is one
        thread, so this also bounds engine-side concurrency exactly
        like a connection pool's ``max_size`` does in-process.
    page_size:
        Rows per result page on the wire.  The first page rides on the
        RESULT frame; the remainder is fetched on demand.
    max_cursors:
        Open paged-result cursors a session may pin at once; beyond it
        the least-recently-fetched cursor is dropped, so clients that
        abandon partially read results cannot pin rows server-side
        forever.  (Well-behaved clients CLOSE_CURSOR explicitly.)
    auth_token:
        When set, clients must present the same token in HELLO.  The
        token gates the handshake only — frames are cleartext and
        carry data, not credentials; see ``docs/SERVER.md``.
    slow_query_ms:
        When set, every session this server opens logs statements
        slower than this threshold to the structured slow-query log
        (``docs/OBSERVABILITY.md``); overrides ``REPRO_SLOW_QUERY_MS``.
    durability_options:
        Passed through to ``registry.get_or_open_durable``:
        ``group_window``, ``group_size``, ``sync``,
        ``checkpoint_interval``; ``storage`` is accepted and ignored
        (every durable database uses the LSM store).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        data_dir: Optional[str] = None,
        dialect: str = "standard",
        max_connections: int = 64,
        page_size: int = 256,
        max_cursors: int = 64,
        auth_token: Optional[str] = None,
        slow_query_ms: Optional[float] = None,
        **durability_options: Any,
    ) -> None:
        self.host = host
        self.port = port
        self.data_dir = data_dir
        self.dialect = dialect
        self.max_connections = max_connections
        self.page_size = page_size
        self.max_cursors = max_cursors
        self.auth_token = auth_token
        #: Per-session slow-query threshold applied to every session this
        #: server opens; ``None`` falls back to ``REPRO_SLOW_QUERY_MS``.
        self.slow_query_ms = slow_query_ms
        self.durability_options = durability_options
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        #: Guards ``_connections`` and ``_closing``.
        self._lock = threading.Lock()
        #: Every admitted connection, handshaken or not: a socket still
        #: inside its 30s HELLO window counts toward ``max_connections``
        #: so a flood of silent peers cannot exceed the cap.
        self._connections: set = set()
        self._closing = False
        self._next_session_id = 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start_background(self) -> "ReproServer":
        """Bind the listening socket and accept on a background thread.

        Returns once the socket is bound (``self.port`` is final); the
        calling thread is free to do anything else, including nothing
        (``python -m repro.server`` just waits for a signal).
        """
        self._listener = socket.create_server(
            (self.host, self.port),
            family=socket.AF_INET6 if ":" in self.host else socket.AF_INET,
            backlog=100,
        )
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name="repro-server-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def stop_background(self, drain_timeout: float = 10.0) -> None:
        """Graceful shutdown: refuse new connections, drain in-flight
        requests, GOODBYE every session, then force-close stragglers."""
        if self._listener is None:
            return
        deadline = time.monotonic() + drain_timeout
        with self._lock:
            self._closing = True
            conns = list(self._connections)
        # close() alone leaves a thread blocked in accept() asleep;
        # shutting the listener down first wakes it.
        _shutdown(self._listener, socket.SHUT_RDWR)
        self._accept_thread.join(timeout=30)
        self._listener.close()
        self._listener = None
        for conn in conns:
            # Wakes a thread blocked reading (idle, or still waiting for
            # HELLO); a busy one sees the EOF after its engine call.
            # The write side stays open for the responses and GOODBYE.
            _shutdown(conn.sock, socket.SHUT_RD)
        for conn in conns:
            conn.thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if conn.thread.is_alive():
                # Still inside an uninterruptible engine call: cut the
                # link; the thread cleans up when the call returns.
                _shutdown(conn.sock, socket.SHUT_RDWR)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while True:
            try:
                sock, _address = listener.accept()
            except OSError:
                return  # listener shut down by stop_background()
            try:
                faultpoints.trigger("net.accept")
            except Exception:
                sock.close()
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _ClientConnection(sock, self._next_session_id)
            self._next_session_id += 1
            conn.thread = threading.Thread(
                target=self._serve,
                args=(conn,),
                name=f"repro-server-conn-{conn.session_id}",
                daemon=True,
            )
            with self._lock:
                if self._closing:
                    refusal = "server is shutting down"
                elif len(self._connections) >= self.max_connections:
                    refusal = "server connection limit reached"
                else:
                    refusal = None
                    self._connections.add(conn)
                    conn.thread.start()
            if refusal is not None:
                _REJECTED.increment()
                error = errors.ConnectionError_(refusal, sqlstate="08004")
                self._send(conn, MSG_ERROR, protocol.error_payload(error))
                sock.close()

    def _serve(self, conn: _ClientConnection) -> None:
        """Body of one connection thread: handshake, converse, clean up."""
        try:
            if self._handshake(conn):
                _CONNECTIONS.increment()
                sessions = f"server.{conn.database_name}.sessions"
                _metrics.increment(sessions)
                try:
                    self._converse(conn)
                finally:
                    _metrics.increment(sessions, -1)
        finally:
            try:
                if conn.session is not None and not conn.session.closed:
                    conn.session.close()  # rolls back an open transaction
            finally:
                conn.sock.close()
                with self._lock:
                    self._connections.discard(conn)

    def _handshake(self, conn: _ClientConnection) -> bool:
        """Validate HELLO, open the session, answer WELCOME or ERROR."""
        conn.sock.settimeout(30.0)
        try:
            msg_type, payload = protocol.read_frame(conn.sock)
        except (errors.ReproError, OSError):
            return False  # silent for 30s, vanished, or sent garbage
        conn.sock.settimeout(None)
        try:
            if msg_type != MSG_HELLO or not isinstance(payload, dict):
                raise errors.ProtocolError("expected HELLO")
            if payload.get("magic") != protocol.MAGIC:
                raise errors.ProtocolError("bad protocol magic")
            if payload.get("version") != protocol.PROTOCOL_VERSION:
                raise errors.ProtocolError(
                    f"unsupported protocol version "
                    f"{payload.get('version')!r} "
                    f"(server speaks {protocol.PROTOCOL_VERSION})"
                )
            if self.auth_token is not None:
                token = payload.get("auth") or ""
                if not hmac.compare_digest(str(token), self.auth_token):
                    raise errors.AuthorizationError(
                        "invalid authentication token"
                    )
            database_name = payload.get("database") or "db"
            database = self._open_database(
                database_name, payload.get("dialect") or self.dialect
            )
            conn.session = database.create_session(
                user=payload.get("user") or "PUBLIC",
                autocommit=bool(payload.get("autocommit", True)),
            )
            if self.slow_query_ms is not None:
                conn.session.slow_query_ms = self.slow_query_ms
            conn.database_name = database_name
        except Exception as exc:
            _ERRORS.increment()
            self._send(conn, MSG_ERROR, protocol.error_payload(exc))
            return False
        from repro import __version__

        return self._send(
            conn,
            MSG_WELCOME,
            {
                "server_version": __version__,
                "protocol": protocol.PROTOCOL_VERSION,
                "database": conn.database_name,
                "dialect": conn.session.dialect.name,
                "session_id": conn.session_id,
                "page_size": self.page_size,
            },
        )

    def _open_database(self, name: str, dialect: str) -> Any:
        if self.data_dir is not None:
            return registry.get_or_open_durable(
                name,
                dialect,
                os.path.join(self.data_dir, name),
                **self.durability_options,
            )
        return registry.get_or_create(name, dialect)

    # ------------------------------------------------------------------
    # Request loop
    # ------------------------------------------------------------------

    def _read_one(self, conn: _ClientConnection) -> None:
        """Block for the next frame and file it on the connection."""
        try:
            msg_type, payload = protocol.read_frame(conn.sock)
        except (errors.ReproError, OSError):
            # EOF, reset, torn or undecodable frame: the stream cannot
            # be trusted past this point.
            conn.eof = True
            return
        if msg_type == MSG_CANCEL:
            # Out of band: overtake the request it follows.  The payload
            # names the EXECUTE sequence it targets so a cancel landing
            # after its statement already answered cannot spill onto
            # the next unrelated statement.
            conn.cancel_seq = (
                payload.get("seq") if isinstance(payload, dict) else None
            )
            conn.cancel_armed = True
        elif msg_type == MSG_GOODBYE:
            conn.eof = True
        else:
            conn.pending.append((msg_type, payload))

    def _read_ahead(self, conn: _ClientConnection) -> None:
        """Take every frame already buffered on the socket, never
        waiting for one that has not started to arrive."""
        while not conn.eof and conn.poller.poll(0):
            self._read_one(conn)

    def _converse(self, conn: _ClientConnection) -> None:
        while True:
            if not conn.pending:
                if self._closing:
                    self._send(
                        conn, MSG_GOODBYE, {"reason": "server shutting down"}
                    )
                    return
                if conn.eof:
                    return
                self._read_one(conn)
                continue
            msg_type, payload = conn.pending.popleft()
            _REQUESTS.increment()
            start = time.perf_counter()
            try:
                reply_type, reply = self._dispatch(conn, msg_type, payload)
            except Exception as exc:
                _ERRORS.increment()
                if (
                    isinstance(exc, errors.ReproError)
                    and exc.sqlstate == "57014"
                ):
                    _CANCELLED.increment()
                reply_type, reply = MSG_ERROR, protocol.error_payload(exc)
                reply["in_txn"] = conn.session.in_transaction
            _REQUEST_SECONDS.observe(time.perf_counter() - start)
            if not self._send(conn, reply_type, reply):
                return  # peer is gone; _serve cleans up

    def _dispatch(
        self, conn: _ClientConnection, msg_type: int, payload: Any
    ) -> Tuple[int, Any]:
        session = conn.session
        if msg_type == MSG_EXECUTE or msg_type == MSG_EXECUTE_BATCH:
            return self._do_execute(
                conn, payload or {}, msg_type == MSG_EXECUTE_BATCH
            )
        if msg_type == MSG_FETCH:
            _FETCHES.increment()
            return self._do_fetch(conn, payload or {})
        if msg_type == MSG_CLOSE_CURSOR:
            conn.cursors.pop((payload or {}).get("cursor"), None)
        elif msg_type == MSG_COMMIT:
            session.commit()
        elif msg_type == MSG_ROLLBACK:
            session.rollback()
        elif msg_type == MSG_AUTOCOMMIT:
            session.autocommit = bool((payload or {}).get("value", True))
        elif msg_type != MSG_PING:
            raise errors.ProtocolError(
                f"unexpected message type "
                f"{protocol.MESSAGE_NAMES.get(msg_type, msg_type)}"
            )
        return MSG_OK, {"in_txn": session.in_transaction}

    @staticmethod
    def _consume_cancel(conn: _ClientConnection, seq: Optional[int]) -> bool:
        """True when an armed CANCEL targets statement ``seq``.

        A stale cancel — one naming a statement that already answered —
        is discarded instead of cancelling the next unrelated
        statement; a cancel naming a later statement stays armed until
        that statement is dispatched.
        """
        if not conn.cancel_armed:
            return False
        target = conn.cancel_seq
        hit = target is None or seq is None or target == seq
        if hit or target < seq:
            conn.cancel_armed = False
            conn.cancel_seq = None
        return hit

    def _do_execute(
        self, conn: _ClientConnection, payload: Dict[str, Any], batch: bool
    ) -> Tuple[int, Any]:
        """EXECUTE and EXECUTE_BATCH: one frame = one engine call.

        A batch's whole parameter-row set arrives in a single frame,
        runs as one atomic statement in the engine (one parse, one WAL
        record, one fsync barrier), and answers with one RESULT frame
        carrying the per-row counts — a 10k-row ingest is one round
        trip.
        """
        seq = payload.get("seq")
        self._read_ahead(conn)
        if self._consume_cancel(conn, seq):
            raise errors.QueryCanceledError(
                "statement cancelled before execution"
            )
        sql = payload.get("sql", "")
        params = payload.get("params") or ()
        session = conn.session
        # Continue the client's trace: the span adopts the client's span
        # as its remote parent, and the engine's own statement/plan/
        # execute spans nest under it on this same thread — one
        # connected span tree across the wire.
        span = _tracing.current.span(
            "server.execute_batch" if batch else "server.execute",
            sql=sql,
            session=conn.session_id,
            **({"batch": len(params)} if batch else {}),
        )
        trace = payload.get("trace")
        if isinstance(trace, dict) and trace.get("trace_id"):
            span.set_remote_parent(trace["trace_id"], trace.get("span_id"))
        start = time.perf_counter()
        with span:
            if batch:
                counts = session.execute_batch(sql, params)
                result = StatementResult("update", update_count=sum(counts))
            else:
                result = session.execute(sql, params)
        _EXECUTE_SECONDS.observe(time.perf_counter() - start)
        self._read_ahead(conn)
        if self._consume_cancel(conn, seq):
            # The engine finished anyway (statements are not
            # interruptible mid-flight); honour the cancel by replacing
            # the response, as real servers racing a cancel packet do.
            raise errors.QueryCanceledError("statement cancelled")
        reply = self._result_payload(conn, result)
        if batch:
            reply["update_counts"] = list(counts)
        return MSG_RESULT, reply

    def _do_fetch(
        self, conn: _ClientConnection, payload: Dict[str, Any]
    ) -> Tuple[int, Any]:
        cursor_id = payload.get("cursor")
        entry = conn.cursors.get(cursor_id)
        if entry is None:
            raise errors.InvalidCursorStateError(
                f"unknown or exhausted cursor {cursor_id!r}"
            )
        rows, position = entry
        max_rows = int(payload.get("max_rows") or self.page_size)
        page = rows[position : position + max_rows]
        position += len(page)
        del conn.cursors[cursor_id]
        if position >= len(rows):
            return MSG_ROWS, {"rows": page, "done": True}
        # Re-insert so the dict's order is least-recently-fetched first,
        # which is the eviction order when max_cursors overflows.
        conn.cursors[cursor_id] = (rows, position)
        return MSG_ROWS, {"rows": page, "done": False}

    def _result_payload(
        self, conn: _ClientConnection, result: Any
    ) -> Dict[str, Any]:
        """The RESULT frame: every field holding its default is left
        out, and the shape travels as a describe id."""
        reply: Dict[str, Any] = {
            "kind": result.kind,
            "in_txn": conn.session.in_transaction,
        }
        if result.shape is not None:
            self._describe(conn, result.shape, reply)
        rows = result.rows
        if rows:
            reply["rows"] = rows[: self.page_size]
        if len(rows) > self.page_size:
            cursor_id = conn.next_cursor
            conn.next_cursor += 1
            conn.cursors[cursor_id] = (rows, self.page_size)
            while len(conn.cursors) > self.max_cursors:
                conn.cursors.pop(next(iter(conn.cursors)))
            reply["row_count"] = len(rows)
            reply["cursor"] = cursor_id
        for field, default in _RESULT_DEFAULTS:
            if getattr(result, field) != default:
                reply[field] = getattr(result, field)
        if result.result_sets:
            reply["result_sets"] = [
                {"rows": nested.rows,
                 "shape": protocol.encode_shape(nested.shape)}
                for nested in result.result_sets
            ]
        return reply

    @staticmethod
    def _describe(
        conn: _ClientConnection, shape: Any, reply: Dict[str, Any]
    ) -> None:
        """Name ``shape`` by its describe id, adding its triples only
        the first time this connection sees it (describe once)."""
        triples = protocol.encode_shape(shape)
        key = tuple(map(tuple, triples))
        shape_id = conn.shape_ids.get(key)
        if shape_id is None:
            shape_id = conn.next_shape % SHAPE_SLOTS
            conn.next_shape += 1
            conn.shape_ids.pop(conn.shape_slots[shape_id], None)
            conn.shape_slots[shape_id] = key
            conn.shape_ids[key] = shape_id
            reply["describe"] = triples
        reply["shape"] = shape_id

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _send(
        self, conn: _ClientConnection, msg_type: int, payload: Any
    ) -> bool:
        """Write one frame; False when the link is gone or was torn."""
        try:
            data = protocol.encode_frame(msg_type, payload)
        except Exception as exc:
            # Result outside the data-only vocabulary (e.g. rows or OUT
            # values holding archive-loaded objects, which the README
            # documents as engine-local).  Degrade to a typed error
            # rather than a hung client, which then never saw the
            # triples of a shape described here.
            if "describe" in payload:
                conn.shape_ids.pop(conn.shape_slots[payload["shape"]])
                conn.shape_slots[payload["shape"]] = None
            data = protocol.encode_frame(
                MSG_ERROR,
                protocol.error_payload(
                    errors.FeatureNotSupportedError(
                        f"result is not serialisable over the wire: {exc}"
                    )
                ),
            )
        try:
            sent = faultpoints.pipe("net.respond", data)
            conn.sock.sendall(sent)
        except Exception:
            # OSError from a dead peer — or anything at all, because
            # net.respond is a fault-injection site.
            return False
        # A plan that tore/garbled the response desynchronised the
        # stream: the caller drops the link the way a real mid-response
        # disconnect would.
        return sent == data


def _shutdown(sock: socket.socket, how: int) -> None:
    try:
        sock.shutdown(how)
    except OSError:
        pass  # already disconnected or closed
