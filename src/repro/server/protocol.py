"""Wire protocol shared by :mod:`repro.server` and the remote driver.

Every message is one *frame*::

    +----------------+-----------+------------------------+
    | length (u32 LE)| type (u8) | payload (typed data)   |
    +----------------+-----------+------------------------+

``length`` counts the payload bytes only (the type byte is excluded), so
an empty payload is a 5-byte frame.  Payloads use a **data-only** typed
encoding (:func:`encode_frame` / :func:`decode_payload`): one tag byte
per value, covering exactly the kinds of data SQL results are made of —
``None``, booleans, integers, floats, strings, bytes, decimals, dates,
times, datetimes, lists, tuples and dicts.  Decoding can only ever
build those types; there is no object construction, no class lookup and
no code path from bytes to behaviour, so a hostile peer that reaches
the socket can at worst send garbage, never execute code.  (This is why
the protocol does *not* use :mod:`pickle`, which the engine reserves
for trusted local files: WAL, checkpoints, profiles.)

The protocol is versioned through the HELLO/WELCOME handshake, and a
server refuses clients whose ``PROTOCOL_VERSION`` it does not speak.

The conversation is strict request/response from the client's point of
view, with two exceptions: CANCEL may be sent while an EXECUTE is
outstanding (the reply to the EXECUTE then becomes an ERROR with
SQLSTATE 57014), and the server may send an unsolicited GOODBYE when it
is shutting down and the session has no request in flight.

Message types and their payload dictionaries:

==============  ======  ====================================================
message         dir     payload
==============  ======  ====================================================
HELLO           c->s    magic, version, database, dialect, user, auth,
                        autocommit
WELCOME         s->c    server_version, protocol, database, dialect,
                        session_id, page_size
EXECUTE         c->s    sql, params, seq (statement sequence number),
                        trace (optional trace-context dict)
RESULT          s->c    kind, update_count, out_values, result_sets,
                        function_value, columns, shape (encoded — see
                        :func:`encode_shape`), rows (first page),
                        row_count, cursor (id or None), in_txn
FETCH           c->s    cursor, max_rows
ROWS            s->c    rows, done
CLOSE_CURSOR    c->s    cursor
COMMIT          c->s    --
ROLLBACK        c->s    --
AUTOCOMMIT      c->s    value
PING            c->s    --
OK              s->c    in_txn
CANCEL          c->s    seq of the EXECUTE it targets (out of band)
GOODBYE         both    reason
ERROR           s->c    error (class name), sqlstate, message, vendor_code,
                        in_txn (except during the handshake)
==============  ======  ====================================================

``in_txn`` is the server session's ``Session.in_transaction`` after the
request: true while any transaction state is open, a read snapshot
included, so the client (and a pool over it) knows when a session must
be rolled back before it changes hands.

Security note: frames carry data only, so a malicious peer cannot run
code through the wire format — but the transport itself is cleartext
and unauthenticated per-frame.  The optional ``auth`` token in HELLO
gates the *handshake* (compared in constant time); it does not encrypt
or sign traffic.  Expose the port only on trusted networks or behind a
TLS tunnel.
"""

from __future__ import annotations

import datetime
import decimal
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro import errors, faultpoints

__all__ = [
    "PROTOCOL_VERSION",
    "MAGIC",
    "DEFAULT_PORT",
    "MAX_FRAME",
    "MSG_HELLO",
    "MSG_WELCOME",
    "MSG_EXECUTE",
    "MSG_RESULT",
    "MSG_FETCH",
    "MSG_ROWS",
    "MSG_CLOSE_CURSOR",
    "MSG_COMMIT",
    "MSG_ROLLBACK",
    "MSG_AUTOCOMMIT",
    "MSG_PING",
    "MSG_OK",
    "MSG_CANCEL",
    "MSG_GOODBYE",
    "MSG_ERROR",
    "MSG_EXECUTE_BATCH",
    "MESSAGE_NAMES",
    "encode_frame",
    "decode_payload",
    "encode_shape",
    "decode_shape",
    "read_frame",
    "recv_frame",
    "send_frame",
    "error_payload",
    "rebuild_error",
]

#: v2 replaced the original pickled payloads with the typed data-only
#: encoding below; v1 peers are refused at the handshake.
PROTOCOL_VERSION = 2
MAGIC = "pysqlj"
DEFAULT_PORT = 7878

#: Upper bound on a single frame's payload; a peer announcing more is
#: treated as garbage (a torn frame read as a length, or an attack).
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct("<IB")  # payload length, message type

MSG_HELLO = 1
MSG_WELCOME = 2
MSG_EXECUTE = 3
MSG_RESULT = 4
MSG_FETCH = 5
MSG_ROWS = 6
MSG_CLOSE_CURSOR = 7
MSG_COMMIT = 8
MSG_ROLLBACK = 9
MSG_AUTOCOMMIT = 10
MSG_PING = 11
MSG_OK = 12
MSG_CANCEL = 13
MSG_GOODBYE = 14
MSG_ERROR = 15
MSG_EXECUTE_BATCH = 16

MESSAGE_NAMES = {
    MSG_HELLO: "HELLO",
    MSG_WELCOME: "WELCOME",
    MSG_EXECUTE: "EXECUTE",
    MSG_RESULT: "RESULT",
    MSG_FETCH: "FETCH",
    MSG_ROWS: "ROWS",
    MSG_CLOSE_CURSOR: "CLOSE_CURSOR",
    MSG_COMMIT: "COMMIT",
    MSG_ROLLBACK: "ROLLBACK",
    MSG_AUTOCOMMIT: "AUTOCOMMIT",
    MSG_PING: "PING",
    MSG_OK: "OK",
    MSG_CANCEL: "CANCEL",
    MSG_GOODBYE: "GOODBYE",
    MSG_ERROR: "ERROR",
    MSG_EXECUTE_BATCH: "EXECUTE_BATCH",
}


# ---------------------------------------------------------------------------
# Typed data-only value encoding
# ---------------------------------------------------------------------------
#
# One tag byte per value.  Length prefixes are u32 LE.  Only plain data
# types exist in the vocabulary; decoding therefore cannot construct
# arbitrary objects, whatever the peer sends.
#
#   N           None          T/F         True / False
#   i <i64>     small int     I <len,str> arbitrary-precision int
#   f <f64>     float         s <len,utf8> str        b <len> bytes
#   D <len,str> Decimal       a/m/z <len,iso> date / time / datetime
#   l/t <n,...> list / tuple  d <n,k,v...> dict

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1


def _encode_value(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
    elif isinstance(value, bool):
        out.append(b"T" if value else b"F")
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            text = str(value).encode("ascii")
            out.append(b"I")
            out.append(_U32.pack(len(text)))
            out.append(text)
    elif isinstance(value, float):
        out.append(b"f")
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(b"b")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, decimal.Decimal):
        text = str(value).encode("ascii")
        out.append(b"D")
        out.append(_U32.pack(len(text)))
        out.append(text)
    elif isinstance(value, datetime.datetime):
        text = value.isoformat().encode("ascii")
        out.append(b"z")
        out.append(_U32.pack(len(text)))
        out.append(text)
    elif isinstance(value, datetime.date):
        text = value.isoformat().encode("ascii")
        out.append(b"a")
        out.append(_U32.pack(len(text)))
        out.append(text)
    elif isinstance(value, datetime.time):
        text = value.isoformat().encode("ascii")
        out.append(b"m")
        out.append(_U32.pack(len(text)))
        out.append(text)
    elif isinstance(value, (list, tuple)):
        out.append(b"l" if isinstance(value, list) else b"t")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(b"d")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    else:
        raise errors.ProtocolError(
            f"{type(value).__name__} values cannot travel on the wire "
            "(data-only protocol)"
        )


class _Decoder:
    """Cursor over an encoded payload; raises ProtocolError on garbage."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise errors.ProtocolError("truncated frame payload")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def _sized_text(self) -> str:
        length = _U32.unpack(self._take(4))[0]
        return self._take(length).decode("utf-8")

    def value(self) -> Any:
        tag = self._take(1)
        if tag == b"N":
            return None
        if tag == b"T":
            return True
        if tag == b"F":
            return False
        if tag == b"i":
            return _I64.unpack(self._take(8))[0]
        if tag == b"I":
            return int(self._sized_text())
        if tag == b"f":
            return _F64.unpack(self._take(8))[0]
        if tag == b"s":
            return self._sized_text()
        if tag == b"b":
            length = _U32.unpack(self._take(4))[0]
            return self._take(length)
        if tag == b"D":
            return decimal.Decimal(self._sized_text())
        if tag == b"z":
            return datetime.datetime.fromisoformat(self._sized_text())
        if tag == b"a":
            return datetime.date.fromisoformat(self._sized_text())
        if tag == b"m":
            return datetime.time.fromisoformat(self._sized_text())
        if tag in (b"l", b"t"):
            count = _U32.unpack(self._take(4))[0]
            items = [self.value() for _ in range(count)]
            return items if tag == b"l" else tuple(items)
        if tag == b"d":
            count = _U32.unpack(self._take(4))[0]
            return {self.value(): self.value() for _ in range(count)}
        raise errors.ProtocolError(
            f"unknown value tag {tag!r} in frame payload"
        )


def encode_frame(msg_type: int, payload: Any = None) -> bytes:
    """Serialise one message to its on-wire bytes.

    Raises :class:`~repro.errors.ProtocolError` when the payload holds
    a value outside the data-only vocabulary (e.g. an archive-loaded
    object): such values are engine-local by design.
    """
    if payload is None:
        body = b""
    else:
        parts: List[bytes] = []
        _encode_value(payload, parts)
        body = b"".join(parts)
    if len(body) > MAX_FRAME:
        raise errors.ProtocolError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME}-byte limit"
        )
    return _HEADER.pack(len(body), msg_type) + body


def decode_payload(body: bytes) -> Any:
    """Decode a frame payload; only plain data values can result.

    Anything malformed — a pickle, random bytes, a truncated buffer,
    trailing garbage — raises :class:`~repro.errors.ProtocolError`.
    """
    if not body:
        return None
    decoder = _Decoder(body)
    try:
        value = decoder.value()
    except errors.ReproError:
        raise
    except Exception as exc:
        raise errors.ProtocolError(
            f"undecodable frame payload: {exc}"
        ) from exc
    if decoder.pos != len(decoder.data):
        raise errors.ProtocolError(
            f"{len(decoder.data) - decoder.pos} trailing bytes after "
            "frame payload"
        )
    return value


def parse_header(header: bytes) -> Tuple[int, int]:
    """Return ``(payload_length, msg_type)``, validating the length."""
    length, msg_type = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise errors.ProtocolError(
            f"peer announced a {length}-byte frame "
            f"(limit {MAX_FRAME}); stream is corrupt"
        )
    return length, msg_type


HEADER_SIZE = _HEADER.size


# ---------------------------------------------------------------------------
# Row-shape encoding (column metadata as plain data)
# ---------------------------------------------------------------------------


def encode_shape(shape: Any) -> Optional[List[List[Optional[str]]]]:
    """Flatten a :class:`~repro.engine.expressions.RowShape` to data.

    Each column becomes ``[alias, name, sql_spelling]``; the spelling
    (``"DECIMAL(6,2)"``) is re-parsed client-side, so column metadata
    survives the wire without shipping descriptor objects.
    """
    if shape is None:
        return None
    return [
        [
            column.alias,
            column.name,
            column.descriptor.sql_spelling()
            if column.descriptor is not None
            else None,
        ]
        for column in shape.columns
    ]


def decode_shape(data: Any) -> Any:
    """Rebuild a ``RowShape`` from :func:`encode_shape` output."""
    if not data:
        return None
    from repro.engine.expressions import ColumnInfo, RowShape
    from repro.sqltypes.core import parse_type

    columns = []
    for alias, name, spelling in data:
        descriptor = None
        if spelling:
            try:
                descriptor = parse_type(spelling)
            except errors.ReproError:
                descriptor = None
        columns.append(ColumnInfo(alias, name, descriptor))
    return RowShape(columns)


# ---------------------------------------------------------------------------
# Blocking-socket helpers
# ---------------------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise errors.ConnectionLostError(
                f"connection lost while reading: {exc}"
            ) from exc
        if not chunk:
            raise errors.ConnectionLostError(
                f"peer closed the connection mid-frame "
                f"({n - remaining} of {n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Tuple[int, Any]:
    """Read one frame from a blocking socket.

    Returns ``(msg_type, payload)``.  Raises
    :class:`~repro.errors.ConnectionLostError` on EOF or a torn frame
    and :class:`~repro.errors.ProtocolError` on an invalid header.
    """
    length, msg_type = parse_header(_recv_exact(sock, HEADER_SIZE))
    body = _recv_exact(sock, length) if length else b""
    try:
        return msg_type, decode_payload(body)
    except errors.ReproError:
        raise
    except Exception as exc:
        raise errors.ProtocolError(
            f"undecodable {MESSAGE_NAMES.get(msg_type, msg_type)} payload: "
            f"{exc}"
        ) from exc


def recv_frame(sock: socket.socket) -> Tuple[int, Any]:
    """Client side of :func:`read_frame`: fires the ``net.read``
    faultpoint first (the server's own sites are ``net.accept`` and
    ``net.respond``)."""
    faultpoints.trigger("net.read")
    return read_frame(sock)


def send_frame(sock: socket.socket, msg_type: int, payload: Any = None) -> None:
    """Write one frame to a blocking socket (client side).

    The encoded bytes pass through the ``net.write`` faultpoint, so a
    test plan can truncate them (torn frame) or delay them (slow peer).
    A *modified* payload means the plan tore the frame mid-write; since
    the stream is now desynchronised, that is reported as a lost
    connection — exactly what a real half-written frame becomes.
    """
    data = encode_frame(msg_type, payload)
    sent = faultpoints.pipe("net.write", data)
    try:
        sock.sendall(sent)
    except OSError as exc:
        raise errors.ConnectionLostError(
            f"connection lost while writing: {exc}"
        ) from exc
    if sent != data:
        raise errors.ConnectionLostError(
            "connection torn mid-frame (fault injected)"
        )


# ---------------------------------------------------------------------------
# Error frames
# ---------------------------------------------------------------------------


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """Flatten an exception into an ERROR frame payload.

    Non-:class:`~repro.errors.ReproError` exceptions (a bug in the
    server, an unencodable value) are reported as internal errors so the
    client always receives a typed, SQLSTATE-carrying exception.
    """
    if isinstance(exc, errors.ReproError):
        return {
            "error": type(exc).__name__,
            "sqlstate": exc.sqlstate,
            "message": exc.message,
            "vendor_code": exc.vendor_code,
        }
    return {
        "error": "OperatorExecutionError",
        "sqlstate": "XX000",
        "message": f"{type(exc).__name__}: {exc}",
        "vendor_code": 0,
    }


def rebuild_error(payload: Optional[Dict[str, Any]]) -> errors.ReproError:
    """Reconstruct a typed exception from an ERROR frame payload.

    The class is looked up by name in :mod:`repro.errors`; unknown names
    (a newer server) degrade to :class:`~repro.errors.SQLException`
    carrying the original SQLSTATE, so error *codes* survive version
    skew even when error *classes* do not.
    """
    payload = payload or {}
    cls = getattr(errors, payload.get("error", ""), None)
    if not (isinstance(cls, type) and issubclass(cls, errors.ReproError)):
        cls = errors.SQLException
    message = payload.get("message", "unknown server error")
    try:
        error = cls(
            message,
            sqlstate=payload.get("sqlstate") or None,
            vendor_code=payload.get("vendor_code", 0),
        )
    except TypeError:
        # Subclasses with bespoke constructors (position-carrying parse
        # errors, ...) still take the message; restore the wire codes on
        # the instance afterwards.
        error = cls(message)
        if payload.get("sqlstate"):
            error.sqlstate = payload["sqlstate"]
        error.vendor_code = payload.get("vendor_code", 0)
    return error
