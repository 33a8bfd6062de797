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
times, datetimes, lists, tuples and dicts — plus *row pages*, which
carry a list of rows column by column.  Decoding can only ever
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
is shutting down and the session has no request in flight.  Payloads
are dicts (or empty); ``docs/SERVER.md`` ("Wire protocol") lists each
message's fields.  Two rules shape them:

* a RESULT frame leaves out every field that holds its default, and
  names its row shape by a *describe id*: the ``[alias, name,
  spelling]`` triples (:func:`encode_shape`) ride along only the first
  time a connection sees the shape, and the client keeps the decoded
  ``RowShape`` per id (at most :data:`SHAPE_SLOTS` of them);
* ``in_txn`` (on RESULT, OK and ERROR) is the server session's
  ``Session.in_transaction`` after the request: true while any
  transaction state is open, a read snapshot included, so the client
  (and a pool over it) knows when a session must be rolled back before
  it changes hands.

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
import itertools
import socket
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import errors, faultpoints

__all__ = [
    "PROTOCOL_VERSION", "MAGIC", "DEFAULT_PORT", "MAX_FRAME",
    "SHAPE_SLOTS", "MSG_HELLO", "MSG_WELCOME", "MSG_EXECUTE", "MSG_RESULT",
    "MSG_FETCH", "MSG_ROWS", "MSG_CLOSE_CURSOR", "MSG_COMMIT",
    "MSG_ROLLBACK", "MSG_AUTOCOMMIT", "MSG_PING", "MSG_OK", "MSG_CANCEL",
    "MSG_GOODBYE", "MSG_ERROR", "MSG_EXECUTE_BATCH", "MESSAGE_NAMES",
    "encode_frame", "decode_payload", "encode_shape", "decode_shape",
    "read_frame", "recv_frame", "send_frame", "error_payload",
    "rebuild_error",
]

#: v2 replaced the original pickled payloads with the typed data-only
#: encoding below; v3 added row pages and describe-once RESULT frames.
#: Peers of any other version are refused at the handshake.
PROTOCOL_VERSION = 3
MAGIC = "pysqlj"
DEFAULT_PORT = 7878

#: Upper bound on a single frame's payload; a peer announcing more is
#: treated as garbage (a torn frame read as a length, or an attack).
MAX_FRAME = 64 * 1024 * 1024

#: Describe ids a connection uses: a RESULT's ``shape`` is an id in
#: ``range(SHAPE_SLOTS)``, and a new shape reuses the oldest slot, so
#: both ends hold at most this many described shapes.
SHAPE_SLOTS = 64

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
    value: name[4:] for name, value in globals().items()
    if name.startswith("MSG_")
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
#   P <n,w, w columns>        row page: a list of n >= 3 lists (rows)
#                             of w >= 1 values each
#
# A row page stores its values column by column, each column one kind
# byte and one block: ``i`` = n i64s, ``s`` = n u32 character counts, a
# u32 byte count and the column's UTF-8 text, ``v`` = n tagged values.
# Encoding dispatches on the value's exact type (``_ENCODERS``);
# decoding reads by position through a table keyed on the tag byte
# (``_DECODERS``).

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_PAGE = struct.Struct("<cII")  # P, rows, width
_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1
_INT, _STR, _LIST = frozenset([int]), frozenset([str]), frozenset([list])
#: Below this many rows, a page's per-column headers cost more to
#: write and read than tagging each value.
_PAGE_MIN_ROWS = 3
_SIZED = struct.Struct("<cI")  # tag, byte length
_TAGGED_I64 = struct.Struct("<cq")
_TAGGED_F64 = struct.Struct("<cd")


def _put_sized(tag: bytes, data: bytes, out: bytearray) -> None:
    out += _SIZED.pack(tag, len(data))
    out += data


def _put_int(value: int, out: bytearray) -> None:
    if _I64_MIN <= value <= _I64_MAX:
        out += _TAGGED_I64.pack(b"i", value)
    else:
        _put_sized(b"I", str(value).encode("ascii"), out)


def _put_items(tag: bytes, items: Any, out: bytearray) -> None:
    out += _SIZED.pack(tag, len(items))
    for item in items:
        _encoder(item)(item, out)


def _put_list(value: list, out: bytearray) -> None:
    if not (len(value) >= _PAGE_MIN_ROWS and _put_page(value, out)):
        _put_items(b"l", value, out)


def _put_dict(value: dict, out: bytearray) -> None:
    out += _SIZED.pack(b"d", len(value))
    for key, item in value.items():
        _encoder(key)(key, out)
        _encoder(item)(item, out)


def _put_page(rows: list, out: bytearray) -> bool:
    """Encode ``rows`` as one row page; False when they are not lists
    of one width (the caller lists them value by value)."""
    width = len(rows[0]) if type(rows[0]) is list else 0
    if not width or set(map(type, rows)) != _LIST \
            or set(map(len, rows)) != {width}:
        return False
    count = len(rows)
    out += _PAGE.pack(b"P", count, width)
    ints = lengths = None
    for column in zip(*rows):
        kinds = set(map(type, column))
        if kinds == _INT and _I64_MIN <= min(column) \
                and max(column) <= _I64_MAX:
            ints = ints or struct.Struct(f"<{count}q")
            out += b"i"
            out += ints.pack(*column)
        elif kinds == _STR:
            lengths = lengths or struct.Struct(f"<{count}I")
            data = "".join(column).encode("utf-8")
            out += b"s"
            out += lengths.pack(*map(len, column))
            out += _U32.pack(len(data))
            out += data
        else:
            out += b"v"
            for value in column:
                _encoder(value)(value, out)
    return True


def _put_iso(tag: bytes) -> Callable[[Any, bytearray], None]:
    return lambda value, out: _put_sized(
        tag, value.isoformat().encode("ascii"), out
    )


_ENCODERS: Dict[type, Callable[[Any, bytearray], None]] = {
    type(None): lambda value, out: out.extend(b"N"),
    bool: lambda value, out: out.extend(b"T" if value else b"F"),
    int: _put_int,
    float: lambda value, out: out.extend(_TAGGED_F64.pack(b"f", value)),
    str: lambda value, out: _put_sized(b"s", value.encode("utf-8"), out),
    bytes: lambda value, out: _put_sized(b"b", bytes(value), out),
    decimal.Decimal: lambda value, out: _put_sized(
        b"D", str(value).encode("ascii"), out
    ),
    datetime.datetime: _put_iso(b"z"),
    datetime.date: _put_iso(b"a"),
    datetime.time: _put_iso(b"m"),
    list: _put_list,
    tuple: lambda value, out: _put_items(b"t", value, out),
    dict: _put_dict,
}
_ENCODERS[bytearray] = _ENCODERS[memoryview] = _ENCODERS[bytes]


def _encoder(value: Any) -> Callable[[Any, bytearray], None]:
    """The encoder for ``value``'s type; a subclass of a wire type (an
    IntEnum, a str subclass) travels as its nearest wire base."""
    encoder = _ENCODERS.get(type(value))
    if encoder is not None:
        return encoder
    for base in type(value).__mro__:
        if base in _ENCODERS:
            return _ENCODERS[base]
    raise errors.ProtocolError(
        f"{type(value).__name__} values cannot travel on the wire "
        "(data-only protocol)"
    )


def _end(data: bytes, pos: int, size: int) -> int:
    """``pos + size``, which must not pass the end of the payload."""
    if pos + size > len(data):
        raise errors.ProtocolError("truncated frame payload")
    return pos + size


def _get_sized(data: bytes, pos: int) -> Tuple[bytes, int]:
    end = _end(data, pos + 4, _U32.unpack_from(data, pos)[0])
    return data[pos + 4:end], end


def _get_str(data: bytes, pos: int) -> Tuple[str, int]:
    end = _end(data, pos + 4, _U32.unpack_from(data, pos)[0])
    return data[pos + 4:end].decode("utf-8"), end


def _get_text(convert: Callable[[str], Any]) -> Callable:
    def decode(data: bytes, pos: int) -> Tuple[Any, int]:
        text, pos = _get_str(data, pos)
        return convert(text), pos

    return decode


def _get_items(data: bytes, pos: int) -> Tuple[List[Any], int]:
    count = _U32.unpack_from(data, pos)[0]
    pos += 4
    items = []
    for _ in range(count):
        item, pos = _DECODERS[data[pos]](data, pos + 1)
        items.append(item)
    return items, pos


def _get_tuple(data: bytes, pos: int) -> Tuple[tuple, int]:
    items, pos = _get_items(data, pos)
    return tuple(items), pos


def _get_dict(data: bytes, pos: int) -> Tuple[dict, int]:
    count = _U32.unpack_from(data, pos)[0]
    pos += 4
    result = {}
    for _ in range(count):
        key, pos = _DECODERS[data[pos]](data, pos + 1)
        result[key], pos = _DECODERS[data[pos]](data, pos + 1)
    return result, pos


def _get_page(data: bytes, pos: int) -> Tuple[list, int]:
    _tag, count, width = _PAGE.unpack_from(data, pos - 1)
    pos += _PAGE.size - 1
    if not width:
        raise errors.ProtocolError("row page without columns")
    columns: List[Any] = []
    for _ in range(width):
        kind = data[pos]
        pos += 1
        if kind == 0x69:  # i
            end = _end(data, pos, 8 * count)
            columns.append(struct.unpack_from(f"<{count}q", data, pos))
        elif kind == 0x73:  # s
            end = _end(data, pos, 4 * count)
            lengths = struct.unpack_from(f"<{count}I", data, pos)
            text, end = _get_str(data, end)
            bounds = [0, *itertools.accumulate(lengths)]
            if bounds[-1] != len(text):
                raise errors.ProtocolError(
                    "row page text column does not match its lengths"
                )
            columns.append(
                [text[a:b] for a, b in zip(bounds, bounds[1:])]
            )
        elif kind == 0x76:  # v
            column, end = [], pos
            for _ in range(count):
                value, end = _DECODERS[data[end]](data, end + 1)
                column.append(value)
            columns.append(column)
        else:
            raise errors.ProtocolError(
                f"unknown row page column kind {bytes([kind])!r}"
            )
        pos = end
    return list(map(list, zip(*columns))), pos


#: Tag byte -> ``decoder(data, pos) -> (value, end)``; an unknown tag
#: is a KeyError, reported by :func:`decode_payload`.
_DECODERS: Dict[int, Callable[[bytes, int], Tuple[Any, int]]] = {
    ord(tag): decoder
    for tag, decoder in {
        "N": lambda data, pos: (None, pos),
        "T": lambda data, pos: (True, pos),
        "F": lambda data, pos: (False, pos),
        "i": lambda data, pos: (_I64.unpack_from(data, pos)[0], pos + 8),
        "f": lambda data, pos: (_F64.unpack_from(data, pos)[0], pos + 8),
        "I": _get_text(int),
        "s": _get_str,
        "b": _get_sized,
        "D": _get_text(decimal.Decimal),
        "z": _get_text(datetime.datetime.fromisoformat),
        "a": _get_text(datetime.date.fromisoformat),
        "m": _get_text(datetime.time.fromisoformat),
        "l": _get_items,
        "t": _get_tuple,
        "d": _get_dict,
        "P": _get_page,
    }.items()
}


def encode_frame(msg_type: int, payload: Any = None) -> bytes:
    """Serialise one message to its on-wire bytes.

    Raises :class:`~repro.errors.ProtocolError` when the payload holds
    a value outside the data-only vocabulary (e.g. an archive-loaded
    object): such values are engine-local by design.
    """
    frame = bytearray(_HEADER.size)
    if payload is not None:
        _encoder(payload)(payload, frame)
    length = len(frame) - _HEADER.size
    if length > MAX_FRAME:
        raise errors.ProtocolError(
            f"frame payload of {length} bytes exceeds the "
            f"{MAX_FRAME}-byte limit"
        )
    _HEADER.pack_into(frame, 0, length, msg_type)
    return bytes(frame)


def decode_payload(body: bytes) -> Any:
    """Decode a frame payload; only plain data values can result.

    Anything malformed — a pickle, random bytes, a truncated buffer,
    an unknown tag, trailing garbage — raises
    :class:`~repro.errors.ProtocolError`.
    """
    if not body:
        return None
    try:
        value, pos = _DECODERS[body[0]](body, 1)
    except errors.ReproError:
        raise
    except KeyError as exc:
        raise errors.ProtocolError(
            f"unknown value tag {bytes(exc.args)!r} in frame payload"
        ) from exc
    except (IndexError, struct.error) as exc:
        raise errors.ProtocolError("truncated frame payload") from exc
    except Exception as exc:
        raise errors.ProtocolError(
            f"undecodable frame payload: {exc}"
        ) from exc
    if pos != len(body):
        raise errors.ProtocolError(
            f"{len(body) - pos} trailing bytes after frame payload"
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
    (``"DECIMAL(6,2)"``) is parsed client-side, so column metadata
    survives the wire without shipping descriptor objects.
    """
    if shape is None:
        return None
    return [
        [column.alias, column.name,
         column.descriptor and column.descriptor.sql_spelling()]
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
        try:
            descriptor = parse_type(spelling) if spelling else None
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
    return msg_type, decode_payload(_recv_exact(sock, length))


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
