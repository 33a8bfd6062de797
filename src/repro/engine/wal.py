"""Append-only write-ahead log with CRC framing and group commit.

The WAL is the redo half of the engine's durability story (the undo half
— in-memory rollback — lives in :mod:`repro.engine.storage`).  Every
mutating statement a durable database executes is appended here as a
logical redo record *before* its transaction commits; COMMIT appends a
commit marker and then waits until the log is fsynced at least that far.
Recovery (:mod:`repro.engine.durability`) replays committed transactions
from the last checkpoint and discards torn tails.

Record framing
--------------

Each record is one :func:`repro.engine.diskfile.frame`::

    +----------------+----------------+==================+
    | length (u32LE) | crc32  (u32LE) | payload (pickle) |
    +----------------+----------------+==================+

``payload`` pickles the tuple ``(seq, kind, txn, data)``:

``seq``
    Monotonically increasing record sequence number.  Survives
    checkpoint truncation (the snapshot stores the last folded ``seq``),
    which is what makes recovery idempotent when a crash lands between
    "snapshot installed" and "log truncated".
``kind``
    ``"stmt"`` (redo: ``data = (user, sql, params, snapshot_seq)``;
    legacy logs carry 3-tuples without the MVCC snapshot), ``"batch"``
    (redo: ``data = (user, sql, param_rows, snapshot_seq)`` — one
    logical record for a whole batch execution), ``"commit"``
    (``data`` = the MVCC commit stamp, or ``None`` for read-only and
    legacy commits) or ``"abort"`` (``data = None``).  Commit markers
    are appended in commit-stamp order (the session layer holds the
    database's commit mutex across stamp-and-append), so replaying the
    log serially with the recorded snapshots and stamps reproduces the
    original visibility exactly.
``txn``
    Transaction id the record belongs to.

A scan stops at the first frame whose length runs past EOF or whose CRC
does not match — everything from there on is a torn tail from a crash
mid-write and is discarded (then physically truncated) on open.

Group commit
------------

:meth:`WriteAheadLog.sync_to` implements leader/follower group commit:
the first committer becomes the leader, optionally dwells for
``group_window`` seconds (or until ``group_size`` commits are pending),
then performs ONE flush+fsync that covers every record appended so far.
Followers whose commit marker the leader's fsync already covered return
without touching the disk.  Even with ``group_window=0`` concurrent
committers batch naturally: commits that arrive while an fsync is in
flight are all covered by the next one.

Fault-injection sites (see :mod:`repro.faultpoints`): ``wal.append``
fires before a record is framed, ``wal.write`` pipes the framed bytes
(a corrupting rule produces a torn write), ``wal.written`` fires after
the OS write but before durability, and ``wal.fsync`` fires just before
``os.fsync``.

Metrics: ``wal.bytes_appended``, ``wal.records``, ``wal.commits``,
``wal.fsyncs``, and the ``wal.group_commit.batch`` histogram all flow
into ``repro.observability.snapshot()``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, List, Tuple

from repro import errors, faultpoints
from repro.engine import diskfile
from repro.observability import metrics as _metrics

__all__ = [
    "WalRecord",
    "WriteAheadLog",
    "encode_record",
    "scan_records",
]

_WAL_BYTES = _metrics.registry.counter("wal.bytes_appended")
_WAL_RECORDS = _metrics.registry.counter("wal.records")
_WAL_COMMITS = _metrics.registry.counter("wal.commits")
_WAL_FSYNCS = _metrics.registry.counter("wal.fsyncs")
_WAL_BATCH = _metrics.registry.histogram("wal.group_commit.batch")

#: Record kinds.  ``stmt`` carries ``(user, sql, params, snapshot_seq)``
#: redo data; ``batch`` carries ``(user, sql, param_rows, snapshot_seq)``
#: — ONE logical record for a whole ``execute_batch`` (N parameter rows
#: bound against one statement, replayed atomically); ``commit`` carries
#: the MVCC commit stamp (or None).
KIND_STATEMENT = "stmt"
KIND_BATCH = "batch"
KIND_COMMIT = "commit"
KIND_ABORT = "abort"


class WalRecord:
    """One decoded log record."""

    __slots__ = ("seq", "kind", "txn", "data")

    def __init__(self, seq: int, kind: str, txn: int, data: Any) -> None:
        self.seq = seq
        self.kind = kind
        self.txn = txn
        self.data = data

    def as_tuple(self) -> Tuple[int, str, int, Any]:
        return (self.seq, self.kind, self.txn, self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<WalRecord seq={self.seq} kind={self.kind} "
            f"txn={self.txn}>"
        )


def encode_record(record: WalRecord) -> bytes:
    """Frame ``record`` as ``header + pickled payload``."""
    return diskfile.frame(diskfile.dumps(record.as_tuple(), "statement"))


def scan_records(data: bytes) -> Tuple[List[WalRecord], int]:
    """Decode the valid record prefix of ``data``.

    Returns ``(records, valid_length)`` where ``valid_length`` is the
    byte offset of the first torn or corrupt frame (== ``len(data)``
    for a clean log).  Scanning never raises on damage: a short header,
    a length running past EOF, a CRC mismatch or an unpicklable payload
    all mean "crash tail starts here" and end the scan.
    """
    records: List[WalRecord] = []
    offset = 0
    while offset < len(data):
        try:
            payload, end = diskfile.unframe(data, offset, "WAL")
            record = WalRecord(*diskfile.loads(payload, "WAL record"))
        except (errors.DataError, TypeError):
            break
        records.append(record)
        offset = end
    return records, offset


class WriteAheadLog:
    """The append/fsync half of the WAL (reading lives in
    :func:`scan_records`).

    The file is opened unbuffered, so every append reaches the OS as one
    ``write`` — nothing lingers in a userspace buffer where an abandoned
    handle could flush it *after* recovery has already truncated the
    file (the in-process crash simulation the tests rely on).
    """

    def __init__(
        self,
        path: str,
        *,
        sync: bool = True,
        group_window: float = 0.0,
        group_size: int = 16,
    ) -> None:
        self.path = path
        self.sync = sync
        self.group_window = group_window
        self.group_size = max(1, group_size)
        self._file = open(path, "ab", buffering=0)
        self._cond = threading.Condition()
        self._tail = self._file.tell()  # bytes appended (== file size)
        self._durable = self._tail
        self._pending_commits = 0
        self._leader_busy = False
        self._closed = False

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, record: WalRecord) -> int:
        """Append one record; returns the log position (byte offset of
        the record's end) to pass to :meth:`sync_to`.  The record is in
        the OS after this call but NOT yet durable."""
        faultpoints.trigger("wal.append")
        data = encode_record(record)
        # A corrupting fault rule here models a torn write: only part of
        # the frame reaches the file before the "crash".
        data = faultpoints.pipe("wal.write", data)
        with self._cond:
            self._check_open()
            self._file.write(data)
            self._tail += len(data)
            if record.kind == KIND_COMMIT:
                self._pending_commits += 1
            position = self._tail
        faultpoints.trigger("wal.written")
        _WAL_BYTES.increment(len(data))
        _WAL_RECORDS.increment()
        if record.kind == KIND_COMMIT:
            _WAL_COMMITS.increment()
        return position

    # ------------------------------------------------------------------
    # group commit
    # ------------------------------------------------------------------
    def sync_to(self, position: int) -> None:
        """Block until the log is durable at least through ``position``.

        Leader/follower group commit: one caller fsyncs on behalf of
        every commit appended so far, the rest wait.
        """
        if not self.sync:
            return
        with self._cond:
            while position > self._durable:
                if not self._leader_busy:
                    self._leader_busy = True
                    break
                self._cond.wait()
            else:
                return
        try:
            if self.group_window > 0:
                deadline = time.monotonic() + self.group_window
                while True:
                    with self._cond:
                        if self._pending_commits >= self.group_size:
                            break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    time.sleep(min(0.0002, remaining))
            self._fsync()
        finally:
            with self._cond:
                self._leader_busy = False
                self._cond.notify_all()

    def _fsync(self) -> None:
        with self._cond:
            self._check_open()
            target = self._tail
            batch = self._pending_commits
            self._pending_commits = 0
            faultpoints.trigger("wal.fsync")
            os.fsync(self._file.fileno())
            self._durable = target
        _WAL_FSYNCS.increment()
        if batch:
            _WAL_BATCH.observe(batch)

    # ------------------------------------------------------------------
    # truncation / lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Discard the whole log (checkpoint has folded it into the
        snapshot).  Sequence numbers keep counting upward."""
        with self._cond:
            self._check_open()
            self._file.truncate(0)
            self._file.seek(0)
            os.fsync(self._file.fileno())
            self._tail = 0
            self._durable = 0
            self._pending_commits = 0

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            try:
                if self.sync:
                    os.fsync(self._file.fileno())
            finally:
                self._file.close()
            self._cond.notify_all()

    def _check_open(self) -> None:
        if self._closed:
            raise errors.ConnectionClosedError(
                f"write-ahead log {self.path!r} is closed"
            )
