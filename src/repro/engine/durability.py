"""Durability manager: WAL + checkpoint + crash recovery.

This module ties the :mod:`repro.engine.wal` log to the engine:

* :func:`open_database` opens (or creates) a durable database in a
  directory, running crash recovery first — restore the checkpoint
  store's state, truncate the WAL's torn tail, replay every
  *committed* transaction the store does not already contain, and
  discard uncommitted ones.
* :class:`DurabilityManager` is attached to the database as
  ``database.durability`` and receives redo records from the session
  layer (see ``Session._log_durable`` in
  :mod:`repro.engine.database`): one ``stmt`` record per mutating
  statement, a ``commit``/``abort`` marker per transaction, and an
  fsync barrier (:meth:`DurabilityManager.wait_durable`) that the
  session calls *after* releasing the engine lock so concurrent
  committers group-commit.
* :meth:`DurabilityManager.checkpoint` folds the log into the
  directory's *checkpoint store* and truncates the log.

Redo is *logical*, at statement granularity: a record stores the
statement's SQL text, its parameters and the executing user, and
recovery re-executes it through the normal session path.  That makes
index maintenance, constraint checks, triggers-of-the-future and UDT
columns redo-covered by construction — replay runs the same code the
original execution ran.  The documented limit (docs/DURABILITY.md) is
determinism: a statement whose effect depends on the outside world
(an external routine reading the clock, say) may replay differently.

The checkpoint store is :class:`repro.engine.lsm.LsmStore`: a flush
writes only the delta since the last flush as immutable SSTable runs
plus an atomically replaced manifest (docs/STORAGE.md).  A directory
still holding a ``snapshot.db`` whole-database image from before runs
were the only format migrates on open: its rows become the first runs,
and the image is unlinked once the manifest and the truncated WAL
cover them.

Crash safety of the checkpoint: the store's flush installs the new
state atomically *before* the log is truncated.  A crash between those
two steps leaves a store that already contains every WAL record —
recovery skips records with ``seq <= store.last_seq``, so nothing is
applied twice.

Fault-injection sites: ``lsm.flush`` fires before the flush writes
anything, ``lsm.flush.install`` after the flush is installed but
before the log is truncated (the classic torn-checkpoint window); the
store fires ``lsm.manifest`` in between (runs written, manifest not
yet installed).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Optional, Union

from repro import errors, faultpoints
from repro.observability import metrics as _metrics
from repro.observability import stats as _stats
from repro.engine.database import Database, Session
from repro.engine.dialects import STANDARD, Dialect
from repro.engine.lsm import LsmStore
from repro.engine.wal import (
    KIND_ABORT,
    KIND_BATCH,
    KIND_COMMIT,
    KIND_STATEMENT,
    WalRecord,
    WriteAheadLog,
    scan_records,
)

__all__ = [
    "DurabilityManager",
    "open_database",
    "WAL_FILENAME",
]

WAL_FILENAME = "wal.log"

_CHECKPOINTS = _metrics.registry.counter("wal.checkpoints")
_CHECKPOINT_SECONDS = _metrics.registry.histogram("wal.checkpoint.seconds")
_RECOVERIES = _metrics.registry.counter("wal.recoveries")
_RECOVERY_SECONDS = _metrics.registry.histogram("wal.recovery.seconds")
_RECOVERED_TXNS = _metrics.registry.counter("wal.recovered_txns")
_DISCARDED_TXNS = _metrics.registry.counter("wal.discarded_txns")


class DurabilityManager:
    """Owns a database's WAL, transaction ids, and checkpoint policy.

    Attached to the database as ``database.durability`` by
    :func:`open_database`; ``None`` on a purely in-memory database.
    All methods that append are called with the engine write lock held
    (the session layer guarantees ordering); :meth:`wait_durable` and
    :meth:`maybe_checkpoint` are called *after* the lock is released.
    """

    def __init__(
        self,
        database: Database,
        wal: WriteAheadLog,
        store: LsmStore,
        *,
        last_seq: int = 0,
        checkpoint_interval: int = 256,
    ) -> None:
        self.database: Optional[Database] = database  # None once closed
        self.wal = wal
        #: The checkpoint store the log is folded into.
        self.store = store
        self.directory = store.directory
        self.checkpoint_interval = checkpoint_interval
        self._state_lock = threading.Lock()
        self._next_seq = last_seq + 1
        self._next_txn = 1
        self._commits_since_checkpoint = 0
        self.active_txns: set = set()
        self.closed = False

    # ------------------------------------------------------------------
    # logging (called under the engine write lock)
    # ------------------------------------------------------------------
    def begin(self) -> int:
        """Allocate a transaction id and mark it active."""
        with self._state_lock:
            txn = self._next_txn
            self._next_txn += 1
            self.active_txns.add(txn)
        return txn

    def _alloc_seq(self) -> int:
        with self._state_lock:
            seq = self._next_seq
            self._next_seq += 1
        return seq

    def log_statement(
        self,
        txn: int,
        user: str,
        sql: str,
        param_rows: Any,
        snapshot_seq: int = 0,
    ) -> bytes:
        """Frame ONE redo record for a successfully executed statement
        and return the frame, which the caller appends now
        (:meth:`WriteAheadLog.write <repro.engine.wal.WriteAheadLog.write>`)
        or with the commit marker (:meth:`log_commit`).  A parameter
        that cannot be pickled raises here, before anything is written.

        ``param_rows`` holds every parameter row bound against ``sql``:
        one row is logged as a ``stmt`` record, N rows (an
        :meth:`Session.execute_batch`) as a single ``batch`` record —
        one WAL append instead of N, replayed through the same batch
        path, atomically, so a crash can never surface a partial batch.

        ``snapshot_seq`` is the MVCC snapshot the statement executed
        under; replay pins the recovered transaction to the same
        snapshot so a predicate evaluated during recovery sees exactly
        the rows the original execution saw, however the original
        history interleaved.
        """
        if len(param_rows) > 1:
            kind = KIND_BATCH
            params: Any = tuple(tuple(row) for row in param_rows)
        else:
            kind, params = KIND_STATEMENT, tuple(param_rows[0] or ())
        return self.wal.encode(WalRecord(
            self._alloc_seq(), kind, txn, (user, sql, params, snapshot_seq)
        ))

    def log_commit(self, txn: int, stamp: Any = None,
                   statement: bytes = b"") -> int:
        """Append the commit marker — after ``statement``, the frame
        :meth:`log_statement` made of an autocommit statement's record,
        in the same ``write`` — and return the WAL position to pass to
        :meth:`wait_durable` once the engine lock is released.

        ``stamp`` is the transaction's MVCC commit stamp (None for a
        transaction whose surviving write set is empty); replay forces
        the same stamp, reproducing the original commit order and
        visibility.  The session layer appends markers under the
        database's commit mutex, so marker order always equals stamp
        order.
        """
        position = self.wal.append(
            WalRecord(self._alloc_seq(), KIND_COMMIT, txn, stamp), statement
        )
        with self._state_lock:
            self.active_txns.discard(txn)
            self._commits_since_checkpoint += 1
        return position

    def log_abort(self, txn: int) -> None:
        """Append the abort marker.  Aborts are never fsynced — losing
        one is harmless, recovery discards uncommitted transactions
        anyway."""
        record = WalRecord(self._alloc_seq(), KIND_ABORT, txn, None)
        self.wal.append(record)
        with self._state_lock:
            self.active_txns.discard(txn)

    # ------------------------------------------------------------------
    # durability barrier (called with no engine lock held)
    # ------------------------------------------------------------------
    def wait_durable(self, position: int) -> None:
        """Block until the log is fsynced through ``position`` (group
        commit: one fsync may cover many callers).  The time spent in
        the barrier is reported as the ``waits.wal.sync`` wait event
        and attributed to the committing statement."""
        start = time.perf_counter()
        self.wal.sync_to(position)
        _stats.note_wal_wait(time.perf_counter() - start)

    def maybe_checkpoint(self) -> bool:
        """Checkpoint if enough commits have accumulated."""
        with self._state_lock:
            due = (
                self.checkpoint_interval > 0
                and self._commits_since_checkpoint
                >= self.checkpoint_interval
            )
        if not due:
            return False
        return self.checkpoint()

    # ------------------------------------------------------------------
    # checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self) -> bool:
        """Fold the WAL into the checkpoint store and truncate it.

        Runs under the exclusive engine lock and only when no durable
        transaction is in flight (an open transaction's uncommitted
        heap changes must not leak into the store); returns False
        when skipped for that reason.  Safe against a crash at any
        point: the store installs its new state atomically *before*
        the log is truncated, and recovery skips already-folded
        records.  The flush writes the delta since the last flush; the
        pause it costs the engine is observed as
        ``wal.checkpoint.seconds``, and the compaction it may offer
        runs after the lock is released, outside that pause.
        """
        start = time.perf_counter()
        database = self.database
        if database is None:
            return False  # closed
        with database.lock.write():
            with self._state_lock:
                if self.closed or self.active_txns:
                    return False
                last_seq = self._next_seq - 1
            faultpoints.trigger("lsm.flush")
            self.store.flush(database, last_seq=last_seq)
            faultpoints.trigger("lsm.flush.install")
            self.wal.reset()
            with self._state_lock:
                self._commits_since_checkpoint = 0
        _CHECKPOINTS.increment()
        _CHECKPOINT_SECONDS.observe(time.perf_counter() - start)
        self.store.maybe_compact(database)
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, *, checkpoint: bool = True) -> None:
        """Flush and close the WAL, checkpointing first on a clean
        close (skipped when a transaction is still open)."""
        if self.closed:
            return
        if checkpoint:
            try:
                self.checkpoint()
            except errors.ReproError:
                pass  # an unpicklable row must not block close
        with self._state_lock:
            self.closed = True
        self.wal.close()
        self.store.close()
        self.database = None  # no cycle keeps a closed database alive


# ---------------------------------------------------------------------------
# recovery / open
# ---------------------------------------------------------------------------


def _read_wal(path: str):
    """Scan the WAL, truncating any torn tail left by a crash.

    Returns ``(records, max_seq)``.
    """
    if not os.path.exists(path):
        return [], 0
    with open(path, "rb") as handle:
        data = handle.read()
    records, valid = scan_records(data)
    if valid < len(data):
        # Torn tail: a crash mid-write left a partial or corrupt frame.
        # Physically discard it so the append handle starts at a clean
        # record boundary.
        with open(path, "r+b") as handle:
            handle.truncate(valid)
            handle.flush()
            os.fsync(handle.fileno())
    max_seq = records[-1].seq if records else 0
    return records, max_seq


def _replay(database: Database, records, last_seq: int) -> int:
    """Re-execute committed transactions with ``seq > last_seq``.

    Uncommitted transactions (no commit marker survived) and aborted
    ones are discarded — exactly the semantics of "the committed
    prefix".  Returns the number of transactions replayed.
    """
    committed = {r.txn for r in records if r.kind == KIND_COMMIT}
    aborted = {r.txn for r in records if r.kind == KIND_ABORT}
    sessions: Dict[int, Session] = {}
    lost: set = set()
    replayed = 0
    # Replay pins logged snapshots below the horizon: nothing may
    # freeze (ANALYZE, a vacuum its commits start) until it is over.
    database.transactions.replaying = True
    try:
        for record in records:
            if record.seq <= last_seq:
                continue  # already folded into the store
            if record.txn not in committed:
                # In-flight at the crash (no marker survived) or
                # explicitly aborted: either way, not replayed.
                if record.txn not in aborted:
                    lost.add(record.txn)
                continue
            if record.kind in (KIND_STATEMENT, KIND_BATCH):
                # v2 records carry the original snapshot as a fourth
                # element; legacy 3-tuples replay on the current
                # counter, which is equivalent for serial pre-MVCC logs.
                user, sql, params = record.data[:3]
                snapshot = (
                    record.data[3] if len(record.data) > 3 else None
                )
                session = sessions.get(record.txn)
                if session is None:
                    session = database.create_session(
                        user, autocommit=False
                    )
                    sessions[record.txn] = session
                txn = session._open_transaction()
                if txn.id is None:
                    # The snapshot this statement takes, if it is the
                    # transaction's first, is the one it logged.
                    txn.snapshot_seq = snapshot
                with session.impersonate(user):
                    if record.kind == KIND_BATCH:
                        # One logical record for a whole batch: replay
                        # it through the batch path so the restored
                        # heap gets the same all-or-nothing semantics
                        # the original execution had.
                        session.execute_batch(
                            sql, [list(row) for row in params]
                        )
                    else:
                        session.execute(sql, list(params))
            elif record.kind == KIND_COMMIT:
                session = sessions.pop(record.txn, None)
                if session is not None:
                    # Commit with the logged stamp, reproducing the
                    # original commit order and visibility.
                    stamp = record.data if isinstance(record.data, int) \
                        else None
                    with database.lock.read():
                        session._commit_all(stamp)
                    database._maybe_vacuum()
                    session.close()
                replayed += 1
    finally:
        for session in sessions.values():
            session.close()  # rolls back anything uncommitted
        database.transactions.replaying = False
    if lost:
        _DISCARDED_TXNS.increment(len(lost))
    return replayed


def _verify_indexes(database: Database) -> None:
    """Cross-check every secondary index against its heap after replay.

    Under the shared engine lock: replay's commits may have started the
    background vacuum, which rewrites heaps and indexes under the
    exclusive lock, and must not do so halfway through a check.
    """
    with database.lock.read():
        for table in database.catalog.tables.values():
            for index in table.indexes:
                index.verify_against_heap()


def open_database(
    directory: str,
    *,
    name: str = "db",
    dialect: Union[str, Dialect] = STANDARD,
    admin_user: str = "dba",
    sync: bool = True,
    group_window: float = 0.0,
    group_size: int = 16,
    checkpoint_interval: int = 256,
    storage: str = "snapshot",
) -> Database:
    """Open (or create) a durable database rooted at ``directory``.

    Recovery runs first: the LSM manifest and its SSTable runs are
    restored, the WAL's torn tail is truncated, and
    committed-but-uncheckpointed transactions are replayed in log
    order.  The returned database has a :class:`DurabilityManager`
    attached as ``database.durability``; ``name``/``dialect``/
    ``admin_user`` only apply when the directory is empty (a stored
    database's identity wins).  A checkpoint flushes only the delta
    since the last one to immutable sorted runs, with background
    compaction (see docs/STORAGE.md).

    A directory holding a ``snapshot.db`` image and no manifest
    migrates here: its rows are flushed as each table's first run, the
    manifest installed and the WAL truncated, and only then is
    ``snapshot.db`` unlinked.

    ``storage`` is accepted and ignored: ``"snapshot"`` and ``"lsm"``
    open the same engine, any other value raises
    :class:`repro.errors.ConnectionError_`.

    ``sync=False`` turns off fsync (for tests and bulk loads);
    ``group_window``/``group_size`` tune group commit (see
    :class:`repro.engine.wal.WriteAheadLog`); a checkpoint is taken
    every ``checkpoint_interval`` commits (0 disables automatic
    checkpoints — call :meth:`Database.checkpoint` yourself).
    """
    if storage not in ("snapshot", "lsm"):
        raise errors.ConnectionError_(
            f"unknown storage engine {storage!r} — "
            "expected 'snapshot' or 'lsm'"
        )
    started = time.perf_counter()
    os.makedirs(directory, exist_ok=True)
    store = LsmStore.open(directory)
    database = store.build_database(
        name=name,
        dialect=dialect,
        admin_user=admin_user,
    )
    # Resume the MVCC commit counter above everything in the store so
    # replayed (and future) stamps stay monotonic.
    database.transactions.restore(store.flushed_stamp)

    wal_path = os.path.join(directory, WAL_FILENAME)
    records, max_seq = _read_wal(wal_path)
    replayed = _replay(database, records, store.last_seq)
    if replayed:
        _verify_indexes(database)
        _RECOVERED_TXNS.increment(replayed)

    wal = WriteAheadLog(
        wal_path,
        sync=sync,
        group_window=group_window,
        group_size=group_size,
    )
    manager = DurabilityManager(
        database,
        wal,
        store,
        last_seq=max(store.last_seq, max_seq),
        checkpoint_interval=checkpoint_interval,
    )
    database.durability = manager
    legacy = store.legacy_path
    if records or legacy:
        # Fold the surviving log (and a migrating image) into the store
        # so the WAL restarts empty; skipping already-folded records
        # made the replay idempotent, this makes the on-disk state
        # canonical.  The image is redundant only once the manifest is
        # installed and the WAL truncated.
        if manager.checkpoint() and legacy:
            os.unlink(legacy)
            store.legacy_path = None
    _RECOVERIES.increment()
    _RECOVERY_SECONDS.observe(time.perf_counter() - started)
    return database
