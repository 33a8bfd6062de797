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

Checkpoint stores: ``open_database(directory, storage=...)`` picks one
of two stores with one protocol (spelled out on
:class:`repro.engine.persistence.SnapshotStore`) — ``"snapshot"``
rewrites one atomic image of the whole database (O(database)),
``"lsm"`` writes only the delta since the last flush as immutable
SSTable runs (:mod:`repro.engine.lsm`, docs/STORAGE.md).  The WAL, the
logical replay, the checkpoint sequence below and every contract the
session layer sees are the same for both.

Crash safety of the checkpoint: the store's flush installs the new
state atomically *before* the log is truncated.  A crash between those
two steps leaves a store that already contains every WAL record —
recovery skips records with ``seq <= store.last_seq``, so nothing is
applied twice.

Fault-injection sites: the store's ``FLUSH_SITE`` (``wal.checkpoint``
/ ``lsm.flush``) fires before the flush writes anything, its
``INSTALLED_SITE`` (``wal.checkpoint.install`` / ``lsm.flush.install``)
after the flush is installed but before the log is truncated (the
classic torn-checkpoint window).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Union

from repro import errors, faultpoints
from repro.observability import metrics as _metrics
from repro.observability import stats as _stats
from repro.engine.database import Database, Session
from repro.engine.dialects import STANDARD, Dialect
from repro.engine.lsm import LsmStore
from repro.engine.persistence import SNAPSHOT_FILENAME, SnapshotStore
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
    "SNAPSHOT_FILENAME",
    "WAL_FILENAME",
]

WAL_FILENAME = "wal.log"

#: ``storage=`` name -> checkpoint store class.  Listed in the order an
#: initialised directory is probed for each store's marker file.
_STORES = {"lsm": LsmStore, "snapshot": SnapshotStore}

_CHECKPOINTS = _metrics.registry.counter("wal.checkpoints")
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
        store: Any,
        *,
        last_seq: int = 0,
        checkpoint_interval: int = 256,
    ) -> None:
        self.database = database
        self.wal = wal
        #: The checkpoint store (SnapshotStore or LsmStore) the log is
        #: folded into; decides what "checkpoint" writes.
        self.store = store
        self.directory = store.directory
        self.storage = store.storage
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
    ) -> None:
        """Append ONE redo record for a successfully executed statement.

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
        record = WalRecord(
            self._alloc_seq(), kind, txn, (user, sql, params, snapshot_seq)
        )
        self.wal.append(record)

    def log_commit(self, txn: int, stamp: Any = None) -> int:
        """Append the commit marker; returns the WAL position to pass to
        :meth:`wait_durable` once the engine lock is released.

        ``stamp`` is the transaction's MVCC commit stamp (None for a
        transaction whose surviving write set is empty); replay forces
        the same stamp, reproducing the original commit order and
        visibility.  The session layer appends markers under the
        database's commit mutex, so marker order always equals stamp
        order.
        """
        record = WalRecord(self._alloc_seq(), KIND_COMMIT, txn, stamp)
        position = self.wal.append(record)
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
        records.  What the flush writes is the store's business — the
        whole database image (snapshot) or the delta since the last
        flush (LSM); its ``after_flush`` hook runs once the engine
        lock is released.
        """
        store = self.store
        start = time.perf_counter()
        with self.database.lock.write():
            with self._state_lock:
                if self.closed or self.active_txns:
                    return False
                last_seq = self._next_seq - 1
            faultpoints.trigger(store.FLUSH_SITE)
            store.flush(self.database, last_seq=last_seq)
            faultpoints.trigger(store.INSTALLED_SITE)
            self.wal.reset()
            with self._state_lock:
                self._commits_since_checkpoint = 0
        _CHECKPOINTS.increment()
        store.after_flush(self.database, time.perf_counter() - start)
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
                if session._mvcc_txn is None:
                    session._forced_snapshot = snapshot
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
                    if isinstance(record.data, int):
                        session._forced_commit_stamp = record.data
                    session.commit()
                    session.close()
                replayed += 1
    finally:
        for session in sessions.values():
            session.close()  # rolls back anything uncommitted
    if lost:
        _DISCARDED_TXNS.increment(len(lost))
    return replayed


def _verify_indexes(database: Database) -> None:
    """Cross-check every secondary index against its heap after replay."""
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

    Recovery runs first: the checkpoint store's state (the last
    snapshot, or the LSM manifest and its SSTable runs) is restored,
    the WAL's torn tail is truncated, and committed-but-uncheckpointed
    transactions are replayed in log order.  The returned database has
    a :class:`DurabilityManager` attached as ``database.durability``;
    ``name``/``dialect``/``admin_user`` only apply when the directory
    is empty (an existing snapshot's identity wins).

    ``storage`` selects the checkpoint engine for a *new* directory:
    ``"snapshot"`` (default) rewrites one atomic database image,
    ``"lsm"`` flushes deltas to immutable sorted runs with background
    compaction (see docs/STORAGE.md).  An existing directory's on-disk
    format always wins — the flag is a creation-time choice, not a
    migration.

    ``sync=False`` turns off fsync (for tests and bulk loads);
    ``group_window``/``group_size`` tune group commit (see
    :class:`repro.engine.wal.WriteAheadLog`); a checkpoint is taken
    every ``checkpoint_interval`` commits (0 disables automatic
    checkpoints — call :meth:`Database.checkpoint` yourself).
    """
    store_class = _STORES.get(storage)
    if store_class is None:
        raise errors.ConnectionError_(
            f"unknown storage engine {storage!r} — "
            "expected 'snapshot' or 'lsm'"
        )
    started = time.perf_counter()
    os.makedirs(directory, exist_ok=True)
    # An initialised directory dictates its own engine.
    for candidate in _STORES.values():
        if os.path.exists(os.path.join(directory, candidate.MARKER)):
            store_class = candidate
            break

    store = store_class.open(directory)
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
    if records:
        # Fold the surviving log into the store so the WAL restarts
        # empty; skipping already-folded records made the
        # replay idempotent, this makes the on-disk state canonical.
        manager.checkpoint()
    _RECOVERIES.increment()
    _RECOVERY_SECONDS.observe(time.perf_counter() - started)
    return database
