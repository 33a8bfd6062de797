"""Row storage and undo logging.

Tables keep their rows as append-only lists of
:class:`repro.engine.mvcc.RowVersion` objects; what this module adds is
*transactional mutation*: every insert/delete/update goes through a
:class:`TransactionLog` that can undo the work on ROLLBACK, and through
the session's MVCC transaction so concurrent snapshots never observe
uncommitted state.

An INSERT appends provisional versions (``begin`` unstamped until
commit) — all of a statement's rows in one :meth:`RowStore.insert`;
DELETE/UPDATE never remove anything — they *claim* the target version
by writing the transaction id into ``xmax``, and an UPDATE additionally
appends its replacements through the same append.  Claiming a
version another live transaction already claimed raises
:class:`repro.engine.mvcc.WriteConflict` (the session layer waits and
retries); claiming one a *committed* transaction already ended raises
:class:`repro.errors.SerializationFailureError` — first-updater-wins,
SQLSTATE 40001.

Part 2 objects are stored **by value**: inserting an object deep-copies it
into the heap and fetching copies it back out, so a caller mutating its
own instance never changes stored data — the paper's "objects-by-value"
JDBC semantics.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Callable, List, Optional

from repro import errors, faultpoints
from repro.engine.catalog import Table
from repro.engine.mvcc import RowVersion, WriteConflict
from repro.observability import metrics as _metrics
from repro.sqltypes import ObjectType

__all__ = ["TransactionLog", "store_value", "fetch_value", "RowStore"]

#: Heap mutations (rows inserted + deleted + replaced) across every
#: table; pairs with the ``wal.*`` counters to show write amplification.
_ROWS_MUTATED = _metrics.registry.counter("rows.mutated")


def store_value(value: Any, descriptor: Any) -> Any:
    """Prepare ``value`` for storage under ``descriptor``.

    UDT instances are deep-copied (stored by value); scalars are already
    immutable in Python.
    """
    if value is not None and isinstance(descriptor, ObjectType):
        return copy.deepcopy(value)
    return value


def fetch_value(value: Any, descriptor: Any) -> Any:
    """Materialise a stored value for a client (copy-out for objects)."""
    if value is not None and isinstance(descriptor, ObjectType):
        return copy.deepcopy(value)
    return value


class TransactionLog:
    """Undo log for one session's open transaction, with savepoints.

    A savepoint records the current undo-log length; rolling back to it
    unwinds only the mutations performed since, and discards any later
    savepoints (standard SQL savepoint semantics).

    The log is owned by one session, but pooled connections migrate
    sessions across threads, so its mutations are guarded by a reentrant
    lock (cheap insurance next to the engine's statement lock).
    """

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []
        self._savepoints: dict = {}
        self._lock = threading.RLock()
        self.active = False

    def record(self, undo: Callable[[], None]) -> None:
        """Register an undo action for a mutation just performed."""
        with self._lock:
            self.active = True
            self._undo.append(undo)

    def commit(self) -> int:
        """Discard undo actions; returns how many mutations were kept."""
        with self._lock:
            count = len(self._undo)
            self._undo.clear()
            self._savepoints.clear()
            self.active = False
            return count

    def rollback(self) -> int:
        """Apply undo actions in reverse order; returns how many ran."""
        with self._lock:
            count = len(self._undo)
            for undo in reversed(self._undo):
                undo()
            self._undo.clear()
            self._savepoints.clear()
            self.active = False
            return count

    # -- statement-level atomicity ---------------------------------------
    def position(self) -> int:
        """Current undo-log position (a mark for partial rollback)."""
        return len(self._undo)

    def rollback_to_position(self, mark: int) -> int:
        """Undo every mutation recorded after ``mark``.

        Backs out the work of a statement that failed midway, so errors
        (including injected faults) never leave half a statement behind.
        """
        with self._lock:
            count = len(self._undo) - mark
            while len(self._undo) > mark:
                self._undo.pop()()
            self._savepoints = {
                name: position
                for name, position in self._savepoints.items()
                if position <= mark
            }
            self.active = bool(self._undo)
            return count

    # -- savepoints ------------------------------------------------------
    def set_savepoint(self, name: str) -> None:
        """Create (or move) the named savepoint at the current position."""
        with self._lock:
            self._savepoints[name] = len(self._undo)

    def rollback_to(self, name: str) -> int:
        """Undo every mutation after the named savepoint."""
        from repro import errors

        with self._lock:
            if name not in self._savepoints:
                raise errors.TransactionError(
                    f"savepoint {name!r} does not exist"
                )
            mark = self._savepoints[name]
            count = len(self._undo) - mark
            while len(self._undo) > mark:
                self._undo.pop()()
            # Savepoints created after this one are gone.
            self._savepoints = {
                n: position
                for n, position in self._savepoints.items()
                if position <= mark
            }
            return count

    def release(self, name: str) -> None:
        """Forget the named savepoint (its changes remain pending)."""
        from repro import errors

        with self._lock:
            if name not in self._savepoints:
                raise errors.TransactionError(
                    f"savepoint {name!r} does not exist"
                )
            del self._savepoints[name]


class RowStore:
    """Transactional mutation interface over a table's version heap.

    Secondary indexes on the table are maintained in step with the
    heap: an insert adds the new version to every index on the forward
    path, and the recorded undo action reverses both the heap change
    *and* the index change, so a rollback leaves indexes consistent
    without a rebuild.  Undo actions also unwind the owning MVCC
    transaction's ``created``/``claimed`` sets — a version backed out
    by ROLLBACK TO SAVEPOINT must never be stamped at commit.
    """

    def __init__(self, table: Table, session: Any) -> None:
        self.table = table
        self.session = session
        self.log: TransactionLog = session.transaction_log
        self.txn = session.mvcc_txn

    def _index_add(self, version: RowVersion) -> None:
        for index in self.table.indexes:
            index.add(version)

    def _index_remove(self, version: RowVersion) -> None:
        for index in self.table.indexes:
            index.remove(version)

    def insert(
        self,
        rows: List[List[Any]],
        precondition: Optional[Callable[[], None]] = None,
        faultpoint: str = "storage.insert",
    ) -> List[RowVersion]:
        """Append a provisional version of every row in ``rows``.

        The fault site fires once per row, before anything is appended;
        then the table's mutation lock is taken once, ``precondition``
        runs under it, and every version lands in the heap and its
        indexes.  The statement layer passes its unique/PRIMARY KEY
        check as the precondition, so check-and-append is one atomic
        step: without the shared lock span, two concurrent INSERTs of
        the same key could each scan the heap before either appends,
        and both would pass.  Whatever the precondition raises
        (UniqueViolationError, WriteConflict) propagates with the heap
        untouched.  One undo action backs out the whole append; an
        empty ``rows`` does nothing at all.
        """
        if not rows:
            return []
        for _row in rows:
            faultpoints.trigger(faultpoint)
        txn = self.txn
        versions = [RowVersion(row, xmin=txn.id, begin=None) for row in rows]
        with self.table.mutation_lock:
            if precondition is not None:
                precondition()
            self.table.versions.extend(versions)
            for version in versions:
                self._index_add(version)
        txn.created.update(versions)
        _ROWS_MUTATED.increment(len(versions))

        def undo(batch=versions, store=self) -> None:
            with store.table.mutation_lock:
                heap = store.table.versions
                doomed = {id(v) for v in batch}
                # Remove by identity, newest-first: the batch was
                # appended, so it sits near the tail.
                at = len(heap) - 1
                while doomed and at >= 0:
                    if id(heap[at]) in doomed:
                        doomed.discard(id(heap[at]))
                        del heap[at]
                    at -= 1
                for v in batch:
                    store._index_remove(v)
            store.txn.created.difference_update(batch)

        self.log.record(undo)
        return versions

    def claim(self, version: RowVersion) -> None:
        """Write-claim ``version`` for deletion or replacement.

        First-updater-wins: raises
        :class:`~repro.errors.SerializationFailureError` when a
        transaction that committed after this *pinned* snapshot already
        ended the version, :class:`~repro.engine.mvcc.WriteConflict`
        when a still-running transaction holds the claim — or when the
        claimant committed but this transaction is still pristine, so
        the statement can transparently retry on a fresh snapshot.
        """
        txn = self.txn
        with self.table.mutation_lock:
            xmax = version.xmax
            if xmax == txn.id:
                return  # already claimed by this transaction
            if xmax is not None or version.end is not None:
                if version.end is not None and not txn.pristine:
                    # The claimant committed; its stamp is necessarily
                    # above our snapshot (we could not see the version
                    # otherwise), so we lost the write-write race and
                    # our pinned snapshot cannot absorb the outcome.
                    raise errors.SerializationFailureError(
                        f"could not serialize access to table "
                        f"{self.table.name!r}: row updated by a "
                        f"concurrent transaction; retry the transaction"
                    )
                # Claimant still in flight — or already committed while
                # our snapshot is still pristine, in which case the
                # conflict wait returns immediately, the snapshot is
                # refreshed, and the statement transparently retries.
                raise WriteConflict(xmax)
            version.xmax = txn.id
        txn.claimed.add(version)

        def undo(v=version, owner=txn, store=self) -> None:
            # The mutation lock serializes every xmax check-then-set
            # (see claim above); unclaiming must hold it too so a
            # concurrent claimant never reads a half-released stamp.
            with store.table.mutation_lock:
                v.xmax = None
                owner.claimed.discard(v)

        self.log.record(undo)

    def delete(self, versions: List[RowVersion]) -> int:
        """Mark the given visible versions deleted (claim them all).

        Nothing leaves the heap or the indexes here — the versions stay
        visible to older snapshots until vacuum reclaims them after the
        deleting transaction commits.
        """
        faultpoints.trigger("storage.delete")
        for version in versions:
            self.claim(version)
        _ROWS_MUTATED.increment(len(versions))
        return len(versions)

    def replace(
        self,
        rows: List[List[Any]],
        precondition: Optional[Callable[[], None]] = None,
    ) -> List[RowVersion]:
        """Append the replacement versions of an UPDATE.

        The old versions must already be claimed (see :meth:`claim`);
        the statement layer claims every target first so the unique
        check can recognise rows being replaced.  Otherwise exactly
        :meth:`insert`, under the ``storage.update`` fault site.
        """
        return self.insert(rows, precondition, faultpoint="storage.update")
