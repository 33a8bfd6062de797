"""Row storage: the forward path of every write.

Tables keep their rows as append-only lists of
:class:`repro.engine.mvcc.RowVersion` objects; what this module adds is
*transactional mutation*: every insert/delete/update goes through the
session's :class:`repro.engine.mvcc.Transaction`, which records it in
its write list — undone on ROLLBACK, stamped at COMMIT — so concurrent
snapshots never observe uncommitted state.

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
from typing import Any, Callable, List, Optional

from repro import errors, faultpoints
from repro.engine.catalog import Table
from repro.engine.mvcc import CLAIM, INSERT, RowVersion, WriteConflict, \
    thaw
from repro.observability import metrics as _metrics
from repro.sqltypes import ObjectType

__all__ = ["store_value", "fetch_value", "RowStore"]

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


class RowStore:
    """Transactional mutation interface over a table's version heap.

    Secondary indexes on the table are maintained in step with the
    heap: an insert adds the new version to every index, and undoing
    the write-list entry it records (:meth:`Transaction.undo
    <repro.engine.mvcc.Transaction.undo>`) takes the version out of
    both, so a rollback leaves indexes consistent without a rebuild.
    """

    def __init__(self, table: Table, session: Any) -> None:
        self.table = table
        self.txn = session.mvcc_txn

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
        untouched.  One write-list entry covers the whole append; an
        empty ``rows`` does nothing at all.
        """
        if not rows:
            return []
        for _row in rows:
            faultpoints.trigger(faultpoint)
        txn = self.txn
        table = self.table
        versions = [RowVersion(row, xmin=txn.id, begin=None) for row in rows]
        with table.mutation_lock:
            if precondition is not None:
                precondition()
            table.versions.extend(versions)
            for index in table.indexes:
                for version in versions:
                    index.add(version)
        txn.record(INSERT, table, versions)
        _ROWS_MUTATED.increment(len(versions))
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
            thaw(version)  # before xmax: see mvcc.settled_runs
            version.xmax = txn.id
        txn.record(CLAIM, self.table, version)

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
