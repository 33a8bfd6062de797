"""Multi-version concurrency control: versions, snapshots, transactions.

The engine stores every table as an append-only list of
:class:`RowVersion` objects.  A version carries its creating
transaction (``xmin``) and that transaction's commit stamp (``begin``),
plus — once deleted or replaced — the deleting transaction (``xmax``)
and *its* commit stamp (``end``).  Readers decide per version whether
their snapshot can see it; nothing is ever modified in place, so
readers never block writers and writers never block readers.

Commit stamps come from one global commit-sequence counter owned by the
:class:`TransactionManager`.  A snapshot is just the counter value at
the moment the transaction's first statement ran: version ``v`` is
visible iff it was committed with ``begin <= snapshot`` and not deleted
with ``end <= snapshot`` (own uncommitted writes are always visible,
own deletions never).  Commit is atomic with respect to snapshots: the
counter is advanced and every version stamped *inside* the manager's
lock, so no snapshot can observe a half-committed transaction.  What
commit stamps and rollback reverses is one list: a
:class:`Transaction` records every append and every claim in order, so
undo is data, not one closure per write.

Write-write conflicts are detected eagerly, first-updater-wins: an
UPDATE/DELETE *claims* the target version by writing its transaction id
into ``xmax`` (under the owning table's mutation lock).  Finding the
version already claimed by a live transaction raises
:class:`WriteConflict` — internal control flow; the session layer waits
for the blocker to finish and retries the statement.  Finding it
deleted by a transaction that committed *after* this snapshot raises
:class:`repro.errors.SerializationFailureError` (SQLSTATE 40001): the
caller lost the race and must retry on a fresh snapshot.

Dead versions (``end`` stamped at or below every live snapshot) are
physically reclaimed by vacuum — see ``Database.vacuum`` in
:mod:`repro.engine.database`.

Most rows are loaded once and never written again, yet a scan would
re-prove each one visible.  The *all-visible block map* lets it skip
that: :func:`freeze` (run by ANALYZE and vacuum, which walk the heap
anyway) marks a full block of :data:`BLOCK` heap positions *frozen*
when every version in it is committed at or below the vacuum horizon
and unclaimed — visible to every live and future snapshot.  A claim
clears its version's bit before writing ``xmax``, and a block is only
trusted while its first and last versions still sit at its two ends,
so an undone INSERT, a vacuum rewrite or a replaced heap, which shift
or replace versions, silently unfreeze what moved
(:func:`settled_runs`).  SeqScan loops read a frozen block's rows
without :data:`VISIBLE`; IndexScan, DML targets and
:meth:`Transaction.visible` keep the full test.
"""

from __future__ import annotations

import threading
import time as _time
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import errors
from repro.engine.expressions import generate
from repro.observability import metrics as _metrics

__all__ = [
    "RowVersion",
    "Transaction",
    "TransactionManager",
    "WriteConflict",
    "VISIBLE",
    "BLOCK",
    "freeze",
    "settled_runs",
    "thaw",
]

#: The visibility rule above, once, as Python source over a version
#: ``v``, the snapshot ``snap`` and the reader's transaction id ``me``:
#: inlined into every scan loop, and generating :meth:`Transaction.sees`
#: and :meth:`Transaction.visible`.  Reading ``begin``/``end`` races
#: commits on purpose: a commit after the snapshot is stamped above
#: ``snap``, so None and its stamp classify a version alike.
VISIBLE = (
    "(v.begin is not None and v.begin <= snap or v.xmin == me) and "
    "(v.xmax is None or v.xmax != me and (v.end is None or v.end > snap))"
)

_HEAD = "    snap = txn.snapshot_seq\n    me = txn.id\n"
_sees, _seen = generate(  # (txn, v) -> bool, (txn, versions) -> list
    f"def _v0(txn, v):\n{_HEAD}    return {VISIBLE}\n"
    f"def _v1(txn, versions):\n{_HEAD}"
    f"    return [v for v in versions if {VISIBLE}]\n", {}).values()

#: Pseudo transaction id for bootstrap rows (bulk loads, snapshot
#: restore): committed "since forever" with commit stamp 0.
TXN_BOOTSTRAP = 0

#: Write-list entry kinds (see :attr:`Transaction.writes`).
INSERT = "insert"
CLAIM = "claim"

_TXN_COMMITS = _metrics.registry.counter("mvcc.commits")
_TXN_ABORTS = _metrics.registry.counter("mvcc.aborts")
_TXN_CONFLICT_WAITS = _metrics.registry.counter("mvcc.conflict_waits")
_BLOCKS_FROZEN = _metrics.registry.counter("mvcc.blocks_frozen")
_BLOCKS_THAWED = _metrics.registry.counter("mvcc.blocks_thawed")

#: Heap positions per block of the all-visible map: the size of an
#: ``RLSM2`` run block.  A constant, not a knob.
BLOCK = 256


class WriteConflict(Exception):
    """A write touched a version claimed by a live transaction.

    Internal control flow, never user-visible: the session layer
    catches it, rolls the statement back, waits for ``blocker`` to
    commit or abort, and re-executes the statement.  If the blocker
    committed and this transaction's snapshot is pinned, the retry
    surfaces :class:`repro.errors.SerializationFailureError` instead.
    """

    def __init__(self, blocker: int) -> None:
        super().__init__(f"row claimed by transaction {blocker}")
        self.blocker = blocker


class RowVersion:
    """One immutable row image plus its visibility interval.

    ``row`` is the value list; it is never replaced after creation (an
    UPDATE creates a *new* version).  ``begin``/``end`` are commit
    stamps (``None`` while the creating/deleting transaction is still
    in flight); ``xmin``/``xmax`` are the transaction ids that wrote
    them.  ``xmax`` doubles as the row-level write claim.

    ``rid`` is the version's durable row id under the LSM storage
    engine (see :mod:`repro.engine.lsm`): ``None`` until the version is
    first flushed to an SSTable run, then a globally unique integer
    that names its on-disk data entry (tombstones reference the same
    id).  The snapshot engine never assigns it.

    ``block`` is the :class:`Block` that :func:`freeze` last put the
    version in (None if never): how a claim finds the bit to clear,
    wherever the version has moved since.
    """

    __slots__ = ("row", "xmin", "begin", "xmax", "end", "rid", "block")

    def __init__(
        self,
        row: List[Any],
        xmin: int = TXN_BOOTSTRAP,
        begin: Optional[int] = 0,
    ) -> None:
        self.row = row
        self.xmin = xmin
        self.begin = begin
        self.xmax: Optional[int] = None
        self.end: Optional[int] = None
        self.rid: Optional[int] = None
        self.block: Optional[Block] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RowVersion {self.row!r} xmin={self.xmin} "
            f"begin={self.begin} xmax={self.xmax} end={self.end}>"
        )


class Block:
    """One frozen block of the all-visible map: the bit a claim on any
    of its versions clears, the ids of its first and last version, and
    its versions' rows, which a scan of the block reads directly.

    Ids rather than references, so versions and blocks form no cycle.
    Every version holding this block was alive when it froze, so a live
    one whose id matches an end *is* that end (:func:`_frozen`).  A row
    list is never replaced, only edited in place (ALTER TABLE), so
    ``rows`` stays the block's rows.
    """

    __slots__ = ("frozen", "first", "last", "rows")

    def __init__(self, versions: List[RowVersion]) -> None:
        self.frozen = True
        self.first = id(versions[0])
        self.last = id(versions[-1])
        self.rows = [version.row for version in versions]


def _frozen(versions: List[RowVersion], at: int) -> Optional[Block]:
    """The frozen block the :data:`BLOCK` positions from ``at`` hold
    exactly — its first version here, its last one BLOCK - 1 later — or
    None.  Heaps only append and remove, so what lies between is then
    exactly the block; a shift or replacement breaks the match."""
    first = versions[at]
    block = first.block
    if block is None or not block.frozen or block.first != id(first):
        return None
    last = versions[at + BLOCK - 1]
    return block if last.block is block and block.last == id(last) \
        else None


def settled_runs(versions: List[RowVersion]) -> List[Tuple[int, bool, Any]]:
    """``versions`` (a heap copy) as consecutive runs ``(stop, frozen,
    items)``: the rows of one frozen block, or the versions of a stretch
    between frozen blocks, to test.  Read after the reader's snapshot: a
    claim clears its block's bit before it writes ``xmax``, so any claim
    this misses ends after the snapshot."""
    runs: List[Tuple[int, bool, Any]] = []
    start = 0
    for at in range(0, len(versions) - BLOCK + 1, BLOCK):
        block = _frozen(versions, at)
        if block is not None:
            if start < at:
                runs.append((at, False, versions[start:at]))
            runs.append((at + BLOCK, True, block.rows))
            start = at + BLOCK
    if start < len(versions):
        runs.append((len(versions), False,
                     versions[start:] if start else versions))
    return runs


_BEGIN, _XMAX, _END = attrgetter("begin"), attrgetter("xmax"), \
    attrgetter("end")


def freeze(table: Any, horizon: Optional[int]) -> int:
    """Freeze each full block of ``table``'s heap whose versions are all
    committed at or below ``horizon`` and unclaimed; returns how many
    froze.  ``horizon`` is :meth:`TransactionManager.freeze_horizon`
    (None: freeze nothing).  Blocks already frozen in place are skipped;
    the versions of a block that cannot freeze drop any stale block (and
    the rows it holds).  Each block is checked under the table's mutation
    lock — which appends, undo and claims take too — so a writer waits at
    most one block's check."""
    if horizon is None:
        return 0
    count = at = 0
    while True:
        with table.mutation_lock:
            heap = table.versions
            if at + BLOCK > len(heap):
                break
            if _frozen(heap, at) is None:
                segment = heap[at:at + BLOCK]
                begins = list(map(_BEGIN, segment))
                if (None not in begins and max(begins) <= horizon
                        and list(map(_XMAX, segment)).count(None) == BLOCK
                        and list(map(_END, segment)).count(None) == BLOCK):
                    block = Block(segment)
                    count += 1
                else:
                    block = None  # let go of a stale block and its rows
                for version in segment:
                    version.block = block
        at += BLOCK
    if count:
        _BLOCKS_FROZEN.increment(count)
    return count


def thaw(version: RowVersion) -> None:
    """Clear the frozen bit of ``version``'s block.  A claim calls this
    under the table's mutation lock *before* it writes ``xmax``."""
    block = version.block
    if block is not None and block.frozen:
        block.frozen = False
        _BLOCKS_THAWED.increment()


class Transaction:
    """One session's open transaction: snapshot, writes, savepoints and
    WAL transaction id, ended as one.

    ``id`` and ``snapshot_seq`` stay None until the first statement
    that reads or writes rows begins the transaction with the
    :class:`TransactionManager` (a leading SAVEPOINT does not).
    ``writes`` is the ordered write list — ``(INSERT, table,
    versions)`` per append, ``(CLAIM, table, version)`` per write
    claim — which is the undo log (:meth:`undo` reverses it newest
    first) and what :meth:`TransactionManager.stamp` walks at commit;
    savepoints are positions in it.  ``wal_txn`` is the durable
    transaction id, allocated by the first redo-logged statement;
    ``wal_statement`` the framed redo record of an autocommit statement,
    appended with its commit marker.

    A session owns its transaction, but pooled connections migrate
    sessions across threads, so the write list and savepoints are
    guarded by a reentrant lock (cheap insurance next to the engine's
    statement lock).
    """

    __slots__ = (
        "id", "snapshot_seq", "writes", "savepoints", "pristine",
        "wal_txn", "wal_statement", "_lock",
    )

    def __init__(self) -> None:
        self.id: Optional[int] = None
        self.snapshot_seq: Optional[int] = None
        self.writes: List[tuple] = []
        self.savepoints: Dict[str, int] = {}
        #: True until the first statement completes: while pristine the
        #: snapshot may still be replaced (used to transparently retry
        #: a conflicting first statement on a fresh snapshot).
        self.pristine = True
        self.wal_txn: Optional[int] = None
        self.wal_statement = b""
        self._lock = threading.RLock()

    def record(self, kind: str, table: Any, payload: Any) -> None:
        """Append a write just performed to the write list."""
        with self._lock:
            self.writes.append((kind, table, payload))

    def undo(self, mark: int = 0) -> None:
        """Reverse every write after position ``mark``, newest first,
        and forget the savepoints taken after it (standard SQL
        savepoint semantics).  Backs out a failed statement, a ROLLBACK
        TO SAVEPOINT, or (``mark`` 0) the whole transaction."""
        with self._lock:
            writes = self.writes
            while len(writes) > mark:
                _undo(*writes.pop())
            self.savepoints = {
                name: position
                for name, position in self.savepoints.items()
                if position <= mark
            }

    def savepoint(self, name: str) -> None:
        """Create (or move) the named savepoint at the current position."""
        with self._lock:
            self.savepoints[name] = len(self.writes)

    def rollback_to(self, name: str) -> None:
        """Undo every write after the named savepoint, which stays."""
        with self._lock:
            self.undo(self._savepoint(name))

    def release(self, name: str) -> None:
        """Forget the named savepoint (its writes remain pending)."""
        with self._lock:
            self._savepoint(name)
            del self.savepoints[name]

    def _savepoint(self, name: str) -> int:
        position = self.savepoints.get(name)
        if position is None:
            raise errors.TransactionError(
                f"savepoint {name!r} does not exist"
            )
        return position

    # ------------------------------------------------------------------
    # visibility
    # ------------------------------------------------------------------
    def sees(self, version: RowVersion) -> bool:
        """Snapshot-isolation visibility of ``version`` to this txn
        (:data:`VISIBLE`)."""
        return _sees(self, version)

    def visible(self, versions: Iterable[RowVersion]) -> List[RowVersion]:
        """The ``versions`` this transaction's snapshot sees, in order
        (:data:`VISIBLE`)."""
        return _seen(self, versions)


def _undo(kind: str, table: Any, payload: Any) -> None:
    """Reverse one write-list entry under its table's mutation lock."""
    with table.mutation_lock:
        if kind == CLAIM:
            # The mutation lock serializes every xmax check-then-set
            # (storage.CLAIM_VERSION); unclaiming holds it too so a concurrent
            # claimant never reads a half-released stamp.
            payload.xmax = None
            return
        heap = table.versions
        doomed = {id(version) for version in payload}
        # Remove by identity, newest-first: the versions were appended,
        # so they sit near the tail.
        at = len(heap) - 1
        while doomed and at >= 0:
            if id(heap[at]) in doomed:
                doomed.discard(id(heap[at]))
                del heap[at]
            at -= 1
        for index in table.indexes:
            for version in payload:
                index.remove(version)


class TransactionManager:
    """Owns the commit-sequence counter and the live-transaction table.

    One per :class:`repro.engine.database.Database`.  All state changes
    happen under one condition variable, which is also what conflicting
    writers wait on (:meth:`wait_for`): every transaction end —
    commit or abort — wakes the waiters.
    """

    def __init__(self) -> None:
        #: The condition's lock, taken bare by :meth:`begin`,
        #: :meth:`stamp` and :meth:`finish`: every statement runs them,
        #: and the condition's context-manager frames cost more than the
        #: work they guard.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        #: Threads in :meth:`wait_for`; :meth:`finish` wakes only those.
        self._waiters = 0
        self._next_txn = 1
        self._commit_seq = 0
        self._active: Dict[int, Transaction] = {}
        #: Committed-dead versions since the last vacuum (advisory; the
        #: database layer uses it to decide when to trigger vacuum).
        self.dead_versions = 0
        #: True while crash-recovery replay runs: it pins snapshots
        #: below the horizon, so nothing may freeze meanwhile.
        self.replaying = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(self, txn: Transaction) -> None:
        """Begin ``txn``: allocate its id and take its consistent
        snapshot — the current commit counter, unless
        ``txn.snapshot_seq`` was pinned beforehand (crash-recovery
        replay reproduces the original execution's visibility)."""
        self._mutex.acquire()
        try:
            txn.id = self._next_txn
            self._next_txn += 1
            if txn.snapshot_seq is None:
                txn.snapshot_seq = self._commit_seq
            self._active[txn.id] = txn
        finally:
            self._mutex.release()

    def refresh_snapshot(self, txn: Transaction) -> None:
        """Re-take the snapshot (only valid while no statement has
        completed in the transaction — the session layer guards this
        with ``txn.pristine``)."""
        with self._cond:
            txn.snapshot_seq = self._commit_seq

    def stamp(
        self, txn: Transaction, stamp: Optional[int] = None
    ) -> Optional[int]:
        """Allocate the commit stamp and make the writes visible.

        Advances the commit counter and walks the write list — every
        appended version's ``begin`` and every claimed version's
        ``end`` get the stamp — while holding the manager lock, so a
        concurrent :meth:`begin` observes either none or all of the
        transaction's writes.  ``stamp`` forces the commit stamp
        (recovery replay); it must be greater than any stamp issued so
        far.  Returns the stamp, or None for a read-only transaction.
        The transaction stays *active* until :meth:`finish` — the
        session layer appends the WAL commit marker in between, keeping
        marker order equal to stamp order even for transactions
        currently blocked on this one.
        """
        self._mutex.acquire()
        try:
            if not txn.writes and stamp is None:
                return None  # read-only: nothing to stamp
            if stamp is None:
                stamp = self._commit_seq + 1
            self._commit_seq = max(self._commit_seq, stamp)
            for kind, _table, payload in txn.writes:
                if kind == INSERT:
                    for version in payload:
                        version.begin = stamp
                else:
                    payload.end = stamp
                    self.dead_versions += 1
            return stamp
        finally:
            self._mutex.release()

    def finish(self, txn: Transaction, committed: bool = True) -> None:
        """Retire a transaction and wake conflict waiters.

        A committed one was stamped first; an aborted one must have
        been undone first, so by the time waiters wake up here the heap
        carries no trace of it.  A transaction that never took a
        snapshot was never registered: there is nothing to retire.
        """
        if txn.id is None:
            return
        self._mutex.acquire()
        try:
            self._active.pop(txn.id, None)
            if self._waiters:
                self._cond.notify_all()
        finally:
            self._mutex.release()
        (_TXN_COMMITS if committed else _TXN_ABORTS).increment()

    # ------------------------------------------------------------------
    # conflict waits
    # ------------------------------------------------------------------
    def wait_for(self, txn_id: int, timeout: float) -> bool:
        """Block until transaction ``txn_id`` commits or aborts.

        Returns False on timeout (suspected deadlock: the caller holds
        claims the blocker may in turn be waiting on, so it must give
        up with SQLSTATE 40001 rather than wait forever).
        """
        _TXN_CONFLICT_WAITS.increment()
        deadline = _time.monotonic() + timeout
        with self._cond:
            self._waiters += 1
            try:
                while txn_id in self._active:
                    remaining = deadline - _time.monotonic()
                    if remaining <= 0:
                        return False
                    self._cond.wait(remaining)
            finally:
                self._waiters -= 1
        return True

    def is_active(self, txn_id: int) -> bool:
        with self._cond:
            return txn_id in self._active

    # ------------------------------------------------------------------
    # introspection / recovery
    # ------------------------------------------------------------------
    @property
    def commit_seq(self) -> int:
        with self._cond:
            return self._commit_seq

    def restore(self, commit_seq: int) -> None:
        """Fast-forward the counter after loading a checkpoint, so new
        stamps continue above everything already durable."""
        with self._cond:
            self._commit_seq = max(self._commit_seq, commit_seq)

    def oldest_visible_seq(self) -> int:
        """Vacuum horizon: versions with ``end <=`` this are invisible
        to every live snapshot and may be physically reclaimed."""
        with self._cond:
            if not self._active:
                return self._commit_seq
            return min(
                min(t.snapshot_seq for t in self._active.values()),
                self._commit_seq,
            )

    def freeze_horizon(self) -> Optional[int]:
        """The horizon :func:`freeze` may use: :meth:`oldest_visible_seq`,
        or None during replay, which pins snapshots below it."""
        return None if self.replaying else self.oldest_visible_seq()

    def active_transactions(self) -> List[Transaction]:
        with self._cond:
            return list(self._active.values())
