"""Reader-writer locking for the engine.

One :class:`ReadWriteLock` guards each :class:`repro.engine.database.
Database`.  Since MVCC (:mod:`repro.engine.mvcc`) made reads and DML
snapshot-isolated, queries, DML and transaction control all acquire it
*shared* — concurrent writers coordinate through row-version claims
and the commit mutex instead of this lock.  Only catalog-shape changes
(DDL) and CALL (routines may run arbitrary nested statements) still
acquire it exclusive.  Acquisition happens once per statement, in the
statement envelope every executor shares
(``repro.engine.database.Session._run_statement``) — never nested
across two databases, which is what keeps the ordering deadlock-free.

The lock is **reentrant per thread** in both modes, because external
routines (SQLJ Part 1) execute nested statements on the invoking
session while the enclosing CALL already holds the write lock:

* write → write and write → read re-enter the existing exclusive hold;
* read → read increments the thread's shared hold;
* read → write is a lock *upgrade*: a function invoked from a SELECT
  may run DML through its default connection.  The upgrade waits until
  the requester is the sole reader.  Only one thread may wait for an
  upgrade at a time; a second concurrent upgrader would deadlock
  against the first, so it fails fast with
  :class:`repro.errors.TransactionError` (SQLSTATE class 25) instead of
  hanging.

Writers are preferred over newly arriving readers (a waiting writer
blocks new shared acquisitions) so a stream of queries cannot starve
DML.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterator, Optional

from repro import errors
from repro.observability import stats as _stats

__all__ = ["ReadWriteLock"]


class ReadWriteLock:
    """Shared-read / exclusive-write lock, reentrant per thread.

    Blocked acquisitions are timed and reported to
    :func:`repro.observability.stats.note_lock_wait` (global
    ``waits.lock.*`` histograms plus per-statement attribution) and
    accumulated on the lock itself (:attr:`shared_wait_seconds` /
    :attr:`exclusive_wait_seconds`) for the ``repro_stats.locks`` view.
    The uncontended path takes no clock readings at all.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._writer: Optional[int] = None  # owning thread ident
        self._writer_depth = 0
        self._readers: Dict[int, int] = {}  # thread ident -> hold depth
        self._waiting_writers = 0
        self._upgrader: Optional[int] = None
        # Read depth stashed while a reader holds an upgraded write lock.
        self._suspended_read_depth: Dict[int, int] = {}
        #: Cumulative blocked-acquisition totals (under self._cond).
        self.shared_wait_seconds = 0.0
        self.exclusive_wait_seconds = 0.0
        self.shared_wait_count = 0
        self.exclusive_wait_count = 0

    # ------------------------------------------------------------------
    # shared (read) side
    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # Nested read under our own write hold: stay exclusive.
                self._writer_depth += 1
                return
            if me in self._readers:
                self._readers[me] += 1
                return
            if (
                self._writer is not None
                or self._waiting_writers
                or self._upgrader is not None
            ):
                start = time.perf_counter()
                while (
                    self._writer is not None
                    or self._waiting_writers
                    or self._upgrader is not None
                ):
                    self._cond.wait()
                waited = time.perf_counter() - start
                self.shared_wait_seconds += waited
                self.shared_wait_count += 1
                _stats.note_lock_wait(False, waited)
            self._readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._release_write_locked(me)
                return
            depth = self._readers.get(me)
            if depth is None:
                raise RuntimeError(
                    "release_read without a matching acquire_read"
                )
            if depth == 1:
                del self._readers[me]
                self._cond.notify_all()
            else:
                self._readers[me] = depth - 1

    # ------------------------------------------------------------------
    # exclusive (write) side
    # ------------------------------------------------------------------
    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                self._upgrade_locked(me)
                return
            self._waiting_writers += 1
            try:
                if self._writer is not None or self._readers:
                    start = time.perf_counter()
                    while self._writer is not None or self._readers:
                        self._cond.wait()
                    waited = time.perf_counter() - start
                    self.exclusive_wait_seconds += waited
                    self.exclusive_wait_count += 1
                    _stats.note_lock_wait(True, waited)
            finally:
                self._waiting_writers -= 1
            self._writer = me
            self._writer_depth = 1

    def _upgrade_locked(self, me: int) -> None:
        """Promote this thread's shared hold to exclusive."""
        if self._upgrader is not None:
            raise errors.TransactionError(
                "deadlock avoided: two transactions attempted a "
                "read-to-write lock upgrade concurrently"
            )
        self._upgrader = me
        try:
            if self._writer is not None or len(self._readers) > 1:
                start = time.perf_counter()
                while self._writer is not None or len(self._readers) > 1:
                    self._cond.wait()
                waited = time.perf_counter() - start
                self.exclusive_wait_seconds += waited
                self.exclusive_wait_count += 1
                _stats.note_lock_wait(True, waited)
        finally:
            self._upgrader = None
        self._suspended_read_depth[me] = self._readers.pop(me)
        self._writer = me
        self._writer_depth = 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError(
                    "release_write by a thread that does not hold the "
                    "write lock"
                )
            self._release_write_locked(me)

    def _release_write_locked(self, me: int) -> None:
        self._writer_depth -= 1
        if self._writer_depth == 0:
            self._writer = None
            suspended = self._suspended_read_depth.pop(me, None)
            if suspended is not None:
                # Downgrade back to the shared hold the upgrade suspended.
                self._readers[me] = suspended
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # context managers (the statement envelope binds acquire/release
    # directly; everything else uses these)
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextlib.contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # ------------------------------------------------------------------
    # introspection (tests and diagnostics)
    # ------------------------------------------------------------------
    def held_exclusive(self) -> bool:
        return self._writer is not None

    def held_exclusive_by_me(self) -> bool:
        """True when the *calling thread* holds the exclusive lock.

        Distinct from :meth:`held_exclusive`: a writer deciding whether
        it is nested inside its own exclusive statement must not be
        fooled by some other thread happening to hold the lock.
        """
        return self._writer == threading.get_ident()

    def reader_count(self) -> int:
        with self._cond:
            return len(self._readers)
