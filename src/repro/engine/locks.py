"""Reader-writer locking for the engine: the DDL latch.

One :class:`ReadWriteLock` guards each :class:`repro.engine.database.
Database`.  Since MVCC (:mod:`repro.engine.mvcc`) made reads and DML
snapshot-isolated, queries, DML, transaction control and a user CALL
all acquire it *shared* — concurrent writers coordinate through
row-version claims and the commit mutex instead of this lock.  Only
what rewrites the catalog that planning reads — DDL and the ``sqlj.*``
system procedures — and the vacuum and checkpoint passes acquire it
exclusive.  Acquisition happens once per statement, in the statement
envelope every executor shares
(``repro.engine.database.Session._run_statement``) — never nested
across two databases, which is what keeps the ordering deadlock-free.

The lock is **reentrant per thread**, because external routines (SQLJ
Part 1) execute nested statements on the invoking session while the
enclosing statement already holds it:

* write → write and write → read re-enter the exclusive hold (the
  descriptor actions of a ``sqlj.*`` CALL);
* read → read increments the thread's shared hold (a routine body's
  statements under a CALL or a SELECT);
* read → write is never granted: it raises :class:`RuntimeError` at
  once.  The envelope rejects an exclusive statement from a routine
  body (SQLSTATE 38003) before it reaches the lock, so only a bug gets
  here.

Writers are preferred over newly arriving readers (a waiting writer
blocks new shared acquisitions) so a stream of statements cannot
starve DDL, a system CALL, vacuum or the checkpoint.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterator, Optional

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
        #: The condition's lock, taken bare on the shared path: every
        #: statement acquires and releases once, and the condition's
        #: context-manager frames cost more than the work they guard.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._writer: Optional[int] = None  # owning thread ident
        self._writer_depth = 0
        self._readers: Dict[int, int] = {}  # thread ident -> hold depth
        self._waiting_writers = 0
        #: Cumulative blocked-acquisition totals (under self._cond).
        self.shared_wait_seconds = 0.0
        self.exclusive_wait_seconds = 0.0
        self.shared_wait_count = 0
        self.exclusive_wait_count = 0

    def _wait(self, exclusive: bool) -> None:
        """Block (``self._cond`` held) while the lock is written, or
        while a writer waits (shared) / readers hold it (exclusive);
        the wait is timed and accounted."""
        start = time.perf_counter()
        while self._writer is not None or (
            self._readers if exclusive else self._waiting_writers
        ):
            self._cond.wait()
        waited = time.perf_counter() - start
        if exclusive:
            self.exclusive_wait_seconds += waited
            self.exclusive_wait_count += 1
        else:
            self.shared_wait_seconds += waited
            self.shared_wait_count += 1
        _stats.note_lock_wait(exclusive, waited)

    def acquire_read(self) -> None:
        me = threading.get_ident()
        mutex = self._mutex
        mutex.acquire()
        try:
            if self._writer == me:
                # Nested read under our own write hold: stay exclusive.
                self._writer_depth += 1
                return
            readers = self._readers
            depth = readers.get(me)
            if depth is not None:
                readers[me] = depth + 1
                return
            if self._writer is not None or self._waiting_writers:
                self._wait(False)
            readers[me] = 1
        finally:
            mutex.release()

    def release_read(self) -> None:
        me = threading.get_ident()
        mutex = self._mutex
        mutex.acquire()
        try:
            if self._writer == me:
                self._release_write_locked()
                return
            depth = self._readers.get(me)
            if depth is None:
                raise RuntimeError("release_read without acquire_read")
            if depth == 1:
                del self._readers[me]
                # Only a writer waits for readers to leave (a reader
                # waits for writers), so only a waiting one is woken.
                if self._waiting_writers:
                    self._cond.notify_all()
            else:
                self._readers[me] = depth - 1
        finally:
            mutex.release()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                raise RuntimeError(
                    "acquire_write under this thread's shared hold"
                )
            self._waiting_writers += 1
            try:
                if self._writer is not None or self._readers:
                    self._wait(True)
            finally:
                self._waiting_writers -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_write without acquire_write")
            self._release_write_locked()

    def _release_write_locked(self) -> None:
        self._writer_depth -= 1
        if self._writer_depth == 0:
            self._writer = None
            self._cond.notify_all()

    # The statement envelope binds acquire/release directly; everything
    # else uses these.
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

    def held_by_me(self) -> Optional[str]:
        """The calling thread's hold: ``"exclusive"``, ``"shared"`` or
        None (only that thread changes it, so no mutex is needed)."""
        me = threading.get_ident()
        if self._writer == me:
            return "exclusive"
        return "shared" if me in self._readers else None

    def reader_count(self) -> int:
        with self._cond:
            return len(self._readers)
