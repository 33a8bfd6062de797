"""Bounded connection pooling over the embedded engine.

The paper's connection-context model (Part 0) assumes many clients
sharing one database; :class:`ConnectionPool` is the data-tier half of
that bargain: a bounded set of engine sessions handed out as
JDBC-shaped connections, surviving client churn and injected faults.

Semantics:

* **Bounded.** At most ``max_size`` sessions exist at once; ``min_size``
  are opened eagerly.  A checkout against an exhausted pool blocks up to
  ``timeout`` seconds, then raises
  :class:`repro.errors.PoolTimeoutError` (SQLSTATE 08004) — never hangs
  forever, never over-allocates.
* **Health-checked.** Sessions are inspected on return and again on
  checkout: a session that died (closed, killed by a fault) is discarded
  and replaced; a session returned mid-transaction is rolled back before
  reuse, so the next client never inherits uncommitted work.  Probes,
  dials and closes — network round-trips for ``repro://`` sessions —
  always run *outside* the pool lock, so one unresponsive peer slows
  only its own checkout, never the whole pool.
* **Recycled.** With ``max_age`` set, sessions older than that many
  seconds are retired instead of being reused (stale-connection
  recycling).
* **Observable.** Gauges (``pool.<name>.in_use`` / ``.idle`` / ``.size``)
  and monotonic counters (``pool.checkouts`` / ``checkins`` /
  ``timeouts`` / ``recycled`` / ``created``) flow into
  ``repro.observability.snapshot()``.

The fault-injection site ``pool.checkout`` fires inside
:meth:`ConnectionPool.checkout` (see :mod:`repro.faultpoints`), and
``pool.checkin`` pipes the returning session so tests can kill it in
flight.
"""

from __future__ import annotations

import threading
import time
import warnings
from typing import Any, Dict, List, Optional, Tuple

from repro import errors, faultpoints
from repro.dbapi.connection import Connection
from repro.engine.database import Database, Session
from repro.observability import metrics as _metrics

__all__ = ["ConnectionPool", "PooledConnection"]

_CHECKOUTS = _metrics.registry.counter("pool.checkouts")
_CHECKINS = _metrics.registry.counter("pool.checkins")
_TIMEOUTS = _metrics.registry.counter("pool.timeouts")
_RECYCLED = _metrics.registry.counter("pool.recycled")
_CREATED = _metrics.registry.counter("pool.created")


class PooledConnection(Connection):
    """A connection whose ``close`` returns its session to the pool."""

    def __init__(
        self, session: Session, url: str, pool: "ConnectionPool"
    ) -> None:
        super().__init__(session, url=url, owns_session=True)
        self._pool = pool

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool._checkin(self.session)

    def __del__(self) -> None:
        if not self._closed:
            warnings.warn(
                f"unclosed pooled connection to {self.url!r} "
                "(leaked without close(); its slot was reclaimed)",
                ResourceWarning,
                stacklevel=2,
                source=self,
            )
            self._closed = True
            self._pool._abandon(self.session)


class ConnectionPool:
    """A bounded pool of engine sessions on one database."""

    def __init__(
        self,
        database: Database,
        *,
        min_size: int = 0,
        max_size: int = 8,
        timeout: Optional[float] = None,
        max_age: Optional[float] = None,
        user: Optional[str] = None,
        autocommit: bool = True,
        name: Optional[str] = None,
        url: str = "",
    ) -> None:
        if timeout is None:
            timeout = 5.0
        if max_size < 1:
            raise errors.ConnectionError_("pool max_size must be >= 1")
        if min_size < 0 or min_size > max_size:
            raise errors.ConnectionError_(
                "pool min_size must be between 0 and max_size"
            )
        self.database = database
        self.min_size = min_size
        self.max_size = max_size
        #: Default checkout wait in seconds (``timeout=`` at
        #: construction; per-call override via ``checkout(timeout=...)``).
        self.timeout = timeout
        self.max_age = max_age
        self.user = user
        self.autocommit = autocommit
        self.name = name or database.name
        self.url = url or f"pool:{self.name}"
        self._cond = threading.Condition(threading.Lock())
        self._idle: List[Session] = []
        self._in_use = 0
        self._closed = False
        self._gauge_in_use = _metrics.registry.counter(
            f"pool.{self.name}.in_use"
        )
        self._gauge_idle = _metrics.registry.counter(
            f"pool.{self.name}.idle"
        )
        self._gauge_size = _metrics.registry.counter(
            f"pool.{self.name}.size"
        )
        # Eager sessions are dialled outside the lock: opening a remote
        # session is a network handshake and must never run under _cond.
        eager = [self._open_session() for _ in range(min_size)]
        with self._cond:
            self._idle.extend(eager)
            self._update_gauges_locked()

    # ------------------------------------------------------------------
    # checkout / checkin
    # ------------------------------------------------------------------
    def checkout(
        self, timeout: Optional[float] = None
    ) -> PooledConnection:
        """Borrow a connection, blocking up to ``timeout`` seconds.

        Raises :class:`repro.errors.PoolTimeoutError` when the pool
        stays exhausted for the whole wait.
        """
        if timeout is None:
            timeout = self.timeout
        deadline = time.monotonic() + timeout
        while True:
            candidate, open_new = self._reserve_slot(deadline, timeout)
            # The slot is reserved; everything that can touch the
            # network — dialling a new session, the PING health probe,
            # rolling back stale work, closing the unhealthy — runs
            # outside the pool lock, so one hung peer cannot freeze
            # every other checkout and checkin.
            session = None
            try:
                if open_new:
                    session = self._open_session()
                elif self._healthy(candidate):
                    session = candidate
                else:
                    self._dispose(candidate)
                    _RECYCLED.increment()
            except BaseException:
                self._release_slot()
                raise
            if session is not None:
                break
            self._release_slot()  # unhealthy idle session: try again
        try:
            faultpoints.trigger("pool.checkout")
        except BaseException:
            # An injected checkout failure must not leak the slot.
            self._checkin(session)
            raise
        _CHECKOUTS.increment()
        return PooledConnection(session, self.url, self)

    def _reserve_slot(
        self, deadline: float, timeout: float
    ) -> "Tuple[Optional[Session], bool]":
        """Claim an idle session or the right to open a new one.

        Returns ``(candidate, open_new)`` with the slot already counted
        in-use, so the caller may probe or dial without the lock while
        the pool stays bounded.  Blocks until the deadline when the
        pool is exhausted.
        """
        with self._cond:
            self._check_open()
            while True:
                if self._idle:
                    self._in_use += 1
                    session = self._idle.pop()
                    self._update_gauges_locked()
                    return session, False
                if self._total_locked() < self.max_size:
                    self._in_use += 1
                    self._update_gauges_locked()
                    return None, True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    _TIMEOUTS.increment()
                    raise errors.PoolTimeoutError(
                        f"pool {self.name!r} exhausted: all "
                        f"{self.max_size} connections in use after "
                        f"waiting {timeout:.3f}s"
                    )
                self._cond.wait(remaining)
                self._check_open()

    def _release_slot(self) -> None:
        """Give back a reserved slot (probe failed or dial raised)."""
        with self._cond:
            self._in_use = max(0, self._in_use - 1)
            self._update_gauges_locked()
            self._cond.notify()

    def _checkin(self, session: Session) -> None:
        """Return ``session`` to the pool (health check + recycling)."""
        session = faultpoints.pipe("pool.checkin", session)
        _CHECKINS.increment()
        with self._cond:
            pool_closed = self._closed
        # Probe and reset outside the lock: ping() and rollback() are
        # network round-trips for remote sessions.
        healthy = not pool_closed and self._healthy(session)
        if healthy:
            try:
                session.autocommit = self.autocommit
            except errors.SQLException:
                healthy = False
        if not healthy:
            self._dispose(session)
            if not pool_closed:
                _RECYCLED.increment()
        dispose_late: Optional[Session] = None
        with self._cond:
            self._in_use = max(0, self._in_use - 1)
            if healthy and not self._closed:
                self._idle.append(session)
            elif healthy:
                dispose_late = session  # pool closed while we probed
            self._update_gauges_locked()
            self._cond.notify()
        if dispose_late is not None:
            self._dispose(dispose_late)

    def _abandon(self, session: Session) -> None:
        """Reclaim the slot of a leaked (never-closed) connection."""
        self._dispose(session)
        _RECYCLED.increment()
        with self._cond:
            self._in_use = max(0, self._in_use - 1)
            self._update_gauges_locked()
            self._cond.notify()

    # ------------------------------------------------------------------
    # internals — session I/O; never call these with self._cond held
    # ------------------------------------------------------------------
    def _open_session(self) -> Session:
        session = self.database.create_session(
            user=self.user, autocommit=self.autocommit
        )
        session._pool_opened_at = time.monotonic()
        _CREATED.increment()
        return session

    def _healthy(self, session: Session) -> bool:
        if session.closed:
            return False
        if self.max_age is not None:
            opened = getattr(session, "_pool_opened_at", None)
            if opened is not None and \
                    time.monotonic() - opened > self.max_age:
                return False
        # Sessions with a liveness probe (remote repro:// sessions) get
        # round-tripped: a TCP connection whose server died looks open
        # locally until the next read, so `closed` alone cannot catch
        # it.  A failed probe marks the session dead and frees the slot.
        probe = getattr(session, "ping", None)
        if probe is not None and not probe():
            return False
        if session.in_transaction:
            # Never hand uncommitted work — or a read snapshot, which
            # would show the next client stale rows and pin the vacuum
            # horizon — to the next client.
            try:
                session.rollback()
            except errors.SQLException:
                return False
        return True

    def _dispose(self, session: Session) -> None:
        try:
            session.close()
        except errors.SQLException:  # pragma: no cover - best effort
            pass

    # ------------------------------------------------------------------
    # internals (call with self._cond held)
    # ------------------------------------------------------------------
    def _total_locked(self) -> int:
        return self._in_use + len(self._idle)

    def _update_gauges_locked(self) -> None:
        self._gauge_in_use.value = self._in_use
        self._gauge_idle.value = len(self._idle)
        self._gauge_size.value = self._total_locked()

    def _check_open(self) -> None:
        if self._closed:
            raise errors.ConnectionClosedError(
                f"pool {self.name!r} is closed"
            )

    # ------------------------------------------------------------------
    # inspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Point-in-time view of pool occupancy."""
        with self._cond:
            return {
                "name": self.name,
                "in_use": self._in_use,
                "idle": len(self._idle),
                "size": self._total_locked(),
                "max_size": self.max_size,
                "closed": self._closed,
            }

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close all idle sessions and refuse further checkouts.

        Connections currently checked out stay usable; their sessions
        are closed when returned.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            doomed = list(self._idle)
            self._idle.clear()
            self._update_gauges_locked()
            self._cond.notify_all()
        for session in doomed:
            self._dispose(session)

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
