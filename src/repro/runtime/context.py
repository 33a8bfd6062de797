"""Connection contexts (SQLJ Part 0).

A connection-context *type* identifies an exemplar schema ("views,
tables, privileges" — the paper); translated programs declare them with
``#sql context Department;`` and the translator generates a subclass of
:class:`ConnectionContext`.  A context *instance* wraps one connection
and caches one :class:`ConnectedProfile` per profile, so each clause's
RTStatement is built once per connection.

The default context (used by clauses without ``[ctx]``) is process-wide
state managed with :meth:`ConnectionContext.set_default_context`,
mirroring ``sqlj.runtime.ref.DefaultContext``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro import errors
from repro.engine.database import Database, Session, StatementResult
from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.profiles.customization import ConnectedProfile
from repro.profiles.model import Profile

__all__ = ["ConnectionContext", "ExecutionContext"]

_CLAUSES = _metrics.registry.counter("sqlj.clauses")


class ExecutionContext:
    """Per-context execution bookkeeping (update counts, warnings).

    ``timeout`` is accepted for ctor consistency with the rest of the
    public surface (:class:`ConnectionContext`,
    :class:`repro.dbapi.pool.ConnectionPool`); it is recorded on the
    instance but not enforced per-statement by the embedded engine.
    """

    def __init__(self, *, timeout: Optional[float] = None) -> None:
        self.update_count: int = -1
        self.warnings: list = []
        self.timeout = timeout

    def record(self, result: StatementResult) -> None:
        if result.kind == "update":
            self.update_count = result.update_count
        else:
            self.update_count = -1


class ConnectionContext:
    """Wraps one database connection for SQLJ execution.

    Accepts a PyDBC URL, a :class:`repro.dbapi.Connection`, an engine
    :class:`Session`, or a :class:`Database` (a session is opened on it).

    With ``pooled=True`` and a URL target, the underlying connection is
    checked out of the process-wide pool for that URL (every pooled
    context on the same URL shares one
    :class:`repro.dbapi.pool.ConnectionPool`), and :meth:`close` returns
    it to the pool instead of discarding the session.
    """

    _default_context: Optional["ConnectionContext"] = None

    def __init__(
        self,
        url: Any = None,
        *,
        user: Optional[str] = None,
        pooled: bool = False,
        timeout: Optional[float] = None,
    ) -> None:
        self._owns_session = False
        self._owned_connection: Optional[Any] = None
        self.timeout = timeout
        self.session = self._resolve(url, user, pooled, timeout)
        self.execution_context = ExecutionContext(timeout=timeout)
        self._connected_profiles: Dict[int, ConnectedProfile] = {}
        self._closed = False
        self._tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Any:
        """This context's tracer (the process tracer unless overridden)."""
        if self._tracer is not None:
            return self._tracer
        return _tracing.get_tracer()

    @tracer.setter
    def tracer(self, tracer: Optional[Any]) -> None:
        self._tracer = tracer

    def _resolve(
        self,
        target: Any,
        user: Optional[str],
        pooled: bool = False,
        timeout: Optional[float] = None,
    ) -> Session:
        from repro.dbapi.connection import Connection
        from repro.dbapi.driver import DriverManager

        if isinstance(target, Session):
            return target
        if isinstance(target, Connection):
            return target.session
        if isinstance(target, Database):
            if pooled:
                self._owned_connection = DriverManager.get_pool(
                    f"pool:{target.name}", user=user, database=target
                ).checkout(timeout=timeout)
                return self._owned_connection.session
            self._owns_session = True
            return target.create_session(user=user, autocommit=True)
        if isinstance(target, str):
            if pooled:
                self._owned_connection = DriverManager.get_pool(
                    target, user=user
                ).checkout(timeout=timeout)
                return self._owned_connection.session
            self._owns_session = True
            return DriverManager.get_connection(target, user=user).session
        if target is None:
            default = ConnectionContext._default_context
            if default is None:
                raise errors.ConnectionError_(
                    "no default connection context has been installed"
                )
            return default.session
        raise errors.ConnectionError_(
            f"cannot build a connection context from "
            f"{type(target).__name__}"
        )

    # ------------------------------------------------------------------
    # default-context management
    # ------------------------------------------------------------------
    @classmethod
    def set_default_context(
        cls, context: Optional["ConnectionContext"]
    ) -> None:
        ConnectionContext._default_context = context

    @classmethod
    def get_default_context(cls) -> "ConnectionContext":
        context = ConnectionContext._default_context
        if context is None:
            raise errors.ConnectionError_(
                "no default connection context has been installed; "
                "call ConnectionContext.set_default_context(...) first"
            )
        return context

    # ------------------------------------------------------------------
    # profile execution
    # ------------------------------------------------------------------
    def connected_profile(self, profile: Profile) -> ConnectedProfile:
        connected = self._connected_profiles.get(id(profile))
        if connected is None:
            connected = ConnectedProfile(profile, self.session)
            self._connected_profiles[id(profile)] = connected
        return connected

    def execute_entry(
        self, profile: Profile, index: int, params: Sequence[Any]
    ) -> StatementResult:
        if self._closed:
            raise errors.ConnectionClosedError(
                "connection context is closed"
            )
        _CLAUSES.increment()
        tracer = self._tracer
        if tracer is None:
            tracer = _tracing.current
        connected = self._connected_profiles.get(id(profile))
        if connected is None:
            connected = self.connected_profile(profile)
        if tracer.enabled:
            with tracer.span(
                "sqlj.clause", profile=profile.name, entry=index
            ):
                result = connected.execute(index, params)
        else:
            result = connected.execute(index, params)
        self.execution_context.record(result)
        return result

    def execute_batch_entry(
        self,
        profile: Profile,
        index: int,
        param_rows: Sequence[Sequence[Any]],
    ) -> List[int]:
        """Run one UPDATE-role entry against every parameter row as a
        single atomic batch (the translator's loop-batching target).

        Bypasses the per-entry RTStatement cache and hands the entry's
        canonical SQL plus all rows to ``session.execute_batch`` in one
        call; the execution context's update count reflects the whole
        batch.  An empty row list executes nothing.
        """
        self._check_open()
        _CLAUSES.increment()
        rows = [list(row) for row in param_rows]
        if not rows:
            self.execution_context.update_count = 0
            return []
        entry = profile.get_entry(index)
        counts = list(self.session.execute_batch(entry.sql, rows))
        self.execution_context.update_count = sum(counts)
        return counts

    # ------------------------------------------------------------------
    # transactions / lifecycle
    # ------------------------------------------------------------------
    def commit(self) -> None:
        self._check_open()
        self.session.commit()

    def rollback(self) -> None:
        self._check_open()
        self.session.rollback()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._connected_profiles.clear()
        if self._owned_connection is not None:
            # Pooled: hand the session back rather than closing it.
            self._owned_connection.close()
        elif self._owns_session:
            self.session.close()
        if ConnectionContext._default_context is self:
            ConnectionContext._default_context = None

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise errors.ConnectionClosedError(
                "connection context is closed"
            )

    def __enter__(self) -> "ConnectionContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
