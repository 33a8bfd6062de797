"""Statement, PreparedStatement and CallableStatement.

These mirror the JDBC classes the paper's examples use:

* ``Statement.execute_query`` / ``execute_update`` for dynamic SQL,
* ``PreparedStatement`` with 1-based ``set_xxx`` binders (the JDBC side of
  the paper's "SQLJ more concise than JDBC" comparison),
* ``CallableStatement`` with ``{call proc(?, ...)}`` escape syntax,
  ``register_out_parameter``, 1-based ``get_xxx`` for OUT values, and
  ``get_result_set`` / ``get_more_results`` for dynamic result sets.
"""

from __future__ import annotations

import datetime
import decimal
import re
from typing import Any, Dict, List, Optional, Union

from repro import errors
from repro.dbapi.resultset import ResultSet
from repro.engine import ast
from repro.engine.database import StatementResult
from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing

__all__ = [
    "Statement",
    "PreparedStatement",
    "CallableStatement",
    "BatchUpdateError",
]

_EXECUTIONS = _metrics.registry.counter("dbapi.executions")

_CALL_ESCAPE_RE = re.compile(
    r"^\s*\{\s*\?\s*=\s*call\s+(?P<fncall>.+?)\s*\}\s*$|"
    r"^\s*\{\s*call\s+(?P<call>.+?)\s*\}\s*$",
    re.IGNORECASE | re.DOTALL,
)


def strip_call_escape(sql: str) -> str:
    """Normalise the JDBC ``{call ...}`` escape to a CALL statement."""
    match = _CALL_ESCAPE_RE.match(sql)
    if match:
        body = match.group("call") or match.group("fncall")
        return f"CALL {body}"
    return sql


class BatchUpdateError(errors.SQLException):
    """A batch execution failed part-way (JDBC's BatchUpdateException).

    ``update_counts`` holds the counts of the statements that executed
    before the failure.  Batches run inside a single transaction, so in
    autocommit mode these counts are informational only: the whole
    batch was rolled back and none of them remain committed.
    """

    default_sqlstate = "HY000"

    def __init__(self, message: str, update_counts: List[int]) -> None:
        super().__init__(message)
        self.update_counts = update_counts


def _run_batch_atomically(connection: Any, run: Any) -> List[int]:
    """Execute ``run()`` (a queued batch) inside ONE transaction.

    In autocommit mode the session temporarily drops to manual commit,
    runs the whole batch, and commits once at the end; any error rolls
    the entire batch back before the flag is restored, so a mid-batch
    failure never leaves a committed prefix behind (MVCC makes the
    rollback invisible to concurrent readers).  Inside an explicit
    transaction the batch simply joins it — completed statements stay
    pending and the caller's COMMIT/ROLLBACK decides.
    """
    session = connection.session
    if not connection.autocommit:
        return run()
    session.autocommit = False
    try:
        counts = run()
        session.commit()
    except BaseException:
        try:
            session.rollback()
        finally:
            session.autocommit = True
        raise
    session.autocommit = True
    return counts


class Statement:
    """Dynamic (unprepared) statement execution."""

    def __init__(self, connection: Any) -> None:
        self.connection = connection
        self._result: Optional[StatementResult] = None
        self._result_set_index = 0
        self._closed = False
        self._batch: List[Any] = []

    # ------------------------------------------------------------------
    def _run(self, sql: str, params: List[Any]) -> StatementResult:
        self._check_open()
        session = self.connection.session
        _EXECUTIONS.increment()
        tracer = self.connection._tracer or _tracing.current
        if tracer.enabled:
            with tracer.span("dbapi.statement", sql=sql):
                result = session.execute(strip_call_escape(sql), params)
        else:
            result = session.execute(strip_call_escape(sql), params)
        self._result = result
        self._result_set_index = 0
        return result

    def execute_query(self, sql: str) -> ResultSet:
        result = self._run(sql, [])
        if not result.is_rowset:
            raise errors.DataError(
                "execute_query used for a statement that returns no rows"
            )
        return ResultSet(result, self)

    def execute_update(self, sql: str) -> int:
        result = self._run(sql, [])
        if result.is_rowset:
            raise errors.DataError(
                "execute_update used for a statement that returns rows"
            )
        return result.update_count

    def execute(self, sql: str) -> bool:
        """Execute any statement; True if a result set is available."""
        result = self._run(sql, [])
        return result.is_rowset or bool(result.result_sets)

    # ------------------------------------------------------------------
    # multiple-results protocol (dynamic result sets from CALL)
    # ------------------------------------------------------------------
    def _available_results(self) -> List[StatementResult]:
        if self._result is None:
            return []
        if self._result.is_rowset:
            return [self._result]
        return self._result.result_sets

    def get_result_set(self) -> Optional[ResultSet]:
        results = self._available_results()
        if self._result_set_index >= len(results):
            return None
        return ResultSet(results[self._result_set_index], self)

    def get_more_results(self) -> bool:
        results = self._available_results()
        self._result_set_index += 1
        return self._result_set_index < len(results)

    def get_update_count(self) -> int:
        if self._result is None or self._result.is_rowset:
            return -1
        if self._result.kind == "update":
            return self._result.update_count
        return -1

    # ------------------------------------------------------------------
    # batch updates (JDBC 2.0)
    # ------------------------------------------------------------------
    def add_batch(self, sql: str) -> None:
        """Queue one complete SQL statement for batched execution.

        Plain statements batch *literal* SQL text — every queued entry
        carries its own values and may target a different table, and
        each is re-parsed at ``execute_batch`` time.  There is no
        parameter binding here: to bind many parameter rows against one
        statement (and get the engine's bulk fast path — one parse, one
        WAL record, one round trip), use
        :meth:`PreparedStatement.add_batch`, the JDBC 2.0
        prepared-batch form.
        """
        self._check_open()
        self._batch.append(sql)

    def clear_batch(self) -> None:
        self._batch.clear()

    def execute_batch(self) -> List[int]:
        """Run the queued statements as ONE transaction; returns their
        update counts.

        Partial-failure semantics (JDBC leaves them to the driver; this
        driver's choice): the batch is a single unit of work.  In
        autocommit mode the connection switches to manual commit for
        the duration, executes every queued statement, and commits once
        at the end — a mid-batch error rolls the WHOLE batch back under
        MVCC, so a failure never leaves a committed prefix behind.
        Inside an explicit transaction the batch joins it and the
        caller's COMMIT/ROLLBACK decides.

        A failure raises :class:`BatchUpdateError` whose
        ``update_counts`` carries the counts of the statements that
        executed before the error (informational — in autocommit mode
        none of them remain committed).  The queue is cleared either
        way.  DDL statements commit immediately and are not
        transactional, so they are outside the all-or-nothing
        guarantee.
        """
        self._check_open()
        batch, self._batch = list(self._batch), []
        counts: List[int] = []

        def run() -> List[int]:
            for sql in batch:
                result = self._run(sql, [])
                if result.is_rowset:
                    raise errors.DataError(
                        "queries are not allowed in a batch"
                    )
                counts.append(result.update_count)
            return counts

        try:
            return _run_batch_atomically(self.connection, run)
        except errors.SQLException as exc:
            raise BatchUpdateError(
                f"batch failed after {len(counts)} statement(s): "
                f"{exc.message}",
                counts,
            ) from exc

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise errors.InvalidCursorStateError("statement is closed")
        self.connection._check_open()


class PreparedStatement(Statement):
    """Parameterised statement parsed and (queries and DML) compiled
    once, when it is prepared."""

    def __init__(self, connection: Any, sql: str) -> None:
        super().__init__(connection)
        self.sql = strip_call_escape(sql)
        self._plan = connection.session.prepare(self.sql)
        self._params: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # binder methods (1-based indexes, as in JDBC)
    # ------------------------------------------------------------------
    def _bind(self, index: int, value: Any) -> None:
        if index < 1:
            raise errors.DataError("parameter indexes are 1-based")
        self._params[index] = value

    def set_object(self, index: int, value: Any) -> None:
        self._bind(index, value)

    def set_string(self, index: int, value: Optional[str]) -> None:
        if value is not None and not isinstance(value, str):
            raise errors.InvalidCastError("set_string expects str or None")
        self._bind(index, value)

    def set_int(self, index: int, value: Optional[int]) -> None:
        if value is not None and not isinstance(value, int):
            raise errors.InvalidCastError("set_int expects int or None")
        self._bind(index, value)

    def set_float(self, index: int, value: Optional[float]) -> None:
        if value is not None:
            value = float(value)
        self._bind(index, value)

    def set_decimal(
        self, index: int, value: Optional[decimal.Decimal]
    ) -> None:
        if value is not None and not isinstance(value, decimal.Decimal):
            value = decimal.Decimal(str(value))
        self._bind(index, value)

    def set_boolean(self, index: int, value: Optional[bool]) -> None:
        if value is not None:
            value = bool(value)
        self._bind(index, value)

    def set_date(self, index: int, value: Optional[datetime.date]) -> None:
        self._bind(index, value)

    def set_bytes(self, index: int, value: Optional[bytes]) -> None:
        if value is not None and not isinstance(value, (bytes, bytearray)):
            raise errors.InvalidCastError("set_bytes expects bytes or None")
        self._bind(index, bytes(value) if value is not None else None)

    def set_null(self, index: int, _type_code: int = 0) -> None:
        self._bind(index, None)

    def clear_parameters(self) -> None:
        self._params.clear()

    # ------------------------------------------------------------------
    # batch updates (JDBC 2.0): one prepared statement, many bindings
    # ------------------------------------------------------------------
    def add_batch(self, sql: Optional[str] = None) -> None:
        """Queue the current parameter bindings as one batch row
        (JDBC 2.0 prepared-batch form).

        Bind parameters with the ``set_xxx`` methods, call
        ``add_batch()`` with no argument, repeat, then
        :meth:`execute_batch` runs every queued row against the one
        prepared statement.  The bindings are snapshotted here, so the
        usual JDBC loop — rebind, ``add_batch()``, rebind — works.
        """
        if sql is not None:
            raise errors.DataError(
                "prepared statements batch their own SQL; bind "
                "parameters and call add_batch() with no argument"
            )
        self._check_open()
        self._batch.append(self._param_list())

    def execute_batch(self) -> List[int]:
        """Execute every queued parameter row as ONE atomic batch;
        returns the per-row update counts.

        DML statements (INSERT/UPDATE/DELETE) take the engine's bulk
        fast path via ``session.execute_batch``: one parse, one
        transaction, one logical WAL record and one fsync barrier for
        the whole batch — and over ``repro://``, one
        ``MSG_EXECUTE_BATCH`` round trip however many rows are queued.
        CALL statements fall back to per-row execution, still inside a
        single transaction.

        The batch is all-or-nothing: a mid-batch failure (constraint
        violation, coercion error) raises :class:`BatchUpdateError`
        with EMPTY ``update_counts`` — no row of the batch was
        committed in autocommit mode, and inside an explicit
        transaction the batch's own work was rolled back while the
        surrounding transaction stays open.  The queue is cleared
        either way.
        """
        self._check_open()
        batch, self._batch = list(self._batch), []
        if not batch:
            return []
        session = self.connection.session
        statement = self._plan.statement
        _EXECUTIONS.increment()
        if isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
            try:
                return list(session.execute_batch(self.sql, batch))
            except errors.SQLException as exc:
                raise BatchUpdateError(
                    f"batch of {len(batch)} parameter row(s) failed "
                    f"atomically: {exc.message}",
                    [],
                ) from exc
        if isinstance(statement, (ast.Select, ast.SetOperation)):
            raise errors.DataError("queries are not allowed in a batch")
        counts: List[int] = []

        def run() -> List[int]:
            for params in batch:
                result = self._plan.execute(params)
                if result.is_rowset:
                    raise errors.DataError(
                        "queries are not allowed in a batch"
                    )
                counts.append(result.update_count)
            return counts

        try:
            return _run_batch_atomically(self.connection, run)
        except errors.SQLException as exc:
            raise BatchUpdateError(
                f"batch failed after {len(counts)} statement(s): "
                f"{exc.message}",
                counts,
            ) from exc

    def _param_list(self) -> List[Any]:
        if not self._params:
            return []
        highest = max(self._params)
        return [self._params.get(i + 1) for i in range(highest)]

    # ------------------------------------------------------------------
    def _run_prepared(self) -> StatementResult:
        self._check_open()
        _EXECUTIONS.increment()
        tracer = self.connection._tracer or _tracing.current
        if tracer.enabled:
            with tracer.span("dbapi.prepared", sql=self.sql):
                result = self._plan.execute(self._param_list())
        else:
            result = self._plan.execute(self._param_list())
        if (
            self.connection.autocommit
            and self.connection.session.transaction_log.active
        ):
            self.connection.session.commit()
        self._result = result
        self._result_set_index = 0
        return result

    def execute_query(self, sql: Optional[str] = None) -> ResultSet:
        if sql is not None:
            raise errors.DataError(
                "prepared statements execute their own SQL"
            )
        result = self._run_prepared()
        if not result.is_rowset:
            raise errors.DataError(
                "execute_query used for a statement that returns no rows"
            )
        return ResultSet(result, self)

    def execute_update(self, sql: Optional[str] = None) -> int:
        if sql is not None:
            raise errors.DataError(
                "prepared statements execute their own SQL"
            )
        result = self._run_prepared()
        if result.is_rowset:
            raise errors.DataError(
                "execute_update used for a statement that returns rows"
            )
        return result.update_count

    def execute(self, sql: Optional[str] = None) -> bool:
        if sql is not None:
            raise errors.DataError(
                "prepared statements execute their own SQL"
            )
        result = self._run_prepared()
        return result.is_rowset or bool(result.result_sets)


class CallableStatement(PreparedStatement):
    """Stored-procedure invocation with OUT parameters.

    ``?`` markers are numbered 1..n in order of appearance; IN markers are
    bound with ``set_xxx``, OUT markers registered with
    ``register_out_parameter`` and read back with ``get_xxx`` after
    ``execute``.
    """

    def __init__(self, connection: Any, sql: str) -> None:
        super().__init__(connection, sql)
        statement = self._plan.statement
        if not isinstance(statement, ast.Call):
            raise errors.SQLSyntaxError(
                "CallableStatement requires a CALL statement"
            )
        self._call = statement
        self._registered: Dict[int, int] = {}
        self._out_by_marker: Dict[int, Any] = {}
        # marker index (0-based) -> argument position in the CALL
        self._marker_positions: Dict[int, int] = {}
        for position, arg in enumerate(statement.args):
            if isinstance(arg, ast.Parameter):
                self._marker_positions[arg.index] = position

    def register_out_parameter(self, index: int, type_code: int) -> None:
        """Declare marker ``index`` (1-based) as an OUT parameter."""
        if index - 1 not in self._marker_positions:
            raise errors.DataError(
                f"no ? marker at index {index} to register as OUT"
            )
        self._registered[index] = type_code

    def _run_prepared(self) -> StatementResult:
        result = super()._run_prepared()
        self._out_by_marker = {}
        if result.kind == "call":
            for marker, position in self._marker_positions.items():
                if position < len(result.out_values):
                    self._out_by_marker[marker + 1] = \
                        result.out_values[position]
        return result

    # ------------------------------------------------------------------
    # OUT value accessors (1-based marker indexes)
    # ------------------------------------------------------------------
    def _out(self, index: Union[int, str]) -> Any:
        if not isinstance(index, int):
            raise errors.DataError("OUT parameters are accessed by index")
        if index not in self._registered:
            raise errors.DataError(
                f"parameter {index} was not registered as OUT"
            )
        return self._out_by_marker.get(index)

    def get_object(self, index: Union[int, str]) -> Any:
        return self._out(index)

    def get_string(self, index: Union[int, str]) -> Optional[str]:
        value = self._out(index)
        return None if value is None else str(value)

    def get_int(self, index: Union[int, str]) -> Optional[int]:
        value = self._out(index)
        return None if value is None else int(value)

    def get_decimal(
        self, index: Union[int, str]
    ) -> Optional[decimal.Decimal]:
        value = self._out(index)
        if value is None or isinstance(value, decimal.Decimal):
            return value
        return decimal.Decimal(str(value))

    def get_float(self, index: Union[int, str]) -> Optional[float]:
        value = self._out(index)
        return None if value is None else float(value)

    def get_boolean(self, index: Union[int, str]) -> Optional[bool]:
        value = self._out(index)
        return None if value is None else bool(value)
