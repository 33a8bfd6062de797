"""A minimal DB-API 2.0 (PEP 249) cursor over the JDBC-shaped driver.

The paper's API surface is JDBC (``Statement`` / ``PreparedStatement``
/ ``ResultSet``), but Python callers — and differential tests against
:mod:`sqlite3` — expect ``connection.cursor()`` with ``execute`` /
``executemany`` / ``fetchall``.  :class:`Cursor` provides exactly that
over the same engine or remote session, with ``qmark`` parameter style
(the engine's native ``?`` markers).

``executemany`` is the bulk-load entry point: the whole parameter-row
sequence goes through ``session.execute_batch`` as one atomic batch —
one parse, one transaction, one logical WAL record and fsync barrier,
and over ``repro://`` one round trip — instead of a Python-level loop
of single executes.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro import errors
from repro.dbapi.statement import strip_call_escape

__all__ = ["Cursor"]

#: PEP 249 module-level attributes, re-exported by ``repro.dbapi``.
paramstyle = "qmark"
apilevel = "2.0"


class Cursor:
    """One statement execution context, PEP 249 style.

    Obtained from :meth:`repro.dbapi.connection.Connection.cursor`.
    Transaction control stays on the connection (``commit`` /
    ``rollback``), as the DB-API specifies.
    """

    arraysize = 1

    def __init__(self, connection: Any) -> None:
        self.connection = connection
        self._rows: Optional[Any] = None  # list or RemoteRows
        self._position = 0
        self._description: Optional[List[Tuple]] = None
        #: the last result set's shape, which ``description`` describes
        self._shape: Optional[Any] = None
        self.rowcount = -1
        self._closed = False

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> "Cursor":
        """Execute one statement; returns the cursor (PEP 249 allows
        chaining ``cur.execute(...).fetchall()``)."""
        self._check_open()
        result = self.connection.session.execute(
            strip_call_escape(sql), list(params)
        )
        if result.kind == "rowset":
            self._rows = result.rows
            # built on first read of ``description``
            self._description = None
            self._shape = result.shape
            self.rowcount = len(result.rows)
        else:
            self._rows = None
            self._description = self._shape = None
            self.rowcount = result.update_count
        self._position = 0
        return self

    def executemany(
        self,
        sql: str,
        seq_of_params: Sequence[Sequence[Any]],
    ) -> "Cursor":
        """Execute one DML statement against every parameter row as a
        single atomic batch.

        This is the DB-API face of the engine's bulk fast path: the
        statement is parsed once, all rows commit (or roll back)
        together, durability costs one WAL record and one fsync
        barrier, and a remote session ships everything in one
        ``MSG_EXECUTE_BATCH`` frame.  ``rowcount`` is the total
        affected-row count.  Queries are rejected, as the DB-API
        specifies.
        """
        self._check_open()
        counts = self.connection.session.execute_batch(
            sql, [list(params) for params in seq_of_params]
        )
        self._rows = None
        self._description = self._shape = None
        self._position = 0
        self.rowcount = sum(counts)
        return self

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def description(self) -> Optional[List[Tuple]]:
        if self._description is None and self._rows is not None:
            columns = self._shape.columns if self._shape is not None else ()
            self._description = [
                (column.name, None, None, None, None, None, None)
                for column in columns
            ]
        return self._description

    def _check_rowset(self) -> Any:
        if self._rows is None:
            raise errors.InvalidCursorStateError(
                "no result set; the last statement returned no rows"
            )
        return self._rows

    def fetchone(self) -> Optional[Tuple]:
        rows = self._check_rowset()
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return tuple(row)

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple]:
        rows = self._check_rowset()
        if size is None:
            size = self.arraysize
        page = [
            tuple(rows[index])
            for index in range(
                self._position, min(self._position + size, len(rows))
            )
        ]
        self._position += len(page)
        return page

    def fetchall(self) -> List[Tuple]:
        rows = self._check_rowset()
        page = [
            tuple(rows[index])
            for index in range(self._position, len(rows))
        ]
        self._position = len(rows)
        return page

    def __iter__(self) -> Iterator[Tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # ------------------------------------------------------------------
    # lifecycle / no-ops the DB-API requires
    # ------------------------------------------------------------------
    def setinputsizes(self, sizes: Any) -> None:
        pass

    def setoutputsize(self, size: Any, column: Any = None) -> None:
        pass

    def close(self) -> None:
        self._rows = None
        self._closed = True

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise errors.InvalidCursorStateError("cursor is closed")
        self.connection._check_open()
