"""ResultSet: cursor over a materialised rowset.

Mirrors ``java.sql.ResultSet``: ``next()`` advances (returning False at
end), ``get_xxx`` accessors take a 1-based column index or a column name,
``was_null()`` reports whether the last value read was SQL NULL, and
``get_object`` returns Part 2 objects by value ("this just works" — the
paper's objects-by-value slide).
"""

from __future__ import annotations

import datetime
import decimal
from typing import Any, Iterator, List, Optional, Union

from repro import errors
from repro.engine.database import StatementResult
from repro.sqltypes import typecodes

__all__ = ["ResultSet", "ResultSetMetaData"]


class ResultSetMetaData:
    """Column metadata mirroring ``java.sql.ResultSetMetaData``."""

    def __init__(self, result: StatementResult) -> None:
        self._result = result

    def get_column_count(self) -> int:
        return len(self._result.shape) if self._result.shape else 0

    def _column(self, index: int):
        shape = self._result.shape
        if shape is None or not 1 <= index <= len(shape):
            raise errors.DataError(f"column index {index} out of range")
        return shape.columns[index - 1]

    def get_column_name(self, index: int) -> str:
        return self._column(index).name

    def get_column_type(self, index: int) -> int:
        descriptor = self._column(index).descriptor
        if descriptor is None:
            return typecodes.OTHER
        return descriptor.type_code

    def get_column_type_name(self, index: int) -> str:
        descriptor = self._column(index).descriptor
        if descriptor is None:
            return "UNKNOWN"
        return descriptor.sql_spelling()


class ResultSet:
    """Forward-only cursor over a rowset result."""

    def __init__(self, result: StatementResult, statement: Any = None):
        if result.kind != "rowset":
            raise errors.DataError("statement did not produce a result set")
        self._result = result
        self._statement = statement
        self._position = -1
        self._was_null = False
        self._closed = False
        #: column name -> 1-based index, built by the first lookup
        self._names: Optional[dict] = None

    # ------------------------------------------------------------------
    # cursor movement
    # ------------------------------------------------------------------
    def next(self) -> bool:
        """Advance to the next row; False once the set is exhausted."""
        if self._closed:
            raise errors.InvalidCursorStateError("result set is closed")
        if self._position + 1 >= len(self._result.rows):
            self._position = len(self._result.rows)
            return False
        self._position += 1
        return True

    # -- JDBC 2.0 scrollable-cursor movement ---------------------------
    def previous(self) -> bool:
        """Move back one row; False when before the first row."""
        self._check_open()
        if self._position <= 0:
            self._position = -1
            return False
        self._position -= 1
        return True

    def first(self) -> bool:
        """Position on the first row; False for an empty set."""
        self._check_open()
        if not self._result.rows:
            return False
        self._position = 0
        return True

    def last(self) -> bool:
        """Position on the last row; False for an empty set."""
        self._check_open()
        if not self._result.rows:
            return False
        self._position = len(self._result.rows) - 1
        return True

    def before_first(self) -> None:
        """Reset the cursor to before the first row."""
        self._check_open()
        self._position = -1

    def after_last(self) -> None:
        self._check_open()
        self._position = len(self._result.rows)

    def absolute(self, row: int) -> bool:
        """Move to row ``row`` (1-based; negative counts from the end,
        JDBC style).  False when the target is outside the set."""
        self._check_open()
        count = len(self._result.rows)
        if row == 0:
            self._position = -1
            return False
        index = row - 1 if row > 0 else count + row
        if 0 <= index < count:
            self._position = index
            return True
        self._position = -1 if row < 0 else count
        return False

    def relative(self, offset: int) -> bool:
        """Move ``offset`` rows from the current position."""
        self._check_open()
        count = len(self._result.rows)
        index = self._position + offset
        if 0 <= index < count:
            self._position = index
            return True
        self._position = -1 if index < 0 else count
        return False

    def get_row(self) -> int:
        """1-based current row number; 0 when not on a row."""
        if 0 <= self._position < len(self._result.rows):
            return self._position + 1
        return 0

    def is_before_first(self) -> bool:
        return self._position < 0 and bool(self._result.rows)

    def is_after_last(self) -> bool:
        return self._position >= len(self._result.rows) and \
            bool(self._result.rows)

    def __iter__(self) -> Iterator["ResultSet"]:
        while self.next():
            yield self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Remote row containers hold a server-side cursor while pages
        # remain unfetched; closing the result set must release it.
        release = getattr(self._result.rows, "close", None)
        if release is not None:
            release()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise errors.InvalidCursorStateError("result set is closed")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def find_column(self, name: str) -> int:
        """1-based index of the named column."""
        names = self._names
        if names is None:
            shape = self._result.shape
            names = self._names = {
                column.name: index + 1
                for index, column in enumerate(
                    shape.columns if shape else []
                )
            }
        try:
            return names[name.lower()]
        except KeyError:
            raise errors.UndefinedColumnError(
                f"result set has no column {name!r}"
            ) from None

    def _raw(self, column: Union[int, str]) -> Any:
        if self._closed:
            raise errors.InvalidCursorStateError("result set is closed")
        if not 0 <= self._position < len(self._result.rows):
            raise errors.InvalidCursorStateError(
                "cursor is not positioned on a row"
            )
        index = (
            column if isinstance(column, int) else self.find_column(column)
        )
        row = self._result.rows[self._position]
        if not 1 <= index <= len(row):
            raise errors.DataError(f"column index {index} out of range")
        value = row[index - 1]
        self._was_null = value is None
        return value

    def was_null(self) -> bool:
        """True if the last value read was SQL NULL."""
        return self._was_null

    def get_object(self, column: Union[int, str]) -> Any:
        """Objects-by-value access; returns None for NULL."""
        return self._raw(column)

    def get_string(self, column: Union[int, str]) -> Optional[str]:
        value = self._raw(column)
        if value is None:
            return None
        if isinstance(value, str):
            return value
        return str(value)

    def get_int(self, column: Union[int, str]) -> Optional[int]:
        value = self._raw(column)
        if value is None:
            return None
        try:
            return int(value)
        except (TypeError, ValueError):
            raise errors.InvalidCastError(
                f"cannot read {type(value).__name__} as int"
            ) from None

    def get_float(self, column: Union[int, str]) -> Optional[float]:
        value = self._raw(column)
        if value is None:
            return None
        try:
            return float(value)
        except (TypeError, ValueError):
            raise errors.InvalidCastError(
                f"cannot read {type(value).__name__} as float"
            ) from None

    def get_decimal(
        self, column: Union[int, str]
    ) -> Optional[decimal.Decimal]:
        value = self._raw(column)
        if value is None:
            return None
        if isinstance(value, decimal.Decimal):
            return value
        try:
            return decimal.Decimal(str(value))
        except decimal.InvalidOperation:
            raise errors.InvalidCastError(
                f"cannot read {type(value).__name__} as Decimal"
            ) from None

    def get_boolean(self, column: Union[int, str]) -> Optional[bool]:
        value = self._raw(column)
        if value is None:
            return None
        return bool(value)

    def get_date(self, column: Union[int, str]) -> Optional[datetime.date]:
        value = self._raw(column)
        if value is None or isinstance(value, datetime.date):
            return value
        raise errors.InvalidCastError(
            f"cannot read {type(value).__name__} as date"
        )

    def get_bytes(self, column: Union[int, str]) -> Optional[bytes]:
        value = self._raw(column)
        if value is None or isinstance(value, bytes):
            return value
        raise errors.InvalidCastError(
            f"cannot read {type(value).__name__} as bytes"
        )

    # ------------------------------------------------------------------
    # metadata / interop
    # ------------------------------------------------------------------
    def get_meta_data(self) -> ResultSetMetaData:
        return ResultSetMetaData(self._result)

    def row_count(self) -> int:
        """Number of rows in the (materialised) result."""
        return len(self._result.rows)

    def to_statement_result(self) -> StatementResult:
        """Engine-level view; used for dynamic result-set containers."""
        return self._result

    def fetch_all(self) -> List[List[Any]]:
        """Remaining rows as plain lists (Pythonic convenience)."""
        self._check_open()
        start = max(self._position + 1, 0)
        rows = [list(row) for row in self._result.rows[start:]]
        self._position = len(self._result.rows)
        return rows
