"""Strongly typed iterators (SQLJ Part 0 cursors).

Two flavours, exactly as the paper presents them:

* **Positional** — ``#sql public iterator ByPos (str, int);`` — columns
  are bound by position via ``FETCH :iter INTO :a, :b``; the declared
  arity must match the query, and each fetched value must be of the
  declared host type.
* **Named** — ``#sql public iterator ByName (int year, str name);`` —
  columns are bound by *result-column name*; the query's column names
  must cover the declared names, in any order, and values are read
  through generated accessor methods (``iter.year()``).

Type safety: at bind time the iterator validates the result's column
count/names and, where the result shape carries SQL type descriptors,
their compatibility with the declared host types; at read time each value
is checked against the declared host type, so an ill-typed column fails
deterministically rather than corrupting downstream code.
"""

from __future__ import annotations

import datetime
import decimal
from typing import Any, Dict, List, Optional, Tuple

from repro import errors
from repro.engine.database import StatementResult
from repro.sqltypes import TypeDescriptor

__all__ = ["SQLJIterator", "PositionalIterator", "NamedIterator"]

#: Host types considered compatible with each value class.
_COMPATIBLE = {
    int: (int,),
    float: (float, int, decimal.Decimal),
    str: (str,),
    bool: (bool,),
    bytes: (bytes,),
    decimal.Decimal: (decimal.Decimal, int),
    datetime.date: (datetime.date,),
    datetime.time: (datetime.time,),
    datetime.datetime: (datetime.datetime,),
}


def _descriptor_python_type(descriptor: Optional[TypeDescriptor]):
    if descriptor is None:
        return None
    python_types = descriptor.python_types
    return python_types[0] if python_types else None


def check_host_type(value: Any, host_type: Optional[type]) -> Any:
    """Validate a fetched value against a declared host type."""
    if value is None or host_type is None or host_type is object:
        return value
    allowed = _COMPATIBLE.get(host_type)
    if allowed is None:
        # UDT / arbitrary class declared in the iterator.
        if isinstance(value, host_type):
            return value
        raise errors.InvalidCastError(
            f"column value of class {type(value).__name__} does not "
            f"match declared iterator type {host_type.__name__}"
        )
    if isinstance(value, bool) and host_type is not bool:
        raise errors.InvalidCastError(
            "BOOLEAN column bound to non-bool iterator type"
        )
    if isinstance(value, allowed):
        return float(value) if host_type is float else value
    raise errors.InvalidCastError(
        f"column value of class {type(value).__name__} does not match "
        f"declared iterator type {host_type.__name__}"
    )


def _static_type_compatible(
    declared: Optional[type], descriptor: Optional[TypeDescriptor]
) -> bool:
    if declared is None or descriptor is None or declared is object:
        return True
    value_type = _descriptor_python_type(descriptor)
    if value_type is None:
        return True
    allowed = _COMPATIBLE.get(declared)
    if allowed is None:  # declared UDT class
        return issubclass(value_type, declared) or value_type is object
    return value_type in allowed


#: Host types whose per-value check a column of a provable value kind
#: (:attr:`~repro.engine.expressions.ColumnInfo.kind`) makes redundant:
#: :func:`check_host_type` would hand each such value back unchanged.
_PROVEN = {"int": (int, decimal.Decimal), "str": (str,), "bool": (bool,)}


def _needs_check(host_type: Optional[type], column: Any) -> bool:
    """Whether values of ``column`` bound to ``host_type`` still need the
    per-value :func:`check_host_type`: False where the column's kind
    proves every value already is of the host type.  UDT and ``object``
    columns, and columns of no provable kind, keep the check."""
    if host_type is None or host_type is object:
        return False
    return host_type not in _PROVEN.get(getattr(column, "kind", None), ())


#: Shapes an iterator class keeps its bindings for (a plan's shape
#: lives as long as the plan; a class bound to more starts afresh).
_BOUND_SHAPES = 32


class SQLJIterator:
    """Common cursor behaviour over a materialised rowset.

    A subclass's binding of its declared columns to a result shape is
    worked out once per (iterator class, shape) — the class keeps them
    by shape, in ``_bound`` — so an iterator over a prepared clause's
    results does no per-result binding work."""

    def __init__(self, result: StatementResult) -> None:
        if result.kind != "rowset":
            raise errors.DataError(
                "iterator bound to a statement that returns no rows"
            )
        self._result = result
        self._rows = result.rows
        self._position = -1
        self._closed = False
        self._end = False

    # -- paper API --------------------------------------------------------
    def next(self) -> bool:
        """Advance; False at end (named-iterator loop protocol)."""
        if self._closed:
            raise errors.InvalidCursorStateError("iterator is closed")
        if self._position + 1 >= len(self._rows):
            self._end = True
            return False
        self._position += 1
        return True

    def endfetch(self) -> bool:
        """True once a FETCH has moved past the last row."""
        return self._end

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def row_count(self) -> int:
        return len(self._rows)

    # -- internals ----------------------------------------------------------
    def _bindings_for(self, shape: Any) -> Any:
        """This class's bindings to ``shape``, worked out on first use."""
        cls = type(self)
        # The class's own table, never an ancestor's: a subclass may
        # declare other columns.  Created once, then only its entries
        # change — assigning a class attribute per bind would
        # invalidate the interpreter's caches of the class.
        bound = cls.__dict__.get("_bound")
        if bound is None:
            bound = cls._bound = {}
        bindings = bound.get(shape)
        if bindings is None:
            bindings = self._bind(shape)
            if shape is not None:
                if len(bound) >= _BOUND_SHAPES:
                    bound.clear()
                bound[shape] = bindings
        return bindings

    def _bind(self, shape: Any) -> Any:
        raise NotImplementedError

    def _check_open(self) -> None:
        if self._closed:
            raise errors.InvalidCursorStateError("iterator is closed")

    def _current_row(self) -> List[Any]:
        self._check_open()
        if self._end or not 0 <= self._position < len(self._rows):
            raise errors.InvalidCursorStateError(
                "iterator is not positioned on a row"
            )
        return self._rows[self._position]


class PositionalIterator(SQLJIterator):
    """Cursor with positionally-bound, type-checked columns.

    Subclasses (generated by the translator) set ``_column_types`` to a
    tuple of host types.
    """

    _column_types: Tuple[Optional[type], ...] = ()

    def __init__(self, result: StatementResult) -> None:
        super().__init__(result)
        #: per column, the host type to check values against, or None
        #: where construction proved the check redundant.
        self._checks = self._bindings_for(result.shape)

    def _bind(self, shape: Any) -> Tuple[Optional[type], ...]:
        declared = type(self)._column_types
        width = len(shape) if shape else 0
        if len(declared) != width:
            raise errors.InvalidCastError(
                f"iterator {type(self).__name__} declares {len(declared)} "
                f"columns but the query produces {width}"
            )
        if shape is None:
            return tuple(declared)
        for index, (host_type, column) in enumerate(
            zip(declared, shape.columns)
        ):
            if not _static_type_compatible(host_type, column.descriptor):
                raise errors.InvalidCastError(
                    f"iterator {type(self).__name__} column "
                    f"{index + 1} declares "
                    f"{getattr(host_type, '__name__', host_type)} but "
                    f"the query returns "
                    f"{column.descriptor.sql_spelling()}"
                )
        return tuple(
            host_type if _needs_check(host_type, column) else None
            for host_type, column in zip(declared, shape.columns)
        )

    def fetch_row(self) -> Optional[Tuple[Any, ...]]:
        """FETCH: advance and return the typed row, or None at end."""
        if not self.next():
            return None
        row = self._current_row()
        return tuple(
            value if host_type is None
            else check_host_type(value, host_type)
            for value, host_type in zip(row, self._checks)
        )


class NamedIterator(SQLJIterator):
    """Cursor with name-bound, type-checked columns.

    Subclasses set ``_columns`` to ``((name, host_type), ...)``; the
    translator also generates one accessor method per column.
    """

    _columns: Tuple[Tuple[str, Optional[type]], ...] = ()

    def __init__(self, result: StatementResult) -> None:
        super().__init__(result)
        #: lower-cased name -> (position, host type to check or None).
        self._bindings = self._bindings_for(result.shape)

    def _bind(self, shape: Any) -> Dict[str, Tuple[int, Optional[type]]]:
        available: Dict[str, int] = {}
        if shape is not None:
            for index, column in enumerate(shape.columns):
                available.setdefault(column.name, index)
        bindings = {}
        for name, host_type in type(self)._columns:
            key = name.lower()
            if key not in available:
                raise errors.UndefinedColumnError(
                    f"iterator {type(self).__name__} requires column "
                    f"{name!r}, absent from the query result"
                )
            index = available[key]
            column = shape.columns[index] if shape is not None else None
            if column is not None and not _static_type_compatible(
                host_type, column.descriptor
            ):
                raise errors.InvalidCastError(
                    f"iterator {type(self).__name__} column {name!r} "
                    f"declares "
                    f"{getattr(host_type, '__name__', host_type)} but the "
                    f"query returns "
                    f"{column.descriptor.sql_spelling()}"
                )
            checked = host_type if column is None \
                or _needs_check(host_type, column) else None
            bindings[key] = (index, checked)
        return bindings

    def _get(self, name: str) -> Any:
        # _current_row(), inlined: every generated accessor lands here.
        if self._closed:
            raise errors.InvalidCursorStateError("iterator is closed")
        position = self._position
        if self._end or position < 0:
            raise errors.InvalidCursorStateError(
                "iterator is not positioned on a row"
            )
        index, host_type = self._bindings[name.lower()]
        value = self._rows[position][index]
        if host_type is None:
            return value
        return check_host_type(value, host_type)
