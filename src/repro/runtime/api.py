"""Entry points called by translator-generated code.

A translated module starts with::

    from repro.runtime import sqlj
    __profile_0 = sqlj.load_profile(__file__, "Foo_SJProfile0")

and each ``#sql`` clause becomes a call to one of the functions below.
"""

from __future__ import annotations

import datetime
import decimal
import importlib
import os
from typing import Any, List, Optional, Sequence, Tuple, Type

from repro import errors
from repro.engine.database import StatementResult
from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.profiles.model import Profile
from repro.profiles.serialization import SER_SUFFIX, load_profile as \
    _load_profile_file
from repro.runtime.context import ConnectionContext
from repro.runtime.iterators import (
    NamedIterator,
    PositionalIterator,
    SQLJIterator,
)

__all__ = [
    "load_profile",
    "execute",
    "execute_batch",
    "query",
    "fetch",
    "scalar",
    "select_into",
    "call_proc",
    "resolve_type_name",
    "ConnectionContext",
    "PositionalIterator",
    "NamedIterator",
]

_TYPE_NAMES = {
    "int": int,
    "str": str,
    "string": str,
    "float": float,
    "bool": bool,
    "boolean": bool,
    "bytes": bytes,
    "decimal": decimal.Decimal,
    "decimal.decimal": decimal.Decimal,
    "date": datetime.date,
    "time": datetime.time,
    "datetime": datetime.datetime,
    "timestamp": datetime.datetime,
    "object": object,
}


def resolve_type_name(name: Any) -> Optional[type]:
    """Resolve an iterator column type declaration to a Python type.

    Accepts a type object, one of the simple type names above
    (case-insensitive), or a dotted import path to a class (for Part 2
    UDT classes used as iterator column types).
    """
    if name is None or isinstance(name, type):
        return name
    text = str(name).strip()
    simple = _TYPE_NAMES.get(text.lower())
    if simple is not None:
        return simple
    if "." in text:
        module_name, _, attr = text.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            resolved = getattr(module, attr)
        except (ImportError, AttributeError) as exc:
            raise errors.TranslationError(
                f"cannot resolve iterator column type {text!r}: {exc}"
            ) from exc
        if not isinstance(resolved, type):
            raise errors.TranslationError(
                f"iterator column type {text!r} is not a class"
            )
        return resolved
    raise errors.TranslationError(
        f"unknown iterator column type {text!r}"
    )


def load_profile(module_file: str, profile_name: str) -> Profile:
    """Load ``<profile_name>.ser`` from the generated module's directory."""
    directory = os.path.dirname(os.path.abspath(module_file))
    return _load_profile_file(
        os.path.join(directory, profile_name + SER_SUFFIX)
    )


def _context_for(context: Optional[ConnectionContext]) -> ConnectionContext:
    if context is None:
        return ConnectionContext.get_default_context()
    if not isinstance(context, ConnectionContext):
        raise errors.ConnectionError_(
            f"[{context!r}] is not a connection context"
        )
    return context


_ROWS_FETCHED = _metrics.registry.counter("rows.fetched")


def _run_entry(
    span_name: str,
    profile: Profile,
    index: int,
    context: Optional[ConnectionContext],
    params: Sequence[Any],
) -> StatementResult:
    """Execute a profile entry under a clause-kind span (tracing on)."""
    with _tracing.current.span(span_name, entry=index):
        return _context_for(context).execute_entry(profile, index, params)


def execute(
    profile: Profile,
    index: int,
    context: Optional[ConnectionContext],
    params: Sequence[Any] = (),
) -> StatementResult:
    """Execute a non-query ``#sql`` clause."""
    if not _tracing.current.enabled:
        if not isinstance(context, ConnectionContext):
            context = _context_for(context)
        return context.execute_entry(profile, index, params)
    return _run_entry("sqlj.execute", profile, index, context, params)


def execute_batch(
    profile: Profile,
    index: int,
    context: Optional[ConnectionContext],
    param_rows: Sequence[Sequence[Any]],
) -> List[int]:
    """Execute an UPDATE-role clause once per parameter row, atomically.

    The translator emits this for ``#sql`` clauses inside loops it can
    prove are pure binds: the generated code collects each iteration's
    parameter tuple into a list and ships the whole list here after the
    loop.  The rows go through ``session.execute_batch`` — one parse,
    one transaction (all rows commit or roll back together), one logical
    WAL record and fsync barrier, and over ``repro://`` one round trip.
    Returns the per-row update counts.
    """
    resolved = _context_for(context)
    if not _tracing.current.enabled:
        return resolved.execute_batch_entry(profile, index, param_rows)
    with _tracing.current.span(
        "sqlj.execute_batch", entry=index, rows=len(param_rows)
    ):
        return resolved.execute_batch_entry(profile, index, param_rows)


def query(
    profile: Profile,
    index: int,
    context: Optional[ConnectionContext],
    params: Sequence[Any],
    iterator_class: Type[SQLJIterator],
) -> SQLJIterator:
    """Execute a query clause and bind its result to a typed iterator."""
    if not _tracing.current.enabled:
        if not isinstance(context, ConnectionContext):
            context = _context_for(context)
        result = context.execute_entry(profile, index, params)
    else:
        result = _run_entry("sqlj.query", profile, index, context, params)
    if result.kind != "rowset":
        raise errors.DataError(
            f"profile entry {index} did not produce a result set"
        )
    return iterator_class(result)


def scalar(
    profile: Profile,
    index: int,
    context: Optional[ConnectionContext],
    params: Sequence[Any] = (),
) -> Any:
    """Execute a ``#sql x = { VALUES(...) }`` clause.

    The entry is a one-row, one-column query (the translator rewrites
    ``VALUES(expr)`` to ``SELECT expr``); returns that single value.
    """
    if not _tracing.current.enabled:
        result = _context_for(context).execute_entry(profile, index, params)
    else:
        result = _run_entry("sqlj.scalar", profile, index, context, params)
    if not result.is_rowset:
        raise errors.DataError(
            f"profile entry {index} did not produce a value"
        )
    if len(result.rows) != 1 or result.shape is None or \
            len(result.shape) != 1:
        raise errors.CardinalityError(
            "VALUES clause must produce exactly one row and one column"
        )
    return result.rows[0][0]


def select_into(
    profile: Profile,
    index: int,
    context: Optional[ConnectionContext],
    params: Sequence[Any] = (),
) -> Tuple[Any, ...]:
    """Execute a single-row ``SELECT ... INTO`` clause.

    SQLJ semantics: no row raises SQLSTATE 02000, more than one row
    raises a cardinality violation; otherwise the row is returned for
    assignment into the INTO host variables.
    """
    if not _tracing.current.enabled:
        result = _context_for(context).execute_entry(profile, index, params)
    else:
        result = _run_entry(
            "sqlj.select_into", profile, index, context, params
        )
    if not result.is_rowset:
        raise errors.DataError(
            f"profile entry {index} is not a query"
        )
    if not result.rows:
        raise errors.SQLException(
            "SELECT INTO returned no rows", sqlstate="02000"
        )
    if len(result.rows) > 1:
        raise errors.CardinalityError(
            "SELECT INTO returned more than one row"
        )
    return tuple(result.rows[0])


def call_proc(
    profile: Profile,
    index: int,
    context: Optional[ConnectionContext],
    params: Sequence[Any],
    out_positions: Sequence[int],
) -> Tuple[Any, ...]:
    """Execute a CALL clause with OUT/INOUT host variables.

    ``params`` holds one slot per ``?`` marker (None at OUT-only
    positions); returns the procedure's output values in the order of
    ``out_positions`` so generated code can tuple-assign them back into
    the host variables.
    """
    if not _tracing.current.enabled:
        result = _context_for(context).execute_entry(profile, index, params)
    else:
        result = _run_entry("sqlj.call", profile, index, context, params)
    if result.kind != "call":
        raise errors.DataError(
            f"profile entry {index} is not a CALL"
        )
    outs = []
    for position in out_positions:
        if position >= len(result.out_values):
            raise errors.DataError(
                f"procedure returned no OUT value at position "
                f"{position + 1}"
            )
        outs.append(result.out_values[position])
    return tuple(outs)


def fetch(iterator: SQLJIterator) -> Optional[Tuple[Any, ...]]:
    """FETCH :iter INTO ... — returns the typed row or None at end.

    Generated code assigns the tuple to the INTO host variables only when
    a row was produced, leaving them unchanged at end-of-fetch, exactly
    like SQLJ.
    """
    if not isinstance(iterator, PositionalIterator):
        raise errors.InvalidCursorStateError(
            "FETCH requires a positional iterator"
        )
    tracer = _tracing.current
    if tracer.enabled:
        with tracer.span("sqlj.fetch"):
            row = iterator.fetch_row()
    else:
        row = iterator.fetch_row()
    if row is not None:
        _ROWS_FETCHED.increment()
    return row
