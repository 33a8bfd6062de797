"""DDL and access-control statement execution.

CREATE TABLE / VIEW, DROP, GRANT and REVOKE are handled here.  The SQLJ
statements CREATE PROCEDURE/FUNCTION (Part 1) and CREATE TYPE (Part 2)
are dispatched by :mod:`repro.engine.database` to
:mod:`repro.procedures.registration` and
:mod:`repro.datatypes.registration`, which own their resolution rules.

Durability: DDL in this engine is non-transactional — it takes effect
immediately and creates no undo entries — so on a durable database the
session layer redo-logs each DDL statement as its own immediately
committed WAL transaction (see ``_DDL_STATEMENTS`` in
:mod:`repro.engine.database`).  Nothing in this module touches the WAL
directly; it only has to keep being replayable, i.e. driven entirely by
the statement AST and catalog state.
"""

from __future__ import annotations

from typing import Any

from repro import errors
from repro.engine import ast
from repro.engine.catalog import Column, Table, View
from repro.engine.indexes import Index
from repro.engine.planner import plan_query
from repro.engine.virtual import VirtualTable
from repro.observability import metrics as _metrics
from repro.sqltypes import ObjectType

__all__ = [
    "execute_create_table",
    "execute_alter_table",
    "execute_create_view",
    "execute_create_index",
    "execute_drop",
    "execute_grant",
    "execute_revoke",
]

#: Catalog-changing operations executed (all kinds); complements the
#: per-kind ``statements.<kind>`` counters with one schema-churn gauge.
_DDL_OPERATIONS = _metrics.registry.counter("ddl.operations")


def execute_create_table(stmt: ast.CreateTable, session: Any) -> None:
    _DDL_OPERATIONS.increment()
    columns = []
    primary_keys = [d.name for d in stmt.columns if d.primary_key]
    if len(primary_keys) > 1:
        raise errors.SQLSyntaxError(
            f"table {stmt.name!r} declares multiple PRIMARY KEY columns"
        )
    for definition in stmt.columns:
        descriptor = session.catalog.resolve_type(definition.type_spelling)
        columns.append(
            Column(
                definition.name,
                descriptor,
                not_null=definition.not_null,
                default=definition.default,
                unique=definition.unique,
                primary_key=definition.primary_key,
            )
        )
    session.catalog.create_table(Table(stmt.name, columns, session.user))


def execute_alter_table(stmt: ast.AlterTable, session: Any) -> None:
    """ALTER TABLE ADD/DROP COLUMN.

    Adding a column back-fills existing rows with the column's DEFAULT
    (or NULL); a NOT NULL column without a default cannot be added to a
    non-empty table.  A freshly added UNIQUE column with a default only
    works on tables with at most one row, for the same reason it would
    in any SQL engine.
    """
    _DDL_OPERATIONS.increment()
    table = session.catalog.get_table(stmt.table)
    if isinstance(table, VirtualTable):
        raise table.readonly_error("alter")
    _require_ownership(session, table.owner, "TABLE", stmt.table)

    if stmt.action == "ADD":
        definition = stmt.column_def
        assert definition is not None
        descriptor = session.catalog.resolve_type(definition.type_spelling)
        column = Column(
            definition.name,
            descriptor,
            not_null=definition.not_null,
            default=definition.default,
            unique=definition.unique,
            primary_key=definition.primary_key,
        )
        fill = None
        if definition.default is not None:
            from repro.engine.expressions import (
                Env,
                ExpressionCompiler,
                RowShape,
            )

            compiler = ExpressionCompiler(RowShape([]), session)
            fill = descriptor.coerce(
                compiler.compile(definition.default).fn(
                    Env([], (), None, session)
                )
            )
        # DDL runs under the exclusive lock, so the heap is quiescent;
        # every version (even uncommitted or dead) receives the fill
        # value, which keeps old snapshots type-correct.
        if table.versions:
            if column.not_null and fill is None:
                raise errors.NotNullViolationError(
                    f"cannot add NOT NULL column {column.name!r} "
                    "without a default to a non-empty table"
                )
            if column.unique and fill is not None and len(table.versions) > 1:
                raise errors.UniqueViolationError(
                    f"adding UNIQUE column {column.name!r} with a "
                    "default would duplicate the default value"
                )
        table.add_column(column, fill)
        # Row images changed shape in place: the LSM store must
        # invalidate the table's flushed runs (no-op in memory).
        session.database.notify_rows_rewritten(table)
        _refresh_indexes(session, table)
        return

    assert stmt.action == "DROP"
    assert stmt.column_name is not None
    # Indexes covering the dropped column are dropped with it; the rest
    # are rebuilt because column positions shift.
    for index in list(table.indexes):
        if index.covers_column(stmt.column_name):
            session.catalog.drop_index(index.name)
    table.remove_column(stmt.column_name)
    session.database.notify_rows_rewritten(table)
    _refresh_indexes(session, table)


def _refresh_indexes(session: Any, table: Table) -> None:
    for index in table.indexes:
        index.rebuild()
    session.catalog.bump_version()


def execute_create_view(stmt: ast.CreateView, session: Any) -> None:
    _DDL_OPERATIONS.increment()
    # Plan once now to validate the query and check privileges; the plan
    # itself is rebuilt at each use so later schema changes are observed.
    plan_query(stmt.query, session)
    session.catalog.create_view(
        View(stmt.name, stmt.query, session.user, stmt.column_names)
    )


def execute_create_index(stmt: ast.CreateIndex, session: Any) -> None:
    """CREATE INDEX: validate, build from existing rows, register."""
    _DDL_OPERATIONS.increment()
    catalog = session.catalog
    table = catalog.get_table(stmt.table)
    if isinstance(table, VirtualTable):
        raise table.readonly_error("index")
    _require_ownership(session, table.owner, "TABLE", stmt.table)
    seen = set()
    for column_name in stmt.columns:
        position = table.column_position(column_name)  # raises if absent
        if column_name in seen:
            raise errors.SQLSyntaxError(
                f"column {column_name!r} listed twice in index "
                f"{stmt.name!r}"
            )
        seen.add(column_name)
        if isinstance(table.columns[position].descriptor, ObjectType):
            raise errors.FeatureNotSupportedError(
                f"cannot index object column {column_name!r}: "
                "user-defined types have no total hashable order"
            )
    catalog.create_index(Index(stmt.name, table, stmt.columns))


def execute_drop(stmt: ast.Drop, session: Any) -> None:
    _DDL_OPERATIONS.increment()
    catalog = session.catalog
    privileges = session.database.privileges
    kind = stmt.kind
    if kind == "TABLE":
        table = catalog.get_table(stmt.name)
        if isinstance(table, VirtualTable):
            raise table.readonly_error("drop")
        _require_ownership(session, table.owner, "TABLE", stmt.name)
        catalog.drop_table(stmt.name)
        # The name's flushed runs die with the table, even if a new
        # table takes the name before the next flush.
        session.database.notify_rows_rewritten(table)
        privileges.drop_object("TABLE", stmt.name)
    elif kind == "VIEW":
        if stmt.name not in catalog.views:
            raise errors.UndefinedObjectError(
                f"view {stmt.name!r} does not exist"
            )
        view = catalog.views[stmt.name]
        _require_ownership(session, view.owner, "TABLE", stmt.name)
        catalog.drop_view(stmt.name)
        privileges.drop_object("TABLE", stmt.name)
    elif kind in ("PROCEDURE", "FUNCTION"):
        routine = catalog.get_routine(stmt.name)
        if routine.kind != kind:
            raise errors.UndefinedRoutineError(
                f"{stmt.name!r} is a {routine.kind.lower()}, not a "
                f"{kind.lower()}"
            )
        if routine.language == "SYSTEM":
            # Nothing re-registers a system procedure once dropped.
            raise errors.PrivilegeError(
                f"system {kind.lower()} {stmt.name!r} cannot be dropped"
            )
        _require_ownership(session, routine.owner, "ROUTINE", stmt.name)
        catalog.drop_routine(stmt.name)
        privileges.drop_object("ROUTINE", stmt.name)
    elif kind == "TYPE":
        udt = catalog.get_type(stmt.name)
        _require_ownership(session, udt.owner, "DATATYPE", stmt.name)
        catalog.drop_type(stmt.name)
        privileges.drop_object("DATATYPE", stmt.name)
    elif kind == "INDEX":
        index = catalog.get_index(stmt.name)
        _require_ownership(
            session, index.table.owner, "TABLE", stmt.name
        )
        catalog.drop_index(stmt.name)
    else:  # pragma: no cover - parser restricts kinds
        raise errors.FeatureNotSupportedError(f"cannot DROP {kind}")


def _require_ownership(
    session: Any, owner: str, kind: str, name: str
) -> None:
    if session.user not in (owner, session.database.admin_user):
        raise errors.PrivilegeError(
            f"user {session.user!r} may not drop {kind.lower()} {name!r}"
        )


def _object_owner(session: Any, kind: str, name: str) -> str:
    catalog = session.catalog
    if kind == "TABLE":
        relation = catalog.get_relation(name)
        return relation.owner
    if kind == "ROUTINE":
        return catalog.get_routine(name).owner
    if kind == "DATATYPE":
        return catalog.get_type(name).owner
    if kind == "PAR":
        return catalog.get_par(name).owner
    raise errors.CatalogError(f"unknown object kind {kind!r}")


def execute_grant(stmt: ast.Grant, session: Any) -> None:
    _DDL_OPERATIONS.increment()
    owner = _object_owner(session, stmt.object_kind, stmt.object_name)
    session.database.privileges.grant(
        stmt.privilege,
        stmt.object_kind,
        stmt.object_name,
        stmt.grantees,
        grantor=session.user,
        owner=owner,
    )
    # Privileges are checked at plan time, so cached plans must not
    # outlive a privilege change.
    session.catalog.bump_version()


def execute_revoke(stmt: ast.Revoke, session: Any) -> None:
    _DDL_OPERATIONS.increment()
    owner = _object_owner(session, stmt.object_kind, stmt.object_name)
    session.database.privileges.revoke(
        stmt.privilege,
        stmt.object_kind,
        stmt.object_name,
        stmt.grantees,
        revoker=session.user,
        owner=owner,
    )
    session.catalog.bump_version()
