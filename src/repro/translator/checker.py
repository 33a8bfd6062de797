"""The SQLChecker framework (translate-time analysis).

The paper: "Database vendors plug-in SQL syntax checkers and semantic
analyzers using SQLChecker framework."  A checker receives each profile
entry during translation and returns messages; any error message fails
the translation — this is the paper's headline "ahead-of-time syntax and
type checking".

Two checkers ship with the translator:

* :class:`OfflineChecker` — parses every entry's SQL against the
  standard grammar.  No connection needed; catches syntax errors.
* :class:`OnlineChecker` — connects to an *exemplar schema* (any engine
  :class:`~repro.engine.database.Database` or session whose catalog
  matches the deployment target) and runs the engine's own compile step
  (:meth:`Session.compile <repro.engine.database.Session.compile>`) on
  every query, INSERT/UPDATE/DELETE and CALL entry: unknown
  tables/columns/routines/types, privileges, read-only targets, type
  mismatches in predicates and assignments, arity errors — exactly what
  ``prepare`` would raise against that schema, because it is the same
  code.  A CALL's host variables must also carry their parameter's
  mode.  Query entries are *described* from the compiled shape, feeding
  result-shape information back for typed-iterator checking.  Only
  errors that depend on rows or parameter values (constraint
  violations, coercion of a bound value) are left to run time.

Vendors (tests, applications) can subclass :class:`SQLChecker` and
register additional analyzers per connection-context type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro import errors
from repro.engine import ast
from repro.engine.database import CallPlan, Database, Session
from repro.engine.parser import Parser
from repro.profiles.model import EntryInfo, TypeInfo
from repro.sqltypes import ObjectType, TypeDescriptor

__all__ = ["CheckMessage", "SQLChecker", "OfflineChecker", "OnlineChecker"]


@dataclass
class CheckMessage:
    """One diagnostic produced by a checker."""

    severity: str  # "error" or "warning"
    message: str
    line: int = 0
    checker: str = ""

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def format(self) -> str:
        location = f"line {self.line}: " if self.line else ""
        source = f" [{self.checker}]" if self.checker else ""
        return f"{location}{self.severity}: {self.message}{source}"


class SQLChecker:
    """Base class for pluggable translate-time checkers."""

    name = "checker"

    def check(self, entry: EntryInfo) -> List[CheckMessage]:
        """Analyse one entry; return diagnostics (empty when clean)."""
        raise NotImplementedError

    def describe(self, entry: EntryInfo) -> Optional[List[TypeInfo]]:
        """Result-column description for QUERY entries, when derivable."""
        return None

    def _error(self, message: str, entry: EntryInfo) -> CheckMessage:
        return CheckMessage("error", message, entry.source_line, self.name)

    def _warning(self, message: str, entry: EntryInfo) -> CheckMessage:
        return CheckMessage(
            "warning", message, entry.source_line, self.name
        )


class OfflineChecker(SQLChecker):
    """Syntax-only checking against the standard grammar."""

    name = "offline-syntax"

    def check(self, entry: EntryInfo) -> List[CheckMessage]:
        try:
            Parser(entry.sql).parse_statement()
        except errors.SQLException as exc:
            return [self._error(f"syntax error: {exc.message}", entry)]
        return []


def _python_type_name(descriptor: Optional[TypeDescriptor]) -> Optional[str]:
    if descriptor is None:
        return None
    if isinstance(descriptor, ObjectType):
        cls = descriptor.python_class
        if cls is None:
            return None
        return f"{cls.__module__}.{cls.__name__}"
    python_types = descriptor.python_types
    return python_types[0].__name__ if python_types else None


class OnlineChecker(SQLChecker):
    """Semantic analysis against an exemplar schema.

    The exemplar plays the paper's role of the "exemplar schema, e.g.
    views, tables, privileges" identified by a connection-context type.
    """

    name = "online-semantic"

    def __init__(self, exemplar: Any) -> None:
        if isinstance(exemplar, Database):
            self.session: Session = exemplar.create_session()
        elif isinstance(exemplar, Session):
            self.session = exemplar
        else:
            raise errors.CheckerError(
                "OnlineChecker requires a Database or Session exemplar"
            )

    # ------------------------------------------------------------------
    def check(self, entry: EntryInfo) -> List[CheckMessage]:
        try:
            statement = Parser(entry.sql).parse_statement()
        except errors.SQLException as exc:
            return [self._error(f"syntax error: {exc.message}", entry)]
        try:
            self._analyse(statement, entry)
        except errors.SQLException as exc:
            return [self._error(exc.message, entry)]
        return []

    def describe(self, entry: EntryInfo) -> Optional[List[TypeInfo]]:
        try:
            compiled = self.session.compile(
                Parser(entry.sql).parse_statement()
            )
        except errors.SQLException:
            return None
        if compiled is None or compiled.shape is None:
            return None  # a command, DML or CALL: no result columns
        return [
            TypeInfo(
                name=column.name,
                sql_type=(
                    column.descriptor.sql_spelling()
                    if column.descriptor is not None
                    else None
                ),
                python_type_name=_python_type_name(column.descriptor),
            )
            for column in compiled.shape.columns
        ]

    # ------------------------------------------------------------------
    def _analyse(self, statement: ast.Statement, entry: EntryInfo) -> None:
        # The engine's compile step; DDL / GRANT / transaction
        # statements compile to nothing: parse-checked.
        compiled = self.session.compile(statement)
        if compiled is None or not isinstance(compiled.plan, CallPlan):
            return
        # Host-variable modes must match the routine's parameter modes:
        # ``:OUT x`` on an IN parameter (or vice versa) is a translate-
        # time error, like registering the wrong JDBC OUT parameter.
        hosts = entry.param_types
        for param, arg in zip(compiled.plan.routine.params, statement.args):
            if not isinstance(arg, ast.Parameter) or arg.index >= len(hosts):
                continue
            host = hosts[arg.index]
            if host.mode != param.mode:
                raise errors.SQLSyntaxError(
                    f"host variable {host.name!r} is declared "
                    f":{host.mode} but parameter {param.name!r} of "
                    f"{statement.procedure!r} is {param.mode}"
                )
