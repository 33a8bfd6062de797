"""Customizations, ConnectedProfile and RTStatement.

This is the paper's "Custom SQL execution" machinery.  A profile entry
can execute through:

* the **default customization** — dynamic JDBC-style execution: the SQL
  text is prepared through the target connection, cached per connection
  ("Default SQLJ binaries run on any JDBC driver" — with standard SQL);
* a **dialect customization** installed at deployment time — the entry's
  SQL has been re-rendered for the vendor dialect and pre-parsed, so
  execution skips the parser entirely (the paper's "offline
  pre-compilation (for performance)" and the vendor plug-in path).

``ConnectedProfile`` binds a profile to one connection, picks the best
accepting customization per entry, and hands out ``RTStatement`` objects.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro import errors
from repro.engine import ast as engine_ast
from repro.engine.database import (
    PreparedStatementPlan,
    Session,
    StatementResult,
)
from repro.engine.dialects import DIALECTS
from repro.engine.parser import Parser
from repro.engine.render import render_statement
from repro.observability import metrics as _metrics
from repro.profiles.model import EntryInfo, Profile

__all__ = [
    "Customization",
    "DefaultCustomization",
    "DialectCustomization",
    "RTStatement",
    "ConnectedProfile",
]

_CACHE_HITS = _metrics.registry.counter("profile.statement_cache.hits")
_CACHE_MISSES = _metrics.registry.counter("profile.statement_cache.misses")


class RTStatement:
    """Executable form of one profile entry bound to one connection."""

    def __init__(self, entry: EntryInfo, session: Session) -> None:
        self.entry = entry
        self.session = session

    def execute(self, params: Sequence[Any] = ()) -> StatementResult:
        raise NotImplementedError

    def execute_query(self, params: Sequence[Any] = ()) -> StatementResult:
        result = self.execute(params)
        if not result.is_rowset:
            raise errors.DataError(
                f"profile entry {self.entry.index} is not a query"
            )
        return result

    def execute_update(self, params: Sequence[Any] = ()) -> int:
        result = self.execute(params)
        if result.is_rowset:
            raise errors.DataError(
                f"profile entry {self.entry.index} returns rows"
            )
        return result.update_count


class _PreparedRTStatement(RTStatement):
    """An entry executes through a prepared plan on its connection, so
    it runs the engine's one statement pipeline; the customizations
    differ only in who parsed the statement, and when."""

    def __init__(
        self,
        entry: EntryInfo,
        session: Session,
        prepared: PreparedStatementPlan,
    ) -> None:
        super().__init__(entry, session)
        self._prepared = prepared
        # The entry IS its prepared plan: bound once, a clause runs it
        # with no wrapper frame.
        self.execute = prepared.execute  # type: ignore[method-assign]


class Customization:
    """Base class for profile customizations.

    ``key`` identifies the customization family so re-customizing a
    profile replaces rather than accumulates; ``accepts_session`` decides
    applicability per connection at run time.
    """

    key = "base"

    def accepts_session(self, session: Session) -> bool:
        raise NotImplementedError

    def make_statement(
        self, entry: EntryInfo, session: Session
    ) -> RTStatement:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class DefaultCustomization(Customization):
    """Dynamic JDBC-style execution; accepts every connection."""

    key = "default"

    def accepts_session(self, session: Session) -> bool:
        return True

    def make_statement(
        self, entry: EntryInfo, session: Session
    ) -> RTStatement:
        # Default path: prepare the SQL text on the connection, once.
        return _PreparedRTStatement(
            entry, session, session.prepare(entry.sql)
        )

    def describe(self) -> str:
        return "default (dynamic SQL via connection)"


class DialectCustomization(Customization):
    """Vendor customization for one engine dialect.

    Created by the customizer utility: every entry's canonical SQL is
    re-parsed, re-rendered in the vendor dialect (recorded in
    ``sql_texts`` for inspection) and stored pre-parsed in ``statements``
    so run-time execution skips parsing.
    """

    def __init__(self, dialect_name: str, profile: Profile) -> None:
        if dialect_name not in DIALECTS:
            raise errors.CustomizationError(
                f"unknown dialect {dialect_name!r}"
            )
        self.dialect_name = dialect_name
        self.key = f"dialect:{dialect_name}"
        dialect = DIALECTS[dialect_name]
        self.sql_texts: List[str] = []
        self.statements: List[engine_ast.Statement] = []
        for entry in profile.data:
            statement = Parser(entry.sql).parse_statement()
            text = render_statement(statement, dialect)
            # Re-parse the rendered text under the vendor dialect: proves
            # the customized SQL is genuinely executable there and yields
            # the statement object we ship.
            vendor_statement = Parser(text, dialect).parse_statement()
            self.sql_texts.append(text)
            self.statements.append(vendor_statement)

    def accepts_session(self, session: Session) -> bool:
        # Precompiled plans execute against local storage structures;
        # a remote (repro://) session has none, so it falls back to the
        # dynamic customization, which only needs session.prepare() —
        # the statement then planned and cached server-side.
        if getattr(session, "is_remote", False):
            return False
        return session.dialect.name == self.dialect_name

    def make_statement(
        self, entry: EntryInfo, session: Session
    ) -> RTStatement:
        # Customized path: the vendor text was parsed at deployment
        # time; only planning is left for the connection.
        return _PreparedRTStatement(
            entry,
            session,
            PreparedStatementPlan(
                session,
                self.sql_texts[entry.index],
                self.statements[entry.index],
            ),
        )

    def describe(self) -> str:
        return f"dialect customization for {self.dialect_name!r} " \
               f"({len(self.statements)} precompiled statements)"


class ConnectedProfile:
    """A profile bound to one connection.

    Picks, per entry, the first installed customization accepting the
    session (falling back to :class:`DefaultCustomization`), and caches
    the resulting RTStatements so repeated executions of the same clause
    reuse prepared/compiled state — the paper's profile runtime.
    """

    def __init__(self, profile: Profile, session: Session) -> None:
        self.profile = profile
        self.session = session
        self._statements: Dict[int, RTStatement] = {}
        self._chosen: Optional[Customization] = None

    def customization(self) -> Customization:
        if self._chosen is None:
            for customization in self.profile.customizations:
                if customization.accepts_session(self.session):
                    self._chosen = customization
                    break
            else:
                self._chosen = DefaultCustomization()
        return self._chosen

    def get_statement(self, index: int) -> RTStatement:
        statement = self._statements.get(index)
        if statement is None:
            _CACHE_MISSES.increment()
            entry = self.profile.get_entry(index)
            statement = self.customization().make_statement(
                entry, self.session
            )
            self._statements[index] = statement
        else:
            _CACHE_HITS.increment()
        return statement

    def execute(
        self, index: int, params: Sequence[Any] = ()
    ) -> StatementResult:
        return self.get_statement(index).execute(params)
