"""Database facade and sessions.

:class:`Database` owns the catalog, the privilege manager and the dialect;
:class:`Session` is one user's connection-like handle: it parses,
dispatches and executes statements, holds the open transaction, and is the
object the dbapi layer and the SQLJ runtime drive.

At construction a database bootstraps the SQLJ system procedures
(``sqlj.install_par`` and friends, Part 1) by delegating to
:mod:`repro.procedures`; the import happens lazily to keep the engine
package free of upward dependencies.
"""

from __future__ import annotations

import contextlib
import copy
import datetime
import decimal
import functools
import threading
from time import perf_counter as _perf_counter
import weakref
from typing import Any, Callable, Iterator, List, Optional, Sequence, \
    Union

from repro import errors, faultpoints
from repro.observability import metrics as _metrics
from repro.observability import slowlog as _slowlog
from repro.observability import stats as _stats
from repro.observability import tracing as _tracing
from repro.engine import ast, ddl, dml
from repro.engine.catalog import Catalog, InstalledPar, Routine, \
    Table, UserDefinedType
from repro.engine.dialects import DIALECTS, STANDARD, Dialect
from repro.engine.expressions import Compiled, Env, ExpressionCompiler, \
    RowShape
from repro.engine.locks import ReadWriteLock
from repro.engine.mvcc import Transaction, TransactionManager, \
    WriteConflict, freeze
from repro.engine.parser import Parser
from repro.engine.plancache import CachedPlan, PlanCache
from repro.engine.planner import plan_query
from repro.engine.privileges import PrivilegeManager

__all__ = [
    "Database", "Session", "StatementResult", "PreparedStatementPlan",
    "CallPlan",
]

# Counter handles cached at import time: the per-statement path must not
# pay a name format plus registry lookup per execution (metrics.reset()
# zeroes counters in place, so these handles stay registered).
_ROWS_RETURNED = _metrics.registry.counter("rows.returned")
_STATEMENT_SECONDS = _metrics.registry.histogram("statement.seconds")
#: Batch fast-path traffic: batches executed and parameter rows bound
#: through them; ``batch.rows / batch.executed`` is the mean batch size.
_BATCH_EXECUTED = _metrics.registry.counter("batch.executed")
_BATCH_ROWS = _metrics.registry.counter("batch.rows")
#: ``statement`` span attributes of a prepared execution (shared: the
#: envelope only reads them, and only while tracing is on).
_PREPARED_SPAN = {"prepared": True}
#: Committed-dead version count that triggers a background vacuum pass
#: (see :meth:`Database.vacuum`).
VACUUM_THRESHOLD = 1000

#: Statement kinds that may run concurrently under the database's
#: shared lock.  With MVCC row versioning this is everything except
#: DDL, which rewrites the catalog that planning reads: reads see a
#: consistent snapshot without blocking, and DML serializes per row
#: through version claims, not through the engine lock.  Transaction
#: control is shared too — commit stamping has its own mutex and
#: rollback undo only touches rows this transaction already claimed or
#: created — and so is CALL: a routine body's statements re-enter the
#: caller's shared hold, and a body's DDL is refused (38003).  A
#: ``sqlj.*`` CALL is exclusive, like DDL (``Session._run_statement``).
_SHARED_STATEMENTS = (
    ast.Select,
    ast.SetOperation,
    ast.Explain,
    ast.Analyze,
    ast.Insert,
    ast.Update,
    ast.Delete,
    ast.Commit,
    ast.Rollback,
    ast.Savepoint,
    ast.RollbackTo,
    ast.ReleaseSavepoint,
    ast.Call,
)

#: Statements compiled once into a :class:`CachedPlan` and run through
#: it (``Session._run_statement``); every other statement is a command,
#: dispatched per execution.
_PLANNABLE = (
    ast.Select, ast.SetOperation, ast.Insert, ast.Update, ast.Delete,
    ast.Call,
)
_DML = (ast.Insert, ast.Update, ast.Delete)

#: Statements that are redo-logged as their own immediately-committed
#: transaction when durability is on.  DDL in this engine is
#: non-transactional (it creates no undo entries and takes effect at
#: once), so its WAL record must not wait for a session COMMIT that may
#: never come.
_DDL_STATEMENTS = (
    ast.CreateTable,
    ast.CreateView,
    ast.AlterTable,
    ast.CreateIndex,
    ast.CreateRoutine,
    ast.CreateType,
    ast.Drop,
    ast.Grant,
    ast.Revoke,
    # ANALYZE rides the same path: its statistics take effect at once
    # and must survive recovery, so replay re-runs the collection
    # against the recovered heaps.
    ast.Analyze,
)

#: Statements that join the session's open durable transaction: their
#: redo records become durable when the transaction's COMMIT marker is
#: fsynced.  Savepoint statements are included so a replayed
#: ROLLBACK TO reproduces partial rollbacks.
_TXN_STATEMENTS = (
    ast.Insert,
    ast.Update,
    ast.Delete,
    ast.Call,
    ast.Savepoint,
    ast.RollbackTo,
    ast.ReleaseSavepoint,
)
#: Every statement with a redo record (``Session._log_durable``).
_LOGGED_STATEMENTS = _DDL_STATEMENTS + _TXN_STATEMENTS


#: Values a result hands out as they are; anything else in an
#: object-typed column is copied out of storage.
_SCALARS = (
    str, int, float, bool, bytes, decimal.Decimal,
    datetime.date, datetime.time, datetime.datetime, type(None),
)


def _copy_objects(rows: List[List[Any]], objects: Sequence[int]) -> None:
    """Replace each stored object at ``objects`` in ``rows`` by a deep
    copy, so a caller mutating a fetched value cannot change the table."""
    for row in rows:
        for index in objects:
            value = row[index]
            if not isinstance(value, _SCALARS):
                row[index] = copy.deepcopy(value)


class _Kind:
    """What a statement's class decides, worked out once per class: its
    ``statements.<kind>`` counter, and whether it runs under the shared
    lock, compiles into a plan and writes a redo record.  A failing
    ``isinstance`` against a tuple costs a test per member, which a
    cache-hit read would pay on every execution."""

    __slots__ = ("counter", "shared", "plannable", "logged")

    def __init__(self, statement_type: type) -> None:
        self.counter = _metrics.registry.counter(
            "statements." + statement_type.__name__.lower()
        )
        self.shared = issubclass(statement_type, _SHARED_STATEMENTS)
        self.plannable = issubclass(statement_type, _PLANNABLE)
        self.logged = issubclass(statement_type, _LOGGED_STATEMENTS)


_KINDS: dict = {}


class StatementResult:
    """Uniform result of executing one statement.

    Attributes
    ----------
    kind:
        ``"rowset"``, ``"update"``, ``"ddl"``, ``"call"`` or
        ``"analyze"`` (``update_count`` = tables analyzed).
    rows / shape:
        Materialised rows and their :class:`RowShape` (rowset results).
    update_count:
        Affected-row count for DML (0 for DDL).
    out_values:
        For CALL: list aligned with the procedure's OUT/INOUT parameters.
    result_sets:
        For CALL: dynamic result sets produced by the procedure, each a
        ``(rows, shape)`` pair (SQLJ Part 1 "dynamic result sets").
    """

    def __init__(
        self,
        kind: str,
        rows: Optional[List[List[Any]]] = None,
        shape: Optional[RowShape] = None,
        update_count: int = 0,
        out_values: Optional[List[Any]] = None,
        result_sets: Optional[List[Any]] = None,
    ) -> None:
        self.kind = kind
        self.rows = rows if rows is not None else []
        self.shape = shape
        self.update_count = update_count
        self.out_values = out_values or []
        self.result_sets = result_sets or []

    @property
    def is_rowset(self) -> bool:
        return self.kind == "rowset"

    def column_names(self) -> List[str]:
        if self.shape is None:
            return []
        return [column.name for column in self.shape.columns]


class PreparedStatementPlan:
    """A statement prepared once and executable many times.

    A query, an INSERT/UPDATE/DELETE or a CALL is compiled here —
    preparing fails as executing would — and keeps its plan as a
    :class:`CachedPlan`, revalidated against the catalog on every
    execution like a plan-cache entry.  A command keeps the parsed AST
    and is dispatched per execution.  ``statement`` is ``sql`` parsed
    ahead of time, when the caller has it (a profile customization
    parses at deployment time).
    """

    def __init__(
        self,
        session: "Session",
        sql: str,
        statement: Optional[ast.Statement] = None,
    ) -> None:
        if statement is None:
            statement = Parser(sql, session.dialect).parse_statement()
        self.session = session
        self.sql = sql
        self.statement = statement
        self._cached = session.compile(statement)

    def _store(self, entry: CachedPlan) -> None:
        self._cached = entry

    def execute(self, params: Sequence[Any] = ()) -> StatementResult:
        # The reused plan is recorded as a plan-cache hit: preparing IS
        # this path's plan cache.
        return self.session._run_statement(
            self.statement, self.sql, [params], self._cached, self._store,
            _PREPARED_SPAN, self._cached is not None,
        )


class CallPlan:
    """A compiled CALL: the procedure and its IN arguments.

    The plan binds the catalog :class:`Routine`, not its body: the body
    is read per call, so ``sqlj.replace_par`` (which swaps it without a
    catalog change) reaches cached and prepared plans.  ``arguments``
    evaluates the IN and INOUT values in parameter order; OUT and INOUT
    positions are ``?`` markers, and the values coming back are coerced
    per call.  Like a query plan it keeps nothing of the compiling
    session: the arguments read the executing one from their
    :class:`Env`.
    """

    __slots__ = ("routine", "arguments")

    def __init__(
        self, routine: Routine, arguments: Callable[[Env], List[Any]]
    ) -> None:
        self.routine = routine
        self.arguments = arguments

    def run(
        self, session: "Session", param_rows: Sequence[Sequence[Any]]
    ) -> "StatementResult":
        [params] = param_rows
        values = self.arguments(Env([], params, None, session))
        return session.database._call_routine(session, self.routine, values)


def plan_call(statement: ast.Call, session: "Session") -> CallPlan:
    """Compile a CALL against ``session``'s catalog and privileges: the
    procedure lookup, its arity and EXECUTE privilege, the IN arguments,
    and a ``?`` marker at every OUT/INOUT position.  Raises every error
    that does not depend on parameter values."""
    name = statement.procedure
    routine = session.catalog.get_routine(name)
    if routine.is_function:
        raise errors.SQLSyntaxError(
            f"{name!r} is a function; invoke it in an expression"
        )
    if len(statement.args) != len(routine.params):
        raise errors.SQLSyntaxError(
            f"procedure {name!r} takes {len(routine.params)} "
            f"arguments, got {len(statement.args)}"
        )
    session.check_execute_privilege(routine)
    compiler = ExpressionCompiler(RowShape([]), session)
    arguments = []
    for param, arg in zip(routine.params, statement.args):
        if param.mode != "IN" and not isinstance(arg, ast.Parameter):
            raise errors.SQLSyntaxError(
                f"{param.mode} parameter {param.name!r} of {name!r} "
                f"takes a ? marker"
            )
        if param.mode != "OUT":
            arguments.append(compiler.compile(arg))
    return CallPlan(routine, Compiled.row(arguments).fn)


class Database:
    """One database instance: catalog + privileges + dialect."""

    def __init__(
        self,
        name: str = "db",
        dialect: Union[str, Dialect] = STANDARD,
        admin_user: str = "dba",
    ) -> None:
        if isinstance(dialect, str):
            try:
                dialect = DIALECTS[dialect]
            except KeyError:
                raise errors.ConnectionError_(
                    f"unknown dialect {dialect!r}"
                ) from None
        self.name = name
        self.dialect = dialect
        self.admin_user = admin_user
        self.catalog = Catalog()
        self.privileges = PrivilegeManager(admin_user)
        #: Statement-granularity reader-writer lock, a DDL latch:
        #: queries, DML, transaction control and user CALLs share it;
        #: DDL, ``sqlj.*`` CALLs, vacuum and the checkpoint hold it
        #: exclusively (see engine/locks.py).
        self.lock = ReadWriteLock()
        #: Compiled plans of queries, DML and CALL keyed by (sql,
        #: dialect, user), invalidated by catalog and statistics
        #: version bumps.
        self.plan_cache = PlanCache()
        #: Durability manager (WAL + checkpointing), attached by
        #: ``repro.open_database``; ``None`` for an in-memory database.
        #: Duck-typed to avoid an import cycle with engine.durability.
        self.durability: Optional[Any] = None
        #: LSM run store of a durable database (attached by
        #: ``LsmStore.build_database`` — so *before* recovery replay:
        #: vacuum and DDL hooks fire during replay too); ``None`` for
        #: an in-memory database.  Duck-typed for the same
        #: import-cycle reason as ``durability``.
        self.lsm_store: Optional[Any] = None
        #: MVCC transaction manager: snapshots, commit stamps,
        #: write-conflict waits (see engine/mvcc.py).
        self.transactions = TransactionManager()
        #: Serializes commit-stamp allocation with WAL commit-marker
        #: appends and snapshot capture, so marker order == stamp order
        #: and no snapshot observes a commit whose marker is not yet in
        #: the log.  Always acquired *after* the engine lock, never the
        #: other way around.
        self.commit_mutex = threading.Lock()
        self._vacuum_gate = threading.Lock()
        self._vacuum_thread: Optional[threading.Thread] = None
        #: Per-normalized-statement execution profile, served by the
        #: ``repro_stats.statements``/``.locks`` views (observability/stats).
        self.statement_stats = _stats.StatementStats()
        #: Live sessions of this database (``repro_stats.sessions``);
        #: weak so an abandoned session never outlives its last reference.
        self.sessions: "weakref.WeakSet[Session]" = weakref.WeakSet()
        self._bootstrap()

    def _bootstrap(self) -> None:
        # Lazy imports avoid a package cycle: procedures/datatypes build on
        # the engine, and the engine only reaches them through these hooks.
        from repro.procedures.invocation import call_routine, invoke_function
        from repro.procedures.registration import execute_create_routine
        from repro.procedures.system import register_system_routines
        from repro.datatypes.registration import execute_create_type
        from repro.engine.virtual import register_stats_views

        self._invoke_function = invoke_function
        self._call_routine = call_routine
        self._execute_create_routine = execute_create_routine
        self._execute_create_type = execute_create_type
        register_system_routines(self)
        register_stats_views(self)

    def create_session(
        self, user: Optional[str] = None, autocommit: bool = False
    ) -> "Session":
        return Session(self, user or self.admin_user, autocommit)

    def checkpoint(self) -> bool:
        """Fold the write-ahead log into the LSM runs now.

        Returns True if a checkpoint was taken, False when the database
        is not durable or a transaction is still in flight.
        """
        if self.durability is None:
            return False
        return self.durability.checkpoint()

    def vacuum(self) -> int:
        """Physically reclaim dead row versions; returns versions removed.

        A version is reclaimable once its ``end`` stamp is at or below
        every live snapshot — no transaction can ever see it again.
        Runs under the exclusive engine lock (brief and occasional) so
        lock-free scans never observe a heap shrink mid-iteration;
        vacuum is *not* WAL-logged, so a crash mid-vacuum is
        recovery-neutral: replay rebuilds the same committed state and
        simply leaves the garbage for the next pass.

        Storage-aware: on a durable database, reclaiming a version that
        was already flushed to a run hands its tombstone to the store
        (so the deletion still reaches disk at the next flush), and the
        pass finishes by offering the store a compaction — the
        threshold trigger does useful on-disk work instead of only
        sweeping heap versions.  After the exclusive section the pass
        freezes each heap's settled blocks
        (:func:`~repro.engine.mvcc.freeze`), so scans skip their test.
        """
        from repro.engine.virtual import VirtualTable

        store = self.lsm_store
        horizon = self.transactions.oldest_visible_seq()
        removed = 0
        with self.lock.write():
            tables = [table for table in list(self.catalog.tables.values())
                      if not isinstance(table, VirtualTable)]
            for table in tables:
                # Fires once per table, so fault injection can model a
                # crash after *some* tables were already reclaimed.
                faultpoints.trigger("storage.vacuum")
                with table.mutation_lock:
                    dead = [
                        v for v in table.versions
                        if v.end is not None and v.end <= horizon
                    ]
                    if not dead:
                        continue
                    dead_ids = {id(v) for v in dead}
                    table.versions = [
                        v for v in table.versions
                        if id(v) not in dead_ids
                    ]
                    for index in table.indexes:
                        for version in dead:
                            index.remove(version)
                    removed += len(dead)
                if store is not None:
                    for version in dead:
                        store.note_vacuumed(table.name, version)
            self.transactions.dead_versions = 0
        if removed:
            _metrics.increment("mvcc.vacuumed", removed)
        # Off the exclusive lock: freeze() locks one block at a time.
        horizon = self.transactions.freeze_horizon()
        for table in tables:
            freeze(table, horizon)
        if store is not None:
            store.maybe_compact(self)
        return removed

    def notify_rows_rewritten(self, table: Any) -> None:
        """DDL hook: every row image of ``table`` was rewritten in
        place (column add/drop), or ``table`` was dropped.  The LSM
        store must invalidate the runs filed under its name — their
        row images are stale, and a table created later under the same
        name must not inherit them."""
        if self.lsm_store is not None:
            self.lsm_store.invalidate_table(table)

    def _maybe_vacuum(self) -> None:
        """Kick off a background vacuum once enough garbage accumulated.

        Called after commits with no engine lock required; at most one
        vacuum thread runs at a time and it is a daemon, so it never
        blocks interpreter shutdown.
        """
        if self.transactions.dead_versions < VACUUM_THRESHOLD:
            return
        with self._vacuum_gate:
            thread = self._vacuum_thread
            if thread is not None and thread.is_alive():
                return
            thread = threading.Thread(
                target=self._vacuum_quietly,
                name=f"repro-vacuum-{self.name}",
                daemon=True,
            )
            self._vacuum_thread = thread
            thread.start()

    def _vacuum_quietly(self) -> None:
        try:
            self.vacuum()
        except errors.ReproError:
            pass  # injected faults target the foreground vacuum tests

    def close(self) -> None:
        """Close the database, checkpointing and closing the WAL if it
        is durable.  Idempotent; an in-memory database is a no-op."""
        thread = self._vacuum_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        if self.durability is not None:
            self.durability.close()


class Session:
    """One user's connection to a database."""

    def __init__(
        self, database: Database, user: str, autocommit: bool = False
    ) -> None:
        self.database = database
        self.user = user
        self.autocommit = autocommit
        self._routine_depth = 0
        #: Per routine invocation in progress, innermost last: the
        #: savepoints its body created, the only ones it may release or
        #: roll back to.
        self._body_savepoints: List[set] = []
        #: The open transaction — snapshot, write list, savepoints and
        #: WAL transaction id in one object — or None.  Opened by the
        #: first statement that needs any of them (the snapshot itself
        #: waits for the first one that reads or writes rows, see
        #: :attr:`mvcc_txn`); ended, all of it at once, by commit,
        #: rollback, an autocommit statement's end, or close.
        self.transaction: Optional[Transaction] = None
        #: How long a statement waits for a conflicting transaction
        #: before giving up with SQLSTATE 40001 (suspected deadlock).
        self.lock_timeout = 10.0
        #: Statements recorded by the statistics collector for this
        #: session (``repro_stats.sessions``).
        self.statements_executed = 0
        #: Per-session slow-query threshold in milliseconds; overrides
        #: the global ``REPRO_SLOW_QUERY_MS`` setting when not None.
        self.slow_query_ms: Optional[float] = None
        #: Bound once: the statistics fold runs on every statement, and
        #: the three-attribute chain it replaces is measurable against
        #: the <5% observability budget.
        self._stats_record = database.statement_stats.record
        self.closed = False
        database.sessions.add(self)

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> Catalog:
        return self.database.catalog

    @property
    def dialect(self) -> Dialect:
        return self.database.dialect

    # ------------------------------------------------------------------
    # privilege helpers used across the engine
    # ------------------------------------------------------------------
    def check_table_privilege(self, privilege: str, name: str) -> None:
        relation = self.catalog.get_relation(name)
        self.database.privileges.require(
            self.user, privilege, "TABLE", name, relation.owner
        )

    def check_execute_privilege(self, routine: Routine) -> None:
        self.database.privileges.require(
            self.user, "EXECUTE", "ROUTINE", routine.name, routine.owner
        )

    def check_usage_privilege(
        self, obj: Union[UserDefinedType, InstalledPar]
    ) -> None:
        if isinstance(obj, UserDefinedType):
            kind = "DATATYPE"
        else:
            kind = "PAR"
        self.database.privileges.require(
            self.user, "USAGE", kind, obj.name, obj.owner
        )

    @contextlib.contextmanager
    def impersonate(self, user: str) -> Iterator[None]:
        """Temporarily run as ``user`` (definer's-rights execution)."""
        previous = self.user
        self.user = user
        try:
            yield
        finally:
            self.user = previous

    # ------------------------------------------------------------------
    # the session's transaction
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        """True while a transaction is open: a snapshot, a write, a
        savepoint or a WAL transaction.  The one answer the pool, the
        ``repro://`` server and ``repro_stats.sessions`` rely on — a
        session handed to another client must not hold any of them."""
        return self.transaction is not None

    def _open_transaction(self) -> Transaction:
        """The open transaction, opened (without a snapshot) if none."""
        txn = self.transaction
        if txn is None:
            txn = self.transaction = Transaction()
        return txn

    @property
    def mvcc_txn(self) -> Transaction:
        """The open transaction with its snapshot taken, both begun on
        first use.

        The snapshot is captured here — at the transaction's first
        statement that reads or writes rows, not at BEGIN — under the
        commit mutex so it can never land between a concurrent commit's
        stamp allocation and its WAL marker append.
        """
        txn = self.transaction
        if txn is None or txn.id is None:
            if txn is None:
                txn = self.transaction = Transaction()
            with self.database.commit_mutex:
                self.database.transactions.begin(txn)
        return txn

    def _end_statement(self, failed: bool = False) -> Optional[int]:
        """Close out one statement's transaction state under the engine
        lock; returns the WAL position to wait on after releasing it.

        An autocommit statement commits the session's transaction (or,
        if it failed, rolls it back: its snapshot must stop pinning the
        vacuum horizon and conflict waiters move on).  In an explicit
        transaction — or a routine body, whose enclosing statement
        decides — a completed statement pins the snapshot, if one was
        taken (``pristine`` off), so later statements repeat exactly
        the same reads."""
        if self.autocommit and self._routine_depth == 0:
            if not failed:
                return self._commit_all()
            self._rollback_all()
        elif not failed:
            txn = self.transaction
            if txn is not None and txn.id is not None:
                txn.pristine = False
        return None

    def _wait_for_conflict(self, blocker: int) -> None:
        """Wait out a write-write conflict; called with NO engine lock
        held, after the conflicting statement rolled itself back.

        A transaction that has not completed a statement yet may take a
        fresh snapshot and transparently absorb the blocker's outcome;
        a pinned snapshot retries the statement as-is and surfaces
        SQLSTATE 40001 from the claim if the blocker committed.
        """
        tm = self.database.transactions
        if not tm.wait_for(blocker, self.lock_timeout):
            raise errors.SerializationFailureError(
                "timed out waiting for a conflicting transaction "
                "(suspected deadlock); roll back and retry the "
                "transaction"
            )
        txn = self.transaction
        if txn is not None and txn.pristine:
            with self.database.commit_mutex:
                tm.refresh_snapshot(txn)

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------
    def _record_statement(
        self,
        context: "_stats.StatementContext",
        sql_text: str,
        seconds: float,
        rows: int,
        error_sqlstate: Optional[str],
        cache_hit: bool,
        batch_rows: Optional[int],
    ) -> None:
        """Finish one statement's statistics: emit a slow-query record
        when the statement crossed the threshold, then fold the
        execution into the per-statement collector (which consumes the
        wait-attribution context and closes the bracket opened by
        ``_stats.begin``).  Called exactly once per statement, by the
        envelope (:meth:`_run_statement`)."""
        self.statements_executed += 1
        # Module-global peek before the call: with no threshold set
        # anywhere (the default) the slow-query log must cost two
        # attribute reads, not a function call per statement.  Logging
        # runs *before* the record() below resets the context, while
        # its wait breakdown still describes this statement.
        if (
            self.slow_query_ms is not None
            or _slowlog._threshold_ms is not None
        ):
            _slowlog.maybe_log(
                self,
                sql=sql_text,
                key=_stats.normalize_statement(sql_text),
                seconds=seconds,
                rows=rows,
                context=context,
                error_sqlstate=error_sqlstate,
                batch_rows=batch_rows,
            )
        self._stats_record(
            sql_text,
            seconds,
            rows,
            context,
            error_sqlstate,
            cache_hit,
        )

    def _run_statement(
        self,
        statement: ast.Statement,
        sql: str,
        param_rows: Sequence[Sequence[Any]],
        entry: Optional[CachedPlan] = None,
        store: Optional[Callable[[CachedPlan], Any]] = None,
        span: Optional[dict] = None,
        cache_hit: bool = False,
        batch: bool = False,
    ) -> Any:
        """The statement envelope: every entry point runs its statement
        here, traced or not.

        A query, DML or CALL runs through ``entry``, the plan its caller
        holds (a plan-cache entry, a prepared or precompiled statement's
        own), recompiled under the lock and handed to ``store`` when
        absent or when DDL or ANALYZE moved the catalog since it was
        built.  A command is dispatched (:meth:`_dispatch`).  DML
        returns its per-row counts for a batch.  Around that the
        envelope owns the counter, statistics bracket, ``statement``
        span (when tracing is on and the caller passed its attributes
        as ``span``; ``execute`` opens its own, around parsing), one
        engine-lock acquisition (exclusive for DDL and a ``sqlj.*``
        CALL), undo mark and statement-level rollback, the redo record
        for ``param_rows``, :meth:`_end_statement`, the write-conflict
        retry, the fsync wait and error accounting.  A stage with
        nothing to do costs an attribute read, so a cache-hit query
        pays for little more than its plan.  docs/ARCHITECTURE.md
        ("Statement lifecycle") walks the stages in order.
        """
        if self.closed:
            raise errors.ConnectionClosedError("session is closed")
        tracer = _tracing.current
        timed = tracer.enabled
        if timed and span is not None:
            with tracer.span("statement", sql=sql, **span):
                return self._run_statement(
                    statement, sql, param_rows, entry, store, None,
                    cache_hit, batch,
                )
        cls = statement.__class__
        kind = _KINDS.get(cls)
        if kind is None:
            kind = _KINDS[cls] = _Kind(cls)
        exclusive = False
        if isinstance(statement, ast.Call):
            # A system procedure rewrites the catalog: its CALL is
            # exclusive, decided from the routine it compiles against (a
            # held plan may be stale, but only bootstrap creates system
            # procedures).  A failing compile is reported below.
            if entry is None:
                try:
                    entry = self.compile(statement)
                except errors.SQLException:
                    pass
                else:
                    if store is not None:
                        store(entry)
            exclusive = (
                entry is not None and entry.plan.routine.language == "SYSTEM"
            )
        kind.counter.increment()
        context = _stats.begin() if _stats.enabled else None
        start = _perf_counter() if (timed or context is not None) else 0.0
        database = self.database
        lock = database.lock
        # Bound acquire/release, not the context managers: a generator
        # frame per statement is measurable on the cheapest queries.
        shared = kind.shared and not exclusive
        if shared:
            acquire, release = lock.acquire_read, lock.release_read
        else:
            acquire, release = lock.acquire_write, lock.release_write
        command = entry is None and not kind.plannable
        logged = kind.logged and database.durability is not None
        returned, error = 0, None
        try:
            if not shared and lock.held_by_me() == "shared":
                # DDL or a sqlj.* CALL from a routine body, which runs
                # under its caller's shared hold: the lock is never
                # upgraded, so the statement is refused before it waits.
                raise errors.ExternalRoutineError(
                    "prohibited SQL-statement attempted: a routine body "
                    "may not run DDL or a system procedure",
                    sqlstate="38003",
                )
            # A write-write conflict retries the whole statement: the
            # failed attempt rolled itself back under the lock, then the
            # wait for the blocking transaction happens with NO engine
            # lock held (the blocker needs the lock to finish).
            while True:
                try:
                    acquire()
                    try:
                        marked = self.transaction
                        mark = 0 if marked is None else len(marked.writes)
                        try:
                            if command:
                                if timed:
                                    with tracer.span(
                                        "execute", statement=cls.__name__
                                    ):
                                        result = self._dispatch(
                                            statement, param_rows[0]
                                        )
                                else:
                                    result = self._dispatch(
                                        statement, param_rows[0]
                                    )
                            else:
                                catalog = database.catalog
                                if (
                                    entry is None
                                    or entry.catalog_version
                                    != catalog.version
                                    or entry.stats_version
                                    != catalog.stats_version
                                ):
                                    entry = self._compile(statement)
                                    if store is not None:
                                        store(entry)
                                plan = entry.plan
                                if entry.shape is None:  # DML or CALL
                                    if timed:
                                        with tracer.span(
                                            "execute",
                                            statement=cls.__name__,
                                        ):
                                            result = plan.run(
                                                self, param_rows
                                            )
                                    else:
                                        result = plan.run(self, param_rows)
                                    if not (
                                        batch
                                        or isinstance(result, StatementResult)
                                    ):
                                        result = StatementResult(
                                            "update",
                                            update_count=result[0],
                                        )
                                elif timed:
                                    with tracer.span("execute"):
                                        rows = plan.run(self, param_rows[0])
                                    with tracer.span("fetch"):
                                        if entry.objects:
                                            _copy_objects(rows, entry.objects)
                                        result = StatementResult(
                                            "rowset", rows, entry.shape
                                        )
                                else:
                                    rows = plan.run(self, param_rows[0])
                                    if entry.objects:
                                        _copy_objects(rows, entry.objects)
                                    result = StatementResult(
                                        "rowset", rows, entry.shape
                                    )
                            # Redo-log only statements that succeeded; a
                            # logging failure (an unpicklable parameter)
                            # rolls the statement back too, keeping WAL
                            # and heap in agreement.
                            pending = (
                                self._log_durable(statement, param_rows, sql)
                                if logged else None
                            )
                        except BaseException:
                            # Statement-level atomicity: a failing
                            # statement (one killed by an injected fault,
                            # a query whose function ran DML) backs out
                            # its own partial writes first — all of a
                            # transaction it opened itself.
                            txn = self.transaction
                            if txn is not None:
                                txn.undo(mark if txn is marked else 0)
                            self._end_statement(failed=True)
                            raise
                        committed = self._end_statement()
                        if committed is not None:
                            pending = committed
                    finally:
                        release()
                    break
                except WriteConflict as conflict:
                    if lock.held_by_me():
                        # A routine body's statement: its caller holds
                        # the lock, and a writer queued behind that hold
                        # stops the blocker's COMMIT, so a wait could
                        # only end at lock_timeout.  Only a top-level
                        # statement waits; this one fails, retryably.
                        raise errors.SerializationFailureError(
                            "write-write conflict inside a routine body; "
                            "roll back and retry the transaction"
                        ) from None
                    self._wait_for_conflict(conflict.blocker)
            # fsync AFTER the engine lock is released: concurrent
            # committers pile onto one group-commit flush instead of
            # serialising the engine behind the disk.  The statistics
            # bracket is still open, so the stall is charged to this
            # statement (waits.wal.sync).  With nothing to wait for and
            # too little garbage to vacuum there is nothing to do.
            if (
                pending is not None
                or database.transactions.dead_versions >= VACUUM_THRESHOLD
            ):
                self._after_commit(pending)
            if timed:
                # Per-statement latency is only sampled while tracing is
                # on: two clock reads plus a histogram update are
                # measurable next to the fastest prepared statements.
                _STATEMENT_SECONDS.observe(_perf_counter() - start)
            if batch:
                returned = sum(result)
            elif result.kind == "rowset":
                returned = len(result.rows)
                _ROWS_RETURNED.increment(returned)
        except errors.SQLException as exc:
            error = exc.sqlstate
            _metrics.increment(f"errors.{error}")
            raise
        except BaseException:
            if context is not None:
                _stats.abandon(context)
                context = None
            raise
        finally:
            if context is not None:
                self._record_statement(
                    context,
                    sql,
                    _perf_counter() - start,
                    returned,
                    error,
                    cache_hit,
                    len(param_rows) if batch else None,
                )
        return result

    def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> StatementResult:
        """Parse and execute one statement: a plan-cache hit runs
        unparsed, a query, DML or CALL parsed here is compiled into the
        cache, a command is dispatched."""
        if self.closed:
            raise errors.ConnectionClosedError("session is closed")
        tracer = _tracing.current
        if not tracer.enabled:
            statement, entry, store = self._lookup(sql)
            return self._run_statement(
                statement, sql, [params], entry, store, None,
                entry is not None,
            )
        with tracer.span("statement", sql=sql) as span:
            statement, entry, store = self._lookup(sql, span)
            return self._run_statement(
                statement, sql, [params], entry, store, None,
                entry is not None,
            )

    def _lookup(self, sql: str, span: Any = None) -> tuple:
        """``(statement, entry, store)`` for one text: the plan cache's
        fresh entry and its statement, or the text parsed here and no
        entry; ``store`` files a plan compiled for it."""
        database = self.database
        cache = database.plan_cache
        key = (sql, database.dialect.name, self.user)
        # Optimistic peek before parsing: a hit skips the parser and the
        # compile step entirely.  The envelope re-validates the catalog
        # version under the shared lock, so a DDL statement racing this
        # peek can at worst force a recompile, never a stale execution.
        # peek (not get): a command is never cached, so its absence
        # must not count as a miss.
        catalog = database.catalog
        entry = cache.peek(key, catalog.version, catalog.stats_version)
        if entry is not None:
            if span is not None:
                span.annotate(cached=True)
            # No store for a hit: a DDL statement racing this peek makes
            # the entry recompile, and the next lookup evicts it.
            return entry.statement, entry, None
        store = functools.partial(cache.put, key)
        if span is not None:
            with _tracing.current.span("parse"):
                parser = Parser(sql, self.dialect)
                statement = parser.parse_statement()
        else:
            parser = Parser(sql, self.dialect)
            statement = parser.parse_statement()
        if _stats.enabled:  # the statistics key, without lexing again
            _stats.note_tokens(sql, parser.tokens)
        if isinstance(statement, _PLANNABLE):
            cache.miss()
        return statement, None, store

    def prepare(self, sql: str) -> PreparedStatementPlan:
        """Parse and compile once for repeated execution."""
        self._check_open()
        return PreparedStatementPlan(self, sql)

    def compile(self, statement: ast.Statement) -> Optional[CachedPlan]:
        """The one compile step: a query, an INSERT/UPDATE/DELETE or a
        CALL planned against the current catalog, privileges and
        statistics, as the :class:`CachedPlan` every execution route
        holds; None for a command, which is dispatched per execution
        instead.  Raises every error that does not depend on rows or
        parameter values; the translator's ``OnlineChecker`` is this, on
        an exemplar."""
        if not isinstance(statement, _PLANNABLE):
            return None
        # Compiling reads the catalog, so it must not race a DDL
        # statement rewriting it.
        with self.database.lock.read():
            return self._compile(statement)

    def execute_batch(
        self,
        sql: str,
        param_rows: Sequence[Sequence[Any]],
    ) -> List[int]:
        """Execute one DML statement against many parameter rows as a
        single atomic unit.

        This is the engine end of ``executemany`` / JDBC
        ``executeBatch``: the text goes through the plan cache like
        ``execute``'s, the compiled plan runs once per parameter row (a
        plain VALUES INSERT appends them all in one ``mutation_lock``
        span with one unique-check pass), and durability writes ONE
        logical WAL record for the whole batch, so group commit fsyncs
        once per batch.

        The batch is one statement — one trip through the statement
        envelope — so any failure rolls back every row (in autocommit
        mode nothing is committed; an explicit transaction stays open
        and undisturbed), and it is one ``repro_stats.statements`` entry
        with the total affected-row count and one slow-query record
        carrying the batch size and per-row mean.

        Returns the per-parameter-row affected counts (JDBC
        ``updateCounts``).
        """
        self._check_open()
        rows = [list(row) for row in param_rows]
        if not rows:
            return []
        statement, entry, store = self._lookup(sql)
        if not isinstance(statement, _DML):
            raise errors.FeatureNotSupportedError(
                "execute_batch supports only INSERT, UPDATE and DELETE "
                "statements"
            )
        _BATCH_EXECUTED.increment()
        _BATCH_ROWS.increment(len(rows))
        return self._run_statement(
            statement, sql, rows, entry, store, {"batch": len(rows)},
            entry is not None, True,
        )

    # ------------------------------------------------------------------
    # statement bodies (run inside the envelope, engine lock held)
    # ------------------------------------------------------------------
    def _compile(self, statement: ast.Statement) -> CachedPlan:
        """Compile a query, DML or CALL statement under the current
        catalog and statistics versions; the caller holds the shared
        lock, which keeps DDL (it takes the lock exclusively) from
        changing the catalog meanwhile."""
        catalog = self.catalog
        version, stats_version = catalog.version, catalog.stats_version
        with _tracing.current.span("plan"):
            if isinstance(statement, _DML):
                plan, shape = dml.plan_dml(statement, self), None
            elif isinstance(statement, ast.Call):
                plan, shape = plan_call(statement, self), None
            else:
                plan, shape = plan_query(statement, self, collect=True)
        return CachedPlan(statement, plan, shape, version, stats_version)

    def _dispatch(
        self, statement: ast.Statement, params: Sequence[Any]
    ) -> StatementResult:
        """Body: run one command."""
        if isinstance(statement, ast.CreateTable):
            ddl.execute_create_table(statement, self)
            return StatementResult("ddl")
        if isinstance(statement, ast.CreateView):
            ddl.execute_create_view(statement, self)
            return StatementResult("ddl")
        if isinstance(statement, ast.AlterTable):
            ddl.execute_alter_table(statement, self)
            return StatementResult("ddl")
        if isinstance(statement, ast.CreateIndex):
            ddl.execute_create_index(statement, self)
            return StatementResult("ddl")
        if isinstance(statement, ast.CreateRoutine):
            self.database._execute_create_routine(statement, self)
            return StatementResult("ddl")
        if isinstance(statement, ast.CreateType):
            self.database._execute_create_type(statement, self)
            return StatementResult("ddl")
        if isinstance(statement, ast.Drop):
            ddl.execute_drop(statement, self)
            return StatementResult("ddl")
        if isinstance(statement, ast.Grant):
            ddl.execute_grant(statement, self)
            return StatementResult("ddl")
        if isinstance(statement, ast.Revoke):
            ddl.execute_revoke(statement, self)
            return StatementResult("ddl")
        if isinstance(statement, ast.Explain):
            return self._explain(statement, params)
        if isinstance(statement, ast.Analyze):
            return self._analyze(statement)
        if isinstance(statement, ast.Commit):
            self.commit()
            return StatementResult("ddl")
        if isinstance(statement, ast.Rollback):
            self.rollback()
            return StatementResult("ddl")
        if isinstance(statement, ast.Savepoint):
            self._open_transaction().savepoint(statement.name)
            if self._routine_depth:
                self._body_savepoints[-1].add(statement.name)
            return StatementResult("ddl")
        if isinstance(statement, ast.RollbackTo):
            self._check_body_savepoint(statement.name, "roll back to")
            self._open_transaction().rollback_to(statement.name)
            return StatementResult("ddl")
        if isinstance(statement, ast.ReleaseSavepoint):
            self._check_body_savepoint(statement.name, "release")
            self._open_transaction().release(statement.name)
            if self._routine_depth:
                self._body_savepoints[-1].discard(statement.name)
            return StatementResult("ddl")
        raise errors.FeatureNotSupportedError(
            f"cannot execute {type(statement).__name__}"
        )

    def _explain(
        self, statement: ast.Explain, params: Sequence[Any] = ()
    ) -> StatementResult:
        """Plan ``statement``'s query — for ANALYZE, run it through an
        instrumented plan — and return the plan tree as text or JSON
        rows."""
        import json

        from repro.engine.executor import instrument_plan
        from repro.engine.explain import build_plan_tree, format_plan_tree
        from repro.sqltypes import VarCharType
        from repro.engine.expressions import ColumnInfo

        # EXPLAIN plans its query freshly, so ANALYZE's in-place
        # instrumentation never touches a cached plan.
        plan, _shape = plan_query(statement.query, self)
        if statement.analyze:
            instrumentation = instrument_plan(plan.root)
            start = _perf_counter()
            total_rows = len(plan.run(self, params))
            elapsed_ms = (_perf_counter() - start) * 1000.0
            tree = build_plan_tree(plan.root, instrumentation)
        else:
            tree = build_plan_tree(plan.root)
        shape = RowShape(
            [ColumnInfo(None, "query_plan", VarCharType(None))]
        )
        if statement.format == "json":
            document: dict = {"plan": tree.to_dict()}
            if statement.analyze:
                document["total_rows"] = total_rows
                document["total_ms"] = elapsed_ms
            return StatementResult("rowset", [[json.dumps(document)]], shape)
        lines = format_plan_tree(tree)
        if statement.analyze:
            lines.append(
                f"Total: rows={total_rows} time={elapsed_ms:.3f} ms"
            )
        return StatementResult("rowset", [[line] for line in lines], shape)

    def explain(
        self,
        sql: str,
        params: Sequence[Any] = (),
        analyze: bool = False,
    ) -> Any:
        """Structured plan introspection: the typed :class:`PlanNode`
        tree for ``sql`` (a query, or an EXPLAIN statement whose
        options are honoured).

        With ``analyze=True`` (or ``EXPLAIN ANALYZE`` text) the query
        is executed through an instrumented plan and each node carries
        actual row counts and times.  The tree includes the planner's
        estimated rows/costs and the alternatives it rejected, when
        ANALYZE statistics made a cost model available.  It is one
        EXPLAIN statement of the envelope, counted and recorded as such;
        the tree comes back as its JSON document, which a ``repro://``
        client rebuilds the tree from too.
        """
        import json

        from repro.engine.explain import PlanNode

        self._check_open()
        statement = Parser(sql, self.dialect).parse_statement()
        if isinstance(statement, ast.Explain):
            query, analyze = statement.query, analyze or statement.analyze
        elif isinstance(statement, (ast.Select, ast.SetOperation)):
            query = statement
        else:
            raise errors.FeatureNotSupportedError(
                "explain() takes a query (SELECT / set operation)"
            )
        statement = ast.Explain(query, analyze=analyze, format="json")
        result = self._run_statement(statement, sql, [params])
        return PlanNode.from_dict(json.loads(result.rows[0][0])["plan"])

    def _analyze(self, statement: ast.Analyze) -> StatementResult:
        """Collect planner statistics for one table or every base table.

        Reads the session's MVCC snapshot (the same rows a SELECT would
        see) and publishes per-table row counts, per-column NDV, null
        fractions, min/max, and equi-width histograms into the catalog,
        bumping its ``stats_version`` so cached plans are re-costed.
        Having walked each heap, it freezes its settled blocks
        (:func:`repro.engine.mvcc.freeze`).
        """
        from repro.engine.statistics import collect_table_statistics
        from repro.engine.virtual import VirtualTable

        catalog = self.catalog
        if statement.table is not None:
            relation = catalog.get_relation(statement.table)
            if not isinstance(relation, Table) or isinstance(
                relation, VirtualTable
            ):
                raise errors.FeatureNotSupportedError(
                    f"ANALYZE targets base tables; "
                    f"{statement.table!r} is not one"
                )
            targets = [relation]
        else:
            targets = [
                table
                for table in catalog.tables.values()
                if not isinstance(table, VirtualTable)
            ]
        txn = self.mvcc_txn
        for table in targets:
            self.check_table_privilege("SELECT", table.name)
        horizon = self.database.transactions.freeze_horizon()
        for table in targets:
            rows = [v.row for v in txn.visible(list(table.versions))]
            stats = collect_table_statistics(
                table, rows, analyzed_txn=txn.id
            )
            catalog.set_statistics(table.name, stats)
            freeze(table, horizon)
        _metrics.increment("analyze.tables", len(targets))
        return StatementResult("analyze", update_count=len(targets))

    # ------------------------------------------------------------------
    # routines
    # ------------------------------------------------------------------
    def invoke_function(self, routine: Routine, args: List[Any]) -> Any:
        """Invoke a Part 1 external function from an expression."""
        return self.database._invoke_function(self, routine, args)

    @contextlib.contextmanager
    def routine_call(self) -> Iterator[None]:
        """Marks the dynamic extent of an external routine invocation
        (suppresses autocommit for statements the routine runs, and
        refuses COMMIT and ROLLBACK: :meth:`commit`)."""
        self._routine_depth += 1
        self._body_savepoints.append(set())
        try:
            yield
        finally:
            self._body_savepoints.pop()
            self._routine_depth -= 1

    # ------------------------------------------------------------------
    # durability (redo logging)
    # ------------------------------------------------------------------
    def _log_durable(
        self,
        statement: ast.Statement,
        param_rows: Sequence[Sequence[Any]],
        sql: str,
    ) -> Optional[int]:
        """Append the redo record for a just-executed statement.

        One parameter row makes a statement record; more make ONE
        logical batch record carrying every row, so a batch of N rows
        costs one WAL append (and, at commit, one group-commit fsync
        barrier) instead of N, and recovery replays it through
        :meth:`execute_batch`, all-or-nothing.

        Returns a WAL position the caller must make durable after
        releasing the engine lock (DDL commits immediately), or None
        (reads, EXPLAIN, COMMIT/ROLLBACK — logged as markers —
        non-durable databases, and statements that join the session
        transaction and become durable at its COMMIT).  An autocommit
        statement's record is framed here — a parameter that cannot be
        pickled fails the statement — and :meth:`_commit_all` appends
        it with the commit marker in one ``write``: the same two frames.

        Statements executed inside an external routine are *not*
        logged: the outer CALL is, and replaying it re-runs the body.
        The envelope calls this for a :data:`_LOGGED_STATEMENTS` kind
        on a durable database only.
        """
        if self._routine_depth > 0:
            return None
        durability = self.database.durability
        immediate = isinstance(statement, _DDL_STATEMENTS)
        # Record the snapshot the statement actually executed with, so
        # crash-recovery replay reproduces its visibility even when the
        # original history interleaved with concurrent commits.
        open_txn = self.transaction
        snapshot = open_txn.snapshot_seq if open_txn is not None else None
        if snapshot is None:
            snapshot = self.database.transactions.commit_seq
        if immediate:
            wal_txn = durability.begin()
            durability.wal.write(durability.log_statement(
                wal_txn, self.user, sql, param_rows, snapshot
            ))
            return durability.log_commit(wal_txn)
        txn = open_txn if open_txn is not None else self._open_transaction()
        if txn.wal_txn is None:
            txn.wal_txn = durability.begin()
        frame = durability.log_statement(
            txn.wal_txn, self.user, sql, param_rows, snapshot
        )
        if self.autocommit:
            # Appended with the commit marker _end_statement is about
            # to write.
            txn.wal_statement = frame
        else:
            durability.wal.write(frame)
        return None

    def _commit_all(self, stamp: Optional[int] = None) -> Optional[int]:
        """Commit the session's transaction: stamp its writes, append
        the WAL COMMIT marker, retire it.  ``stamp`` forces the commit
        stamp (crash-recovery replay reproduces the logged one).

        Stamp allocation and marker append happen together under the
        database's commit mutex, so the WAL's marker order equals
        commit-stamp order — crash recovery replays commits in exactly
        the order their stamps made them visible.  Waiting
        transactions are only released (``finish``) after the marker is
        in the log, which keeps *their* subsequent statement records
        behind this commit in the WAL.  The fsync wait stays with the
        caller, outside every lock.
        """
        txn = self.transaction
        if txn is None:
            return None
        self.transaction = None
        tm = self.database.transactions
        if not txn.writes and txn.wal_txn is None and stamp is None:
            tm.finish(txn)  # read-only: nothing to stamp, log or order
            return None
        pending: Optional[int] = None
        with self.database.commit_mutex:
            try:
                stamp = tm.stamp(txn, stamp)
                faultpoints.trigger("mvcc.commit")
                if txn.wal_txn is not None:
                    pending = self.database.durability.log_commit(
                        txn.wal_txn, stamp, txn.wal_statement
                    )
            finally:
                tm.finish(txn)
        return pending

    def _rollback_all(self) -> None:
        """Roll the session's transaction back: undo its writes, retire
        it, append the WAL ABORT marker."""
        txn = self.transaction
        if txn is None:
            return
        self.transaction = None
        txn.undo()
        self.database.transactions.finish(txn, committed=False)
        if txn.wal_txn is not None:
            self.database.durability.log_abort(txn.wal_txn)

    def _after_commit(self, pending: Optional[int]) -> None:
        """After a statement or COMMIT, outside its own engine-lock
        hold: give the vacuum a chance to start, wait for the
        group-commit fsync covering ``pending``, then give the
        checkpointer a chance to run."""
        database = self.database
        if database.transactions.dead_versions >= VACUUM_THRESHOLD:
            database._maybe_vacuum()
        durability = database.durability
        if durability is None or pending is None:
            return
        durability.wait_durable(pending)
        if database.lock.held_by_me() != "shared":
            # A COMMIT statement runs under its envelope's shared hold,
            # which the checkpoint cannot take: a later commit runs it.
            durability.maybe_checkpoint()

    # ------------------------------------------------------------------
    # transactions / lifecycle
    # ------------------------------------------------------------------
    @property
    def in_routine(self) -> bool:
        """True while an external routine invoked on this session runs:
        its statements belong to the statement that invoked it."""
        return self._routine_depth > 0

    def _check_termination(self, verb: str) -> None:
        """Refuse to end the transaction from a routine body (SQLSTATE
        2D000): the body runs inside its caller's statement, which
        rolls back as any failed statement does."""
        if self._routine_depth > 0:
            raise errors.TransactionError(
                f"invalid transaction termination: a routine body may "
                f"not {verb} its caller's transaction",
                sqlstate="2D000",
            )

    def _check_body_savepoint(self, name: str, verb: str) -> None:
        """Refuse (SQLSTATE 2D000) a routine body's RELEASE or ROLLBACK
        TO of a savepoint the body did not create: it belongs to the
        caller's transaction, which the body may not end either."""
        if self._routine_depth > 0 \
                and name not in self._body_savepoints[-1]:
            raise errors.TransactionError(
                f"invalid transaction termination: a routine body may "
                f"not {verb} savepoint {name!r}, which it did not create",
                sqlstate="2D000",
            )

    def commit(self) -> None:
        self._check_open()
        self._check_termination("commit")
        # The shared lock suffices: commit touches only this
        # transaction's own versions (stamping under the commit mutex)
        # and must not exclude concurrent readers or writers.
        with self.database.lock.read():
            pending = self._commit_all()
        # The fsync happens outside the engine lock so that concurrent
        # committers share one group-commit flush.
        self._after_commit(pending)

    def rollback(self) -> None:
        # Undo replays against table heaps, but every entry touches
        # only versions this transaction created or claimed — invisible
        # or irrelevant to everyone else — and takes the per-table
        # mutation lock for structural changes, so the shared engine
        # lock is enough.
        self._check_open()
        self._check_termination("roll back")
        with self.database.lock.read():
            self._rollback_all()

    def close(self) -> None:
        if not self.closed:
            if self.in_transaction:
                self.rollback()
            self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise errors.ConnectionClosedError("session is closed")
