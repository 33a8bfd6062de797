"""Replaying one statement through each layer's public entry point.

The traced pass cannot see inside a call, so for a sampled op it makes
the calls the op made, one layer at a time, each under a span whose
``parent`` is the span of the call that contains that layer's work
(``spans.py`` explains how such *replayed* children are subtracted).
Reads are replayed on the live database; writes inside a transaction
that is rolled back, except what only a commit exercises — the MVCC
stamp and the WAL's commit marker and fsync — which run on a scratch
in-memory database and a scratch log beside the data directory.

Nothing here reaches below a module's public names.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro
from repro.engine import dml
from repro.engine.lexer import tokenize
from repro.engine.parser import parse_statement
from repro.engine.planner import plan_query
from repro.engine.wal import KIND_BATCH, KIND_COMMIT, KIND_STATEMENT, WalRecord

from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.spec import FLUSH_POLICY

__all__ = ["Replayer", "SCRATCH_ROWS"]

_DML = {
    "insert": dml.execute_insert,
    "update": dml.execute_update,
    "delete": dml.execute_delete,
}

#: Rows of the scratch table whose one-row update gives ``mvcc.commit``
#: something to stamp.
SCRATCH_ROWS = 64


class Replayer:
    """Layer-by-layer replays against one embedded database."""

    def __init__(
        self,
        tracer: Tracer,
        database: Any,
        work: Optional[str] = None,
    ) -> None:
        self.tr = tracer
        self.db = database
        self.dialect = database.dialect
        #: Sessions of the replayer's own, so the client under test
        #: never shares transaction state with a replay.
        self.auto = database.create_session(autocommit=True)
        self.txn = database.create_session(autocommit=False)
        #: Per-sample values that are not span times: per-row costs,
        #: token counts, frame sizes, paired differences.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._statements: Dict[str, Any] = {}
        self._plans: Dict[str, Any] = {}
        self._prepared: Dict[Tuple[int, str], Any] = {}
        self._fresh = 0
        self._seq = 0
        self.wal = None
        if work is not None:
            self.wal = repro.WriteAheadLog(
                os.path.join(work, "scratch-wal.log"),
                sync=FLUSH_POLICY["sync"],
                group_window=FLUSH_POLICY["group_window"],
                group_size=FLUSH_POLICY["group_size"],
            )
        scratch = repro.Database(name="scratch")
        self._scratch = scratch.create_session(autocommit=False)
        self._scratch.execute(
            "create table t (k integer primary key, v integer)"
        )
        self._scratch.execute_batch(
            "insert into t values (?, ?)",
            [(k, 0) for k in range(SCRATCH_ROWS)],
        )
        self._scratch.commit()
        self._scratch_update = self._scratch.prepare(
            "update t set v = v + 1 where k = ?"
        )

    def close(self) -> None:
        self.auto.close()
        self.txn.close()
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def statement(self, sql: str) -> Any:
        parsed = self._statements.get(sql)
        if parsed is None:
            parsed = self._statements[sql] = parse_statement(
                sql, self.dialect
            )
        return parsed

    def prepared(self, session: Any, sql: str) -> Any:
        key = (id(session), sql)
        plan = self._prepared.get(key)
        if plan is None:
            plan = self._prepared[key] = session.prepare(sql)
        return plan

    def respell(self, sql: str) -> str:
        """A never-seen spelling of ``sql``: the plan cache keys on the
        byte-exact text, so this replays a miss with the same meaning."""
        self._fresh += 1
        return sql + " " * self._fresh

    def parse_spans(self, parent: int, op_id: int, sql: str) -> Any:
        tr = self.tr
        with tr.span("parser.parse_statement", parent, op_id) as parse:
            statement = parse_statement(sql, self.dialect)
        with tr.span("lexer.tokenize", parse.id, op_id):
            tokens = tokenize(sql)
        self.samples["lexer.tokens_per_stmt"].append(len(tokens))
        return statement

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def select(
        self,
        parent: int,
        op_id: int,
        sql: str,
        params: Sequence[Any],
        *,
        prepared: bool = False,
        miss: bool = False,
    ) -> Tuple[int, Any, int]:
        """Replay one SELECT's trip through the engine.

        ``prepared``: the real call ran a prepared plan (no parse, no
        plan-cache probe).  ``miss``: the real call's text was new to
        the plan cache, so lexer, parser and planner were on its path.
        Returns the ``engine.select`` span id, the statement result and
        the ``executor.run`` time in ns.
        """
        tr, session, db = self.tr, self.auto, self.db
        text = self.respell(sql) if miss else sql
        with tr.span("engine.select", parent, op_id) as engine:
            if prepared:
                result = self.prepared(session, sql).execute(params)
            else:
                result = session.execute(text, params)
        entry = None
        statement = None
        if miss:
            statement = self.parse_spans(engine.id, op_id, text)
        if not prepared:
            catalog = db.catalog
            key = (text, self.dialect.name, session.user)
            with tr.span("plancache.lookup", engine.id, op_id):
                entry = db.plan_cache.get(
                    key, catalog.version, catalog.stats_version
                )
        with db.lock.read():
            if miss:
                with tr.span("planner.plan_query", engine.id, op_id):
                    plan, _shape = plan_query(statement, session)
            elif entry is not None:
                plan = entry.plan
            else:
                plan = self._plans.get(sql)
                if plan is None:
                    plan, _shape = plan_query(self.statement(sql), session)
                    self._plans[sql] = plan
            with tr.span("executor.run", engine.id, op_id) as run:
                plan.run(session, params)
        # The direct run opened an implicit read transaction.
        session.commit()
        return engine.id, result, tr.duration(run.id)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def write(
        self,
        parent: int,
        op_id: int,
        kind: str,
        sql: str,
        params: Sequence[Any],
        *,
        prepared: bool = False,
    ) -> int:
        """Replay one INSERT/UPDATE/DELETE up to, not including, its
        commit, inside a transaction that is rolled back.  Unprepared
        DML is parsed on every call, so lexer and parser are replayed
        too.  Returns the ``engine.<kind>`` span id."""
        tr, session, db = self.tr, self.txn, self.db
        with tr.span("engine." + kind, parent, op_id) as engine:
            if prepared:
                self.prepared(session, sql).execute(params)
            else:
                session.execute(sql, params)
        session.rollback()
        if not prepared:
            self.parse_spans(engine.id, op_id, sql)
            catalog = db.catalog
            key = (sql, self.dialect.name, session.user)
            with tr.span("plancache.lookup", engine.id, op_id):
                db.plan_cache.peek(
                    key, catalog.version, catalog.stats_version
                )
        statement = self.statement(sql)
        with db.lock.read():
            with tr.span("dml.execute", engine.id, op_id):
                _DML[kind](statement, session, params)
        session.rollback()
        if self.wal is not None:
            self.wal_append(
                engine.id, op_id, KIND_STATEMENT,
                (session.user, sql, tuple(params), 0),
            )
        return engine.id

    def batch(
        self, parent: int, op_id: int, sql: str, rows: Sequence[Sequence[Any]]
    ) -> int:
        """Replay one ``executemany`` batch (rolled back)."""
        tr, session = self.tr, self.txn
        with tr.span("engine.batch", parent, op_id) as engine:
            session.execute_batch(sql, rows)
        session.rollback()
        if self.wal is not None:
            self.wal_append(
                engine.id, op_id, KIND_BATCH,
                (session.user, sql, tuple(tuple(r) for r in rows), 0),
            )
        return engine.id

    def wal_append(self, parent: int, op_id: int, kind: str, data: Any) -> int:
        """Append a record shaped like the engine's to the scratch log."""
        self._seq += 1
        record = WalRecord(self._seq, kind, 1, data)
        with self.tr.span("wal.append", parent, op_id):
            position = self.wal.append(record)
        return position

    def commit(self, parent: int, op_id: int) -> None:
        """Replay what acknowledging a commit costs: the MVCC stamp (a
        one-row transaction on the in-memory scratch database) and, on a
        durable database, the commit marker's append and fsync."""
        self._scratch_update.execute((self._seq % SCRATCH_ROWS,))
        with self.tr.span("mvcc.commit", parent, op_id):
            self._scratch.commit()
        if self.wal is not None:
            position = self.wal_append(parent, op_id, KIND_COMMIT, self._seq)
            with self.tr.span("wal.fsync", parent, op_id):
                self.wal.sync_to(position)
