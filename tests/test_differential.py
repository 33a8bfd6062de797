"""Differential testing: repro engine vs stdlib ``sqlite3``.

The same seeded workloads (SELECT / INSERT / UPDATE / DELETE over the
:class:`repro.testing.WorkloadGenerator` schema) run against both
engines.  After every statement the outcomes must agree:

* query results as **multisets** of rows (order is not part of the
  contract — generated SELECTs carry no ORDER BY);
* update counts for DML;
* error behaviour — a statement both engines reject counts as
  agreement (the taxonomies differ, the accept/reject boundary must
  not);

and at the end of each workload the full table contents must match.

Known, deliberate divergences live in :data:`ALLOWLIST`; an empty entry
list documents that none are currently needed.  Every observed
divergence must match an allowlist entry or the test fails with a
replayable report (seed + statement index + statement text).
"""

from __future__ import annotations

import sqlite3
from typing import Any, List, Optional, Tuple

from repro import errors
from repro import Database
from repro.engine.durability import open_database
from repro.testing import (
    WorkloadGenerator,
    retry_serialization,
    run_concurrent,
)

#: Accepted engine-vs-sqlite divergences: substring of the offending
#: statement -> reason.  Keep this list empty unless a divergence is
#: understood and deliberate; unexplained divergences fail the suite.
ALLOWLIST: List[Tuple[str, str]] = []

SEEDS = (101, 202, 303, 404)
STATEMENTS_PER_SEED = 60  # 4 seeds x 60 = 240 generated statements
SEED_ROWS = 25


def _allowlisted(statement: str) -> Optional[str]:
    for fragment, reason in ALLOWLIST:
        if fragment in statement:
            return reason
    return None


def _normalise(rows: Any) -> List[Tuple[Any, ...]]:
    """Order-insensitive canonical form of a result set."""
    return sorted((tuple(row) for row in rows), key=repr)


class _ReproRunner:
    def __init__(self, seed: int) -> None:
        self.session = Database(name=f"diff{seed}").create_session(
            autocommit=True
        )

    def run(self, statement: str):
        result = self.session.execute(statement)
        if result.is_rowset:
            return ("rows", _normalise(result.rows))
        return ("count", result.update_count)


class _SqliteRunner:
    def __init__(self) -> None:
        self.conn = sqlite3.connect(":memory:")

    def run(self, statement: str):
        cursor = self.conn.execute(statement)
        if cursor.description is not None:
            return ("rows", _normalise(cursor.fetchall()))
        # sqlite reports -1 for statements with no row count (DDL);
        # the repro engine reports 0.  DML is always >= 0 on both, so
        # clamping cannot mask a real DML divergence.
        return ("count", max(cursor.rowcount, 0))


def _run_workload(seed: int, count: int) -> List[str]:
    """Run one generated workload on both engines; return divergences."""
    gen = WorkloadGenerator(seed=seed)
    statements = (
        [gen.ddl()] + gen.seed_statements(SEED_ROWS)
        + gen.statements(count)
    )
    repro = _ReproRunner(seed)
    sqlite = _SqliteRunner()
    divergences: List[str] = []

    for index, statement in enumerate(statements):
        repro_outcome = repro_error = None
        sqlite_outcome = sqlite_error = None
        try:
            repro_outcome = repro.run(statement)
        except errors.SQLException as exc:
            repro_error = exc
        try:
            sqlite_outcome = sqlite.run(statement)
        except sqlite3.Error as exc:
            sqlite_error = exc

        if (repro_error is None) != (sqlite_error is None):
            diverged = (
                f"seed={seed} stmt#{index} accept/reject split "
                f"(repro={repro_error!r}, sqlite={sqlite_error!r}): "
                f"{statement}"
            )
        elif repro_error is not None:
            continue  # both rejected: agreement
        elif repro_outcome != sqlite_outcome:
            diverged = (
                f"seed={seed} stmt#{index} result mismatch "
                f"(repro={repro_outcome!r}, sqlite={sqlite_outcome!r}): "
                f"{statement}"
            )
        else:
            continue
        if _allowlisted(statement) is None:
            divergences.append(diverged)

    final_repro = repro.run(f"SELECT * FROM {gen.table}")
    final_sqlite = sqlite.run(f"SELECT * FROM {gen.table}")
    if final_repro != final_sqlite:
        divergences.append(
            f"seed={seed} final table state mismatch: "
            f"repro={final_repro!r} sqlite={final_sqlite!r}"
        )
    repro.session.close()
    sqlite.conn.close()
    return divergences


class TestDifferential:
    def test_generated_workloads_match_sqlite(self):
        all_divergences: List[str] = []
        for seed in SEEDS:
            all_divergences.extend(
                _run_workload(seed, STATEMENTS_PER_SEED)
            )
        assert not all_divergences, "\n".join(all_divergences)

    def test_workload_is_replayable(self):
        """The differential harness itself is deterministic: the same
        seed generates byte-identical statement streams."""
        first = WorkloadGenerator(seed=SEEDS[0]).statements(50)
        second = WorkloadGenerator(seed=SEEDS[0]).statements(50)
        assert first == second

    def test_indexed_engine_matches_unindexed(self):
        """Repro-vs-repro: secondary indexes are pure access-path
        choices, so the same generated workload (240+ statements across
        4 seeds) must produce identical outcomes — results, update
        counts, and error classes — with and without indexes on every
        workload column."""
        index_ddl = [
            "CREATE INDEX wl_id ON workload (id)",
            "CREATE INDEX wl_grp ON workload (grp)",
            "CREATE INDEX wl_grp_amount ON workload (grp, amount)",
        ]
        divergences: List[str] = []
        for seed in SEEDS:
            gen = WorkloadGenerator(seed=seed)
            statements = (
                [gen.ddl()] + gen.seed_statements(SEED_ROWS)
                + gen.statements(STATEMENTS_PER_SEED)
            )
            plain = _ReproRunner(seed)
            indexed = _ReproRunner(seed)
            for index, statement in enumerate(statements):
                if index == 1:
                    # Table exists now; index half the pair before any
                    # data lands so maintenance runs through the whole
                    # stream.
                    for ddl in index_ddl:
                        indexed.run(ddl)
                try:
                    mine = plain.run(statement)
                except errors.SQLException as exc:
                    mine = ("error", type(exc).__name__)
                try:
                    theirs = indexed.run(statement)
                except errors.SQLException as exc:
                    theirs = ("error", type(exc).__name__)
                if mine != theirs:
                    divergences.append(
                        f"seed={seed} stmt#{index} "
                        f"(plain={mine!r}, indexed={theirs!r}): "
                        f"{statement}"
                    )
            final_plain = plain.run(f"SELECT * FROM {gen.table}")
            final_indexed = indexed.run(f"SELECT * FROM {gen.table}")
            if final_plain != final_indexed:
                divergences.append(
                    f"seed={seed} final state mismatch"
                )
            plain.session.close()
            indexed.session.close()
        assert not divergences, "\n".join(divergences)

    def test_concurrent_history_replays_serially(self, tmp_path):
        """Snapshot-equivalence of concurrent histories: N sessions run
        generated transactions concurrently under MVCC; the WAL then
        holds that history with each statement's snapshot and each
        commit's stamp.  Crash recovery replays it *serially*, and the
        replayed state must be byte-identical to what the concurrent
        execution produced — zero divergences."""
        directory = str(tmp_path / "concdiff")
        db = open_database(
            directory, sync=False, checkpoint_interval=0
        )
        setup = db.create_session("dba", autocommit=True)
        gen = WorkloadGenerator(seed=4242)
        setup.execute(gen.ddl())
        for statement in gen.seed_statements(SEED_ROWS):
            setup.execute(statement)

        def worker(index):
            worker_gen = WorkloadGenerator(seed=5000 + index)
            session = db.create_session("dba", autocommit=False)
            session.lock_timeout = 2.0
            try:
                for _ in range(6):
                    statements = [
                        worker_gen.statement() for _ in range(3)
                    ]

                    def txn():
                        for sql in statements:
                            session.execute(sql)
                        session.commit()

                    retry_serialization(
                        txn, attempts=50, on_failure=session.rollback
                    )
            finally:
                session.close()

        run_concurrent(6, worker, timeout=120.0).raise_first()
        concurrent_state = _normalise(
            setup.execute(f"SELECT * FROM {gen.table}").rows
        )
        setup.close()
        # Crash without a checkpoint: the WAL still holds the entire
        # concurrent history for recovery to replay serially.
        db.durability.close(checkpoint=False)

        replayed = open_database(directory)
        try:
            check = replayed.create_session("dba", autocommit=True)
            replayed_state = _normalise(
                check.execute(f"SELECT * FROM {gen.table}").rows
            )
            assert replayed_state == concurrent_state
            for table in replayed.catalog.tables.values():
                for index_ in table.indexes:
                    index_.verify_against_heap()
            check.close()
        finally:
            replayed.close()

    def test_update_heavy_workload_matches(self):
        """A dedicated update/delete-heavy stream (skewed away from the
        select-heavy default mix) still agrees on final state."""
        seed = 777
        gen = WorkloadGenerator(seed=seed)
        repro = _ReproRunner(seed)
        sqlite = _SqliteRunner()
        repro.run(gen.ddl())
        sqlite.run(gen.ddl())
        for statement in gen.seed_statements(30):
            repro.run(statement)
            sqlite.run(statement)
        divergences = []
        for index in range(60):
            statement = (
                gen.update() if index % 3 else gen.delete()
            )
            if index % 7 == 0:
                statement = gen.insert()
            try:
                mine = repro.run(statement)
            except errors.SQLException as exc:
                mine = ("error", type(exc).__name__)
            try:
                theirs = sqlite.run(statement)
            except sqlite3.Error:
                theirs = ("error", "sqlite")
            both_errored = mine[0] == "error" and theirs[0] == "error"
            if mine != theirs and not both_errored:
                divergences.append(f"stmt#{index}: {statement}")
        assert repro.run(f"SELECT * FROM {gen.table}") == sqlite.run(
            f"SELECT * FROM {gen.table}"
        )
        assert not divergences, "\n".join(divergences)
        repro.session.close()
        sqlite.conn.close()
