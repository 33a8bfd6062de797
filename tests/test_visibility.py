"""Snapshot visibility is one emitted fragment, and every reader agrees.

:data:`repro.engine.mvcc.VISIBLE` is inlined into every scan loop and
generates ``Transaction.sees``/``visible``.  The grid below crosses
every version state with own and other transactions, under a pinned and
a fresh snapshot, and checks the fragment, ``sees``, SeqScan rows,
IndexScan equality and range rows, ANALYZE's row count and the
UPDATE/DELETE target rows against the rule as stated.  The other tests
pin what running a Filter/Project inside its scan's loop must keep:
EXPLAIN ANALYZE per-node counts, early exit, one cached plan shared by
many threads while writers commit — and that a closed database is
freed by refcount.
"""

from __future__ import annotations

import gc
import itertools
import re
import sys
import threading
import weakref

import pytest

import repro
from repro.engine.expressions import Env
from repro.engine.mvcc import VISIBLE, Transaction
from repro.engine.parser import parse_expression
from repro.engine.planner import plan_target
from repro.observability import metrics

SNAP = 50
STAMPS = [None, SNAP - 5, SNAP, SNAP + 5]
#: (xmin, begin, xmax, end) of one version each, by whose transaction.
STATES = list(itertools.product(
    ["own", "other"], STAMPS, [None, "own", "other"], STAMPS
))


def rule(xmin, begin, xmax, end):
    """Visibility as docs/TRANSACTIONS.md states it."""
    if xmin != "own" and (begin is None or begin > SNAP):
        return False  # not committed as of the snapshot
    if xmax is None:
        return True
    if xmax == "own":
        return False  # own delete or update claim
    return end is None or end > SNAP


def _scanned():
    return metrics.registry.counter("rows.scanned").value


@pytest.fixture(params=["pinned", "fresh"])
def grid(request):
    """A table holding one version per state (row ``[k, k]`` for state
    ``k``) and a session whose transaction reads it at ``SNAP``."""
    db = repro.Database()
    admin = db.create_session(autocommit=True)
    admin.execute("create table t (k integer, v integer)")
    admin.execute("create index t_k on t (k)")
    table = db.catalog.get_table("t")
    table.rows = [[k, k] for k in range(len(STATES))]
    session = db.create_session()
    txn = session.transaction = Transaction()
    if request.param == "pinned":  # recovery replay pins the snapshot
        db.transactions.restore(SNAP + 100)
        txn.snapshot_seq = SNAP
    else:
        db.transactions.restore(SNAP)
    me = session.mvcc_txn.id
    assert txn.snapshot_seq == SNAP
    ids = {"own": me, "other": me + 1000, None: None}
    for version, (xmin, begin, xmax, end) in zip(table.versions, STATES):
        version.xmin, version.begin = ids[xmin], begin
        version.xmax, version.end = ids[xmax], end
    want = {k for k, state in enumerate(STATES) if rule(*state)}
    assert 0 < len(want) < len(STATES)
    return db, session, table, want


def _keys(result):
    return {row[0] for row in result.rows}


def _explain(session, sql):
    return "\n".join(row[0] for row in session.execute("explain " + sql).rows)


def test_fragment_and_sees_follow_the_rule(grid):
    _db, session, table, want = grid
    txn = session.transaction
    names = {"snap": txn.snapshot_seq, "me": txn.id}
    for k, version in enumerate(table.versions):
        assert eval(VISIBLE, {**names, "v": version}) is (k in want), \
            STATES[k]
        assert txn.sees(version) is (k in want), STATES[k]
    assert [v.row[0] for v in txn.visible(table.versions)] == sorted(want)


def test_scans_analyze_and_dml_targets_agree(grid):
    db, session, table, want = grid
    assert "SeqScan" in _explain(session, "select k from t")
    before = _scanned()
    assert _keys(session.execute("select k from t")) == want
    assert _scanned() - before == len(want)
    assert "Filter" in _explain(session, "select k from t where v >= 0")
    assert _keys(session.execute("select k from t where v >= 0")) == want

    assert "IndexScan" in _explain(session, "select k from t where k = 3")
    probed = {k for k in range(len(STATES))
              if session.execute("select k from t where k = ?", [k]).rows}
    assert probed == want
    ranged = "select k from t where k >= 0 and v >= 0"
    assert "IndexScan" in _explain(session, ranged)
    assert _keys(session.execute(ranged)) == want

    for where in (None, "k >= 0", "k = 7", "v >= 0"):
        access, residual = plan_target(
            table, where and parse_expression(where), session
        )
        got = access.versions(Env((), (), None, session))
        if residual is not None:
            got = [v for v in got
                   if residual(Env(v.row, (), None, session))]
        expected = want if where != "k = 7" else want & {7}
        assert {v.row[0] for v in got} == expected, where

    session.execute("analyze t")
    assert db.catalog.get_statistics("t").row_count == len(want)


# ---------------------------------------------------------------------------
# Filter/Project fused into the scan loop
# ---------------------------------------------------------------------------


@pytest.fixture
def hundred(session):
    session.execute("create table h (k integer, v integer)")
    session.execute("create index h_k on h (k)")
    session.execute_batch(
        "insert into h values (?, ?)", [(k, k % 10) for k in range(100)]
    )
    return session


def _actual_rows(session, sql):
    """(operator, actual rows) of each EXPLAIN ANALYZE plan line."""
    lines = [row[0] for row in session.execute("explain analyze " + sql).rows]
    return [(m.group(1), int(m.group(2))) for m in (
        re.match(r"\s*(\w+).*\(actual rows=(\d+) ", line) for line in lines
    ) if m]


@pytest.mark.parametrize("sql, expected", [
    ("select k from h where v < 3",
     [("Project", 30), ("Filter", 30), ("SeqScan", 100)]),
    ("select k + 1 from h", [("Project", 100), ("SeqScan", 100)]),
    ("select * from h where v = 4",
     [("Project", 10), ("Filter", 10), ("SeqScan", 100)]),
    ("select k from h where k >= 50 and v < 3",
     [("Project", 15), ("Filter", 15), ("IndexScan", 50)]),
    ("select v from h where k = 42", [("Project", 1), ("IndexScan", 1)]),
])
def test_explain_analyze_counts_every_node_of_a_fused_plan(
        hundred, sql, expected):
    assert _actual_rows(hundred, sql) == expected
    # the same plan, run uninstrumented, fused
    assert len(hundred.execute(sql).rows) == expected[0][1]


def test_limit_and_exists_stop_a_fused_scan_early(session):
    session.execute("create table big (k integer, v integer)")
    session.execute_batch(
        "insert into big values (?, ?)", [(k, k) for k in range(10_000)]
    )
    session.execute("create table one (x integer)")
    session.execute("insert into one values (1)")
    before = _scanned()
    assert session.execute(
        "select k from big where v >= 0 limit 1"
    ).rows == [[0]]
    assert _scanned() - before == 2  # Limit pulls one row past its count
    before = _scanned()
    assert session.execute(
        "select x from one where exists (select k from big where v >= 5)"
    ).rows == [[1]]
    assert _scanned() - before == 1 + 6  # one's row, big up to v = 5


def test_one_cached_fused_plan_under_committing_writers(db):
    """Readers share one cached plan per text (a Filter fused into its
    SeqScan, an IndexScan range) while writers commit transfers between
    their own two rows: count and sum never change."""
    admin = db.create_session(autocommit=True)
    admin.execute("create table acct (k integer, v integer)")
    admin.execute("create index acct_k on acct (k)")
    admin.execute_batch(
        "insert into acct values (?, 100)", [[k] for k in range(64)]
    )
    queries = ["select count(*), sum(v) from acct where v > -1000000",
               "select count(*), sum(v) from acct where k >= 0"]
    assert "SeqScan" in _explain(admin, queries[0])
    assert "IndexScan" in _explain(admin, queries[1])
    oracle = [[64, 6400]]
    stop = threading.Event()
    failures = []
    commits = []

    def writer(index):
        own = db.create_session()
        try:
            while not stop.is_set():
                own.execute("update acct set v = v - 1 where k = ?",
                            [2 * index])
                own.execute("update acct set v = v + 1 where k = ?",
                            [2 * index + 1])
                own.commit()
                commits.append(index)
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(exc)
        finally:
            own.close()

    def reader(index):
        own = db.create_session(autocommit=True)
        try:
            for round_ in range(25):
                rows = own.execute(queries[(index + round_) % 2]).rows
                if rows != oracle:
                    failures.append(rows)
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(exc)
        finally:
            own.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    writers = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    readers = [threading.Thread(target=reader, args=(i,)) for i in range(16)]
    try:
        for thread in writers + readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        stop.set()
        for thread in writers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers + readers)
    assert failures == []
    assert commits, "no writer committed"
    assert admin.execute(queries[0]).rows == oracle


# ---------------------------------------------------------------------------
# A closed database holds no reference cycle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("durable", [False, True])
def test_closed_database_is_freed_by_refcount(tmp_path, durable):
    gc.collect()
    gc.disable()
    try:
        db = repro.open_database(str(tmp_path)) if durable \
            else repro.Database()
        session = db.create_session(autocommit=True)
        session.execute("create table t (k integer primary key, v integer)")
        session.execute("insert into t values (1, 10)")
        assert session.execute("select v from t where k = 1").rows == [[10]]
        session.close()
        db.close()
        db.close()  # idempotent
        ref = weakref.ref(db)
        del session, db
        assert ref() is None
    finally:
        gc.enable()
