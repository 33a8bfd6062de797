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
freed by refcount.  The frozen-block tests pin the all-visible map: a
settled heap puts at most one block's versions to the test, every
reader agrees on frozen, claimed (open, committed, rolled back),
shifted, vacuum-rewritten and ALTERed heaps, nothing freezes past an
open snapshot or during replay.
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
from repro.engine.executor import LOOP_RUNTIME, target_loop
from repro.engine.expressions import Env, fresh, generate
from repro.engine.mvcc import BLOCK, VISIBLE, RowVersion, Transaction, \
    settled_runs
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


def _targets(table, where, session):
    """The versions an UPDATE or DELETE of ``table`` under ``where``
    (SQL text or None) would claim in ``session``: the target loop its
    generated function inlines (:func:`target_loop` over the planner's
    access path and residual), run alone."""
    access, residual = plan_target(
        table, where and parse_expression(where), session
    )
    fragments = []
    name, scan = fresh(), fresh()
    body = target_loop(scan, access, fragments, residual)
    bindings = {scan: access}
    for fragment in fragments:
        bindings.update(fragment.bindings)
    source = (f"def {name}(session):\n"
              "    c = Env((), (), None, session)\n"
              "    txn = session.mvcc_txn\n    snap = txn.snapshot_seq\n"
              f"    me = txn.id\n{body}    return ts\n")
    return generate(source, bindings, {**LOOP_RUNTIME, "Env": Env})[name](
        session)


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
        got = _targets(table, where, session)
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
    _early_exit(session, analyze=False)


def test_limit_and_exists_stop_a_frozen_scan_early(session):
    _early_exit(session, analyze=True)


def _early_exit(session, analyze):
    session.execute("create table big (k integer, v integer)")
    session.execute_batch(
        "insert into big values (?, ?)", [(k, k) for k in range(10_000)]
    )
    session.execute("create table one (x integer)")
    session.execute("insert into one values (1)")
    if analyze:  # every full block of big frozen
        frozen = _counter("mvcc.blocks_frozen")
        session.execute("analyze")
        assert _counter("mvcc.blocks_frozen") - frozen == 10_000 // BLOCK
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
    _readers_under_writers(db, rows=64, freezer=False)


def test_one_cached_fused_plan_while_writers_thaw_frozen_blocks(db):
    """The same, over three frozen blocks: every writer claims rows of
    the first, and a freezer thread keeps re-freezing (ANALYZE, vacuum)
    whatever the claims thawed."""
    thawed = _counter("mvcc.blocks_thawed")
    _readers_under_writers(db, rows=3 * BLOCK, freezer=True)
    assert _counter("mvcc.blocks_thawed") > thawed


def _readers_under_writers(db, rows, freezer):
    admin = db.create_session(autocommit=True)
    admin.execute("create table acct (k integer, v integer)")
    admin.execute("create index acct_k on acct (k)")
    admin.execute_batch(
        "insert into acct values (?, 100)", [[k] for k in range(rows)]
    )
    # Transfers stay within a writer's pair, rows 0-7: count and sum of
    # the table, and of the pairs' range, never change.
    queries = ["select count(*), sum(v) from acct where v > -1000000",
               "select count(*), sum(v) from acct where k >= 0"]
    oracles = [[[rows, 100 * rows]], [[rows, 100 * rows]]]
    if freezer:
        admin.execute("analyze")
        queries[1] = "select count(*), sum(v) from acct where k < 8"
        oracles[1] = [[8, 800]]
    assert "SeqScan" in _explain(admin, queries[0])
    assert "IndexScan" in _explain(admin, queries[1])
    stop = threading.Event()
    failures = []
    commits = []

    def refreeze():
        own = db.create_session(autocommit=True)
        try:
            while not stop.is_set():
                own.execute("analyze acct")
                db.vacuum()
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(exc)
        finally:
            own.close()

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
                which = (index + round_) % 2
                got = own.execute(queries[which]).rows
                if got != oracles[which]:
                    failures.append(got)
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(exc)
        finally:
            own.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    writers = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    if freezer:
        writers.append(threading.Thread(target=refreeze))
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
    assert admin.execute(queries[0]).rows == oracles[0]


# ---------------------------------------------------------------------------
# Frozen blocks: scans skip the test only where every snapshot sees all
# ---------------------------------------------------------------------------


def _counter(name):
    return metrics.registry.counter(name).value


_BEGIN = RowVersion.begin


class _Counted(RowVersion):
    """A version noting in :attr:`tested` that its ``begin`` — the
    snapshot test's first read — was read."""

    __slots__ = ()
    tested: set = set()

    @property
    def begin(self):
        _Counted.tested.add(id(self))
        return _BEGIN.__get__(self)

    @begin.setter
    def begin(self, value):
        _BEGIN.__set__(self, value)


def _tested(table, run):
    """How many of ``table``'s versions ``run()`` puts to the test."""
    for version in table.versions:
        version.__class__ = _Counted
    _Counted.tested.clear()
    try:
        run()
        return len(_Counted.tested)
    finally:
        for version in table.versions:
            version.__class__ = RowVersion


def test_a_settled_heap_skips_the_snapshot_test(db, session):
    session.execute("create table big (k integer, v integer)")
    session.execute_batch(
        "insert into big values (?, ?)", [(k, k) for k in range(10_000)]
    )
    table = db.catalog.get_table("big")
    count = "select count(*) from big where v >= 0"

    def counts(n):
        return lambda: session.execute(count).rows == [[n]] or 1 / 0

    assert _tested(table, counts(10_000)) == 10_000
    frozen = _counter("mvcc.blocks_frozen")
    session.execute("analyze big")
    assert _counter("mvcc.blocks_frozen") - frozen == 10_000 // BLOCK
    tail = 10_000 % BLOCK
    assert _tested(table, counts(10_000)) == tail <= BLOCK
    thawed = _counter("mvcc.blocks_thawed")
    session.execute("update big set v = -1 where k = 5000")
    assert _counter("mvcc.blocks_thawed") - thawed == 1
    # the claimed version's block, the tail and the new version
    assert _tested(table, counts(9_999)) == BLOCK + tail + 1
    session.execute("analyze big")  # its dead version keeps it thawed
    assert _tested(table, counts(9_999)) == BLOCK + tail + 1
    assert db.vacuum() == 1  # which shifts, then re-freezes, the rest
    assert _tested(table, counts(9_999)) == tail


ROWS = 3 * BLOCK + 10

#: The readers each scenario checks: SQL and the keys it must return,
#: given the reader's visible keys (a sorted multiset).
READS = [
    ("select k from t", sorted),
    ("select k from t where v > -1000000", sorted),
    ("select a.k from t a join t b on a.k = b.k and a.v = b.v", sorted),
    ("select k from t order by v desc, k limit 5",
     lambda keys: sorted(keys, reverse=True)[:5]),
    ("select k from t order by k limit 7 offset 300",
     lambda keys: keys[300:307]),
    ("select count(*) from t where v > -1000000",
     lambda keys: [len(keys)]),
]


@pytest.fixture
def frozen_t(db):
    """Table ``t`` of three frozen blocks and a 10-row tail, ``v = k``."""
    admin = db.create_session(autocommit=True)
    admin.execute("create table t (k integer, v integer)")
    admin.execute("create index t_k on t (k)")
    admin.execute_batch("insert into t values (?, ?)",
                        [(k, k) for k in range(ROWS)])
    frozen = _counter("mvcc.blocks_frozen")
    admin.execute("analyze t")
    assert _counter("mvcc.blocks_frozen") - frozen == 3
    return admin, db.catalog.get_table("t")


def _agrees(reader, table, keys):
    """Every reader of ``reader``'s snapshot returns ``keys``: SeqScan,
    a fused Filter, a hash join's build and probe sides, top-N, OFFSET,
    a fused aggregate, the DML target path and the full test."""
    keys = sorted(keys)
    for sql, want in READS:
        got = [row[0] for row in reader.execute(sql).rows]
        assert (sorted(got) if want is sorted else got) == want(keys), sql
    got = _targets(table, None, reader)
    assert sorted(v.row[0] for v in got) == keys
    txn = reader.mvcc_txn
    assert sorted(v.row[0] for v in txn.visible(table.versions)) == keys


def test_frozen_blocks_are_seen_by_every_reader(db, frozen_t):
    _admin, table = frozen_t
    _agrees(db.create_session(autocommit=True), table, range(ROWS))


@pytest.mark.parametrize("claim", ["update", "delete"])
@pytest.mark.parametrize("ending", ["open", "commit", "rollback"])
def test_a_claim_thaws_its_block(db, frozen_t, claim, ending):
    admin, table = frozen_t
    before = db.create_session()  # snapshot before the claim
    _agrees(before, table, range(ROWS))
    writer = db.create_session()
    thawed = _counter("mvcc.blocks_thawed")
    if claim == "update":
        writer.execute("update t set v = -v where k in (300, 301)")
    else:
        writer.execute("delete from t where k in (300, 301)")
    assert _counter("mvcc.blocks_thawed") - thawed == 1  # both in block 1
    everything = list(range(ROWS))
    claimed = everything if claim == "update" \
        else [k for k in everything if k not in (300, 301)]
    _agrees(writer, table, claimed)  # its own claims, in a thawed block
    if ending == "commit":
        writer.commit()
    elif ending == "rollback":
        writer.rollback()
    after = db.create_session(autocommit=True)
    _agrees(after, table, claimed if ending == "commit" else everything)
    _agrees(before, table, everything)
    before.commit()
    if ending == "open":
        writer.rollback()
    admin.execute("analyze t")  # re-freeze what the claim thawed
    _agrees(after, table, claimed if ending == "commit" else everything)


def test_nothing_freezes_past_an_open_snapshot(db, frozen_t):
    admin, table = frozen_t
    reader = db.create_session()
    _agrees(reader, table, range(ROWS))
    admin.execute_batch("insert into t values (?, ?)",
                        [(k, k) for k in range(ROWS, ROWS + 300)])
    frozen = _counter("mvcc.blocks_frozen")
    admin.execute("analyze t")  # block 3 is full, but the reader is older
    assert _counter("mvcc.blocks_frozen") == frozen
    _agrees(reader, table, range(ROWS))
    reader.commit()
    admin.execute("analyze t")
    assert _counter("mvcc.blocks_frozen") - frozen == 1
    _agrees(reader, table, range(ROWS + 300))


def test_a_rolled_back_insert_shifts_the_tail(db, frozen_t):
    admin, table = frozen_t
    loser = db.create_session()
    loser.execute_batch("insert into t values (?, ?)",
                        [(k, k) for k in range(5000, 5005)])
    admin.execute_batch("insert into t values (?, ?)",
                        [(k, k) for k in range(ROWS, ROWS + 300)])
    admin.execute("analyze t")
    loser.rollback()  # the tail after the loser's rows moves down
    want = list(range(ROWS + 300))
    _agrees(db.create_session(autocommit=True), table, want)
    frozen = _counter("mvcc.blocks_frozen")
    admin.execute("analyze t")
    assert _counter("mvcc.blocks_frozen") - frozen == 1  # block 3
    _agrees(db.create_session(autocommit=True), table, want)


@pytest.mark.parametrize("deleted", [
    [5, 260, 600],
    # New block 0 is rows 0, 256 and 258-511: in the old copy, positions
    # 256-511 run from its second row to its last, around a dead one.
    [*range(1, 256), 257],
])
def test_a_vacuum_rewritten_heap(db, frozen_t, deleted):
    admin, table = frozen_t
    admin.execute_batch("delete from t where k = ?", [[k] for k in deleted])
    old = list(table.versions)  # a scan's copy from before the rewrite
    assert db.vacuum() == len(deleted)
    # The rewrite moved blocks; vacuum re-froze every full one.
    left = ROWS - len(deleted)
    assert [(stop, frozen) for stop, frozen, _ in
            settled_runs(table.versions)] == \
        [(at, True) for at in range(BLOCK, left + 1, BLOCK)] + [(left, False)]
    # Against the old copy, no frozen run may cover a deleted version.
    at = 0
    for stop, frozen, items in settled_runs(old):
        if frozen:
            assert all(v.end is None for v in old[at:stop])
            assert items == [v.row for v in old[at:stop]]
        at = stop
    _agrees(db.create_session(autocommit=True), table,
            [k for k in range(ROWS) if k not in deleted])


def test_no_stale_block_keeps_dead_rows(db, frozen_t):
    """After a rewrite, versions whose block cannot freeze again (an open
    claim sits in it) let go of their old block, which holds the rows of
    the versions vacuum removed."""
    admin, table = frozen_t
    admin.execute("delete from t where k < 10")
    dead = {id(v.row) for v in table.versions if v.row[0] < 10}
    writer = db.create_session()
    writer.execute("update t set v = -v where k = 100")
    assert db.vacuum() == 10
    held = {id(row) for v in table.versions if v.block is not None
            for row in v.block.rows}
    assert not held & dead
    writer.rollback()
    _agrees(db.create_session(autocommit=True), table, range(10, ROWS))


def test_alter_table_reaches_frozen_rows(db, frozen_t):
    """A frozen block's scan reads the row lists ALTER TABLE edits."""
    admin, table = frozen_t
    admin.execute("alter table t add column w integer default 7")
    rows = admin.execute("select k, w from t where v >= 0").rows
    assert sorted(rows) == [[k, 7] for k in range(ROWS)]
    admin.execute("alter table t drop column w")
    assert admin.execute("select * from t where k = 300 or k = 0").rows \
        == [[0, 0], [300, 300]]
    _agrees(db.create_session(autocommit=True), table, range(ROWS))


def test_replay_freezes_nothing_below_a_pinned_snapshot(tmp_path, monkeypatch):
    """Recovery replays a statement on the snapshot it logged, below the
    horizon; a vacuum started by replay's own commits must not freeze
    the rows that snapshot cannot see."""
    monkeypatch.setattr(repro.Database, "_maybe_vacuum",
                        repro.Database.vacuum)  # after every commit
    directory = str(tmp_path)
    db = repro.open_database(directory, checkpoint_interval=0)
    admin = db.create_session(autocommit=True)
    admin.execute("create table t (k integer)")
    admin.execute("create table seen (n integer)")
    old = db.create_session()
    assert old.execute("select count(*) from t").rows == [[0]]
    admin.execute_batch("insert into t values (?)",
                        [[k] for k in range(BLOCK + 44)])
    old.execute("insert into seen select count(*) from t")  # logs its snapshot
    old.commit()
    db.lsm_store.close()  # crash: no checkpoint, the WAL replays
    del db, admin, old
    again = repro.open_database(directory, checkpoint_interval=0)
    try:
        check = again.create_session(autocommit=True)
        assert check.execute("select n from seen").rows == [[0]]
        assert check.execute("select count(*) from t").rows == [[BLOCK + 44]]
    finally:
        again.close()


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


# ---------------------------------------------------------------------------
# A hot unique key: the probe cuts its bucket at the newest visible
# version another transaction wrote
# ---------------------------------------------------------------------------


def test_a_hot_unique_key_tests_only_its_newest_version():
    """Of the versions of a UNIQUE or PRIMARY KEY value that other
    transactions wrote, at most one is visible to a snapshot, so an
    equality probe of its single-column index walks the bucket
    newest-first and cuts it at the first such version it sees.  900
    updates of one key leave 901 versions in its bucket (each table has
    a database of its own, so no vacuum runs): the point read and the
    keyed UPDATE test at most two, a twin without the constraint tests
    them all, and the two tables answer alike, with the same rows
    scanned and EXPLAIN ANALYZE counts."""
    sessions = {}
    for name, key in (("t", "k integer primary key"), ("twin", "k integer")):
        db = repro.Database()
        session = sessions[name] = db.create_session(autocommit=True)
        session.execute(f"create table {name} ({key}, v integer)")
        session.execute(f"create index {name}_k on {name} (k)")
        session.execute_batch(
            f"insert into {name} values (?, ?)", [(k, k) for k in range(1000)]
        )
        for _ in range(900):
            session.execute(f"update {name} set v = v + 1 where k = 5")
    read = "select k, v from {} where k = ?"
    answers = {}
    for name, at_most in (("t", 2), ("twin", 901)):
        session = sessions[name]
        table = session.catalog.get_table(name)
        assert len(table.versions) == 1900
        scanned = _scanned()
        assert _tested(table, lambda: answers.setdefault(
            name, session.execute(read.format(name), [5]).rows
        )) <= at_most
        assert _scanned() - scanned == 1
        assert _tested(table, lambda: session.execute(
            f"update {name} set v = v + 1 where k = ?", [5]
        )) <= at_most
    assert answers["t"] == answers["twin"] == [[5, 905]]
    assert _actual_rows(sessions["t"], read.format("t").replace("?", "5")) \
        == _actual_rows(
            sessions["twin"], read.format("twin").replace("?", "5"))
    # A transaction's own replacement is the version it sees; others
    # still see the committed one.
    writer = sessions["t"].database.create_session()
    writer.execute("update t set v = -1 where k = 5")
    assert writer.execute(read.format("t"), [5]).rows == [[5, -1]]
    assert sessions["t"].execute(read.format("t"), [5]).rows == [[5, 906]]
    writer.rollback()
    for name in ("t", "twin"):
        answers[name] = sessions[name].execute(
            f"select k, v from {name}").rows
    assert sorted(answers["t"]) == sorted(answers["twin"])


@pytest.mark.parametrize("change", [
    "delete from {} where k = 5", "update {} set k = 50 where k = 5",
])
def test_an_own_insert_of_a_key_gone_after_the_snapshot(change):
    """Under a pinned snapshot a transaction still sees a key that
    another transaction deleted (or re-keyed) and committed after the
    snapshot, and may insert the key again: it then sees two versions of
    it, the committed one and its own.  The probe of the PRIMARY KEY's
    index returns both, as a SeqScan and an index on a twin without the
    constraint do, and a keyed UPDATE claims the deleted version and
    fails with 40001, as on the twin."""
    db = repro.Database()
    admin = db.create_session(autocommit=True)
    for name, key in (("t", "k integer primary key"), ("twin", "k integer")):
        admin.execute(f"create table {name} ({key}, v integer)")
        admin.execute(f"create index {name}_k on {name} (k)")
        admin.execute_batch(f"insert into {name} values (?, ?)",
                            [(k, k) for k in range(10)])
    reader = db.create_session()
    assert reader.execute("select count(*) from t").rows == [[10]]
    for name in ("t", "twin"):
        admin.execute(change.format(name))
        reader.execute(f"insert into {name} values (5, 500)")
    both = [[5, 5], [5, 500]]
    for sql, path in (("select k, v from {} where k = 5", "IndexScan"),
                      ("select k, v from {} where k + 0 = 5", "SeqScan")):
        for name in ("t", "twin"):
            assert path in _explain(reader, sql.format(name))
            assert sorted(reader.execute(sql.format(name)).rows) == both, \
                (sql, name)
    for name in ("t", "twin"):
        reader.execute("savepoint before_update")
        with pytest.raises(repro.errors.SerializationFailureError):
            reader.execute(f"update {name} set v = v + 1 where k = 5")
        reader.execute("rollback to savepoint before_update")
    reader.rollback()
