"""Engine-level plan cache: hits, invalidation, and concurrency.

``Session.execute`` and ``execute_batch`` cache compiled plans for
queries, set operations and INSERT/UPDATE/DELETE keyed by ``(sql,
dialect, user)``; every catalog mutation (DDL, GRANT/REVOKE) bumps
``Catalog.version`` and ANALYZE bumps ``stats_version``, invalidating
stale entries.  These tests pin the cache's observable contract:
repeated statements hit, schema changes and fresh statistics replan,
revoked users cannot ride a cached plan past a privilege check, and
concurrent DDL never produces wrong answers.
"""

from __future__ import annotations

import pytest

from repro import errors, observability
from repro.engine.plancache import CachedPlan, PlanCache
from repro.testing import run_concurrent


def _counter(name):
    return observability.snapshot()["counters"].get(name, 0)


def _explain(session, sql):
    return "\n".join(
        row[0] for row in session.execute("explain " + sql).rows
    )


def _entry(tag, version):
    return CachedPlan(None, tag, None, version)


class TestPlanCacheUnit:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put(("a", "std", "dba"), _entry("A", 1))
        cache.put(("b", "std", "dba"), _entry("B", 1))
        assert cache.get(("a", "std", "dba"), 1).plan == "A"
        cache.put(("c", "std", "dba"), _entry("C", 1))
        assert len(cache) == 2
        # b was least recently used (a was touched by get) — evicted.
        assert cache.get(("b", "std", "dba"), 1) is None
        assert cache.get(("c", "std", "dba"), 1).plan == "C"

    def test_stale_version_evicts(self):
        cache = PlanCache()
        cache.put(("q", "std", "dba"), _entry("plan", 7))
        assert cache.get(("q", "std", "dba"), 8) is None
        assert len(cache) == 0

    def test_clear(self):
        cache = PlanCache()
        cache.put(("q", "std", "dba"), _entry("plan", 1))
        cache.clear()
        assert len(cache) == 0


class TestPlanCacheHits:
    def test_repeated_select_hits(self, emps):
        emps.execute("select name from emps where sales > 100")
        before = _counter("plan_cache.hits")
        for _ in range(5):
            rows = emps.execute(
                "select name from emps where sales > 100"
            ).rows
        assert _counter("plan_cache.hits") == before + 5
        assert rows  # cached plan still returns the data

    def test_different_sql_misses(self, emps):
        before = _counter("plan_cache.misses")
        emps.execute("select name from emps")
        emps.execute("select sales from emps")
        assert _counter("plan_cache.misses") >= before + 2

    def test_parameters_reuse_one_plan(self, emps):
        emps.execute("select name from emps where sales > ?", (0,))
        before = _counter("plan_cache.hits")
        first = emps.execute(
            "select name from emps where sales > ?", (100,)
        ).rows
        second = emps.execute(
            "select name from emps where sales > ?", (99999,)
        ).rows
        assert _counter("plan_cache.hits") == before + 2
        assert first != second  # parameters still applied per execution

    def test_distinct_users_cached_separately(self, db, emps):
        emps.execute("grant select on emps to smith")
        smith = db.create_session(user="smith", autocommit=True)
        emps.execute("select name from emps")
        before = _counter("plan_cache.hits")
        smith.execute("select name from emps")
        # Different user: no hit on dba's entry.
        assert _counter("plan_cache.hits") == before

    def test_commands_not_cached(self, session):
        before = _counter("plan_cache.misses")
        session.execute("create table nq (k integer)")
        session.execute("commit")
        session.execute("commit")
        assert _counter("plan_cache.misses") == before
        assert len(session.database.plan_cache) == 0


class TestInvalidation:
    def test_create_index_changes_cached_plan(self, session):
        session.execute("create table t (k integer)")
        for i in range(20):
            session.execute(f"insert into t values ({i})")
        sql = "select * from t where k = 5"
        session.execute(sql)  # populate the cache with a SeqScan plan
        session.execute("create index tk on t (k)")
        assert "IndexScan using tk on t" in _explain(session, sql)
        assert session.execute(sql).rows == [[5]]

    def test_drop_index_changes_cached_plan(self, session):
        session.execute("create table t (k integer)")
        session.execute("insert into t values (5)")
        session.execute("create index tk on t (k)")
        sql = "select * from t where k = 5"
        assert session.execute(sql).rows == [[5]]
        session.execute("drop index tk")
        assert "IndexScan" not in _explain(session, sql)
        assert session.execute(sql).rows == [[5]]

    def test_alter_table_invalidates(self, session):
        session.execute("create table t (k integer)")
        session.execute("insert into t values (1)")
        assert session.execute("select * from t").rows == [[1]]
        session.execute("alter table t add column v varchar(5)")
        # The cached plan predates the new column; a hit would return
        # one-column rows.
        assert session.execute("select * from t").rows == [[1, None]]

    def test_drop_table_invalidates(self, session):
        session.execute("create table t (k integer)")
        session.execute("select * from t")
        session.execute("drop table t")
        with pytest.raises(errors.UndefinedTableError):
            session.execute("select * from t")

    def test_revoke_invalidates(self, db, emps):
        emps.execute("grant select on emps to smith")
        smith = db.create_session(user="smith", autocommit=True)
        assert smith.execute("select name from emps").rows
        emps.execute("revoke select on emps from smith")
        # The cached plan must not let smith bypass the privilege check.
        with pytest.raises(errors.PrivilegeError):
            smith.execute("select name from emps")

    def test_prepared_statement_replans_after_ddl(self, session):
        session.execute("create table t (k integer)")
        session.execute("insert into t values (1)")
        prepared = session.prepare("select * from t")
        assert prepared.execute().rows == [[1]]
        session.execute("alter table t add column v varchar(5)")
        assert prepared.execute().rows == [[1, None]]


def _statement_stats(session, prefix):
    """(calls, plan_cache_hits, rows_scanned) of the one statement whose
    normalized text starts with ``prefix``."""
    [row] = session.execute(
        "select calls, plan_cache_hits, rows_scanned "
        "from repro_stats.statements "
        f"where statement like '{prefix}%'"
    ).rows
    return tuple(row)


class TestDmlPlans:
    """DML texts are compiled once and cached like queries, and the
    same envelope revalidates them."""

    UPDATE = "update big set v = v + 1 where k = ?"

    @pytest.fixture
    def big(self, session):
        session.execute("create table big (k integer primary key, v integer)")
        session.execute_batch(
            "insert into big values (?, 0)", [[k] for k in range(10_000)]
        )
        return session

    def test_repeated_dml_hits(self, big):
        for k in range(5):
            assert big.execute(self.UPDATE, [k]).update_count == 1
        calls, hits, _scanned = _statement_stats(big, "UPDATE big")
        assert (calls, hits) == (5, 4)

    def test_batch_of_a_cached_text_hits(self, big):
        big.execute(self.UPDATE, [1])
        before = _counter("plan_cache.hits")
        assert big.execute_batch(self.UPDATE, [[2], [3]]) == [1, 1]
        assert _counter("plan_cache.hits") == before + 1
        assert big.execute("select v from big where k < 4").rows == [
            [0], [1], [1], [1]
        ]

    def test_create_index_switches_access_path(self, big):
        big.execute(self.UPDATE, [1])
        assert _statement_stats(big, "UPDATE big")[2] == 10_000
        big.execute("create index big_k on big (k)")
        big.execute(self.UPDATE, [2])
        calls, hits, scanned = _statement_stats(big, "UPDATE big")
        assert (calls, hits, scanned) == (2, 0, 10_001)

    def test_analyze_recosts(self, big):
        """Without statistics an index probe always wins; once ANALYZE
        shows every row matching, the recompiled plan scans instead."""
        sql = "update big set v = v + 1 where v = ?"
        big.execute("create index big_v on big (v)")
        lookups = _counter("index.lookups")
        assert big.execute(sql, [0]).update_count == 10_000
        assert _counter("index.lookups") == lookups + 1
        big.execute("analyze big")
        lookups = _counter("index.lookups")
        assert big.execute(sql, [1]).update_count == 10_000
        assert _counter("index.lookups") == lookups
        assert _statement_stats(big, "UPDATE big")[:2] == (2, 0)

    def test_revoke_reaches_cached_dml(self, db, session):
        session.execute("create table t (k integer)")
        session.execute("insert into t values (1)")
        session.execute("grant update on t to smith")
        smith = db.create_session(user="smith", autocommit=True)
        sql = "update t set k = k + 1"
        assert smith.execute(sql).update_count == 1
        assert smith.execute(sql).update_count == 1  # a cache hit
        session.execute("revoke update on t from smith")
        with pytest.raises(errors.PrivilegeError) as info:
            smith.execute(sql)
        assert info.value.sqlstate == "42501"

    def test_add_column_changes_cached_insert(self, session):
        session.execute("create table t (k integer)")
        sql = "insert into t values (?, ?)"
        with pytest.raises(errors.SQLSyntaxError):
            session.execute(sql, [1, "a"])
        session.execute("insert into t values (?)", [1])
        session.execute("alter table t add column v varchar(5)")
        assert session.execute(sql, [2, "b"]).update_count == 1
        with pytest.raises(errors.SQLSyntaxError):
            session.execute("insert into t values (?)", [3])
        assert session.execute("select k, v from t order by k").rows == [
            [1, None], [2, "b"]
        ]


class TestConcurrency:
    def test_execute_races_ddl(self, db):
        session = db.create_session(autocommit=True)
        session.execute("create table t (k integer)")
        for i in range(50):
            session.execute(f"insert into t values ({i})")

        def reader(thread_index):
            local = db.create_session(autocommit=True)
            for _ in range(20):
                rows = local.execute(
                    "select k from t where k < 10"
                ).rows
                assert len(rows) == 10

        def ddl(thread_index):
            local = db.create_session(autocommit=True)
            for i in range(10):
                local.execute(
                    f"create index cix{thread_index}_{i} on t (k)"
                )
                local.execute(f"drop index cix{thread_index}_{i}")

        def worker(thread_index):
            if thread_index % 2:
                ddl(thread_index)
            else:
                reader(thread_index)

        run_concurrent(6, worker, timeout=60).raise_first()

    def test_concurrent_hits_are_exact(self, db):
        session = db.create_session(autocommit=True)
        session.execute("create table t (k integer)")
        session.execute("insert into t values (1)")
        session.execute("select k from t")  # prime the cache
        before = _counter("plan_cache.hits")

        def worker(thread_index):
            local = db.create_session(autocommit=True)
            for _ in range(25):
                assert local.execute("select k from t").rows == [[1]]

        run_concurrent(4, worker).raise_first()
        assert _counter("plan_cache.hits") == before + 100


class TestTracingIntegration:
    def test_cache_hit_trace_shape(self, emps):
        import io

        from repro.observability import tracing

        emps.execute("select name from emps")  # prime the cache
        try:
            tracer = tracing.enable_tracing("json", io.StringIO())
            emps.execute("select name from emps")
        finally:
            tracing.disable_tracing()
        root = tracer.finished[-1]
        assert root.name == "statement"
        assert root.attributes.get("cached") is True
        names = [span.name for span, _depth in root.walk()]
        # No parse/plan work on a hit — straight to execution.
        assert names == ["statement", "execute", "fetch"]

    def test_cache_miss_trace_shape_unchanged(self, emps):
        import io

        from repro.observability import tracing

        try:
            tracer = tracing.enable_tracing("json", io.StringIO())
            emps.execute("select id from emps")
        finally:
            tracing.disable_tracing()
        root = tracer.finished[-1]
        names = [span.name for span, _depth in root.walk()]
        assert names == ["statement", "parse", "plan", "execute", "fetch"]
