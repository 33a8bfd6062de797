"""Cost-based planner: ANALYZE statistics, plan choice, introspection.

Covers the cost-based planner end to end: the statistics collector
(row counts, NDV, null fractions, histograms), the seqscan-vs-indexscan
crossover, hash-join build-side choice, greedy reordering of 3+ table
joins, plan-cache invalidation on ANALYZE (via the statistics version),
the typed ``PlanNode`` tree returned by ``Session.explain`` /
``Connection.explain`` / ``RemoteSession.explain``, the
``EXPLAIN (FORMAT JSON)`` wire format, the ``repro_stats.statistics``
view, and durability of statistics across checkpoint restore and WAL
crash recovery.  A differential battery asserts the cost-based planner
returns row-identical results to an identically seeded database that is
never ANALYZEd (the plans the planner makes without statistics) on a
generated workload corpus.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import Database, errors
from repro.engine.explain import PlanNode, format_plan_tree
from repro.engine.statistics import (
    ColumnStatistics,
    collect_table_statistics,
)
from repro.server import ReproServer
from repro.testing import WorkloadGenerator


@pytest.fixture
def session():
    return Database(name="costdb").create_session(autocommit=True)


def _seed(session, *, rows=1000, groups=10, analyze=True):
    session.execute(
        "create table emps (id int, dept int, sal int)"
    )
    session.execute("create index emps_dept on emps (dept)")
    session.execute_batch(
        "insert into emps values (?, ?, ?)",
        [(i, i % groups, i * 3) for i in range(rows)],
    )
    if analyze:
        session.execute("analyze emps")


def _star(session, *, dim1=600, dim2=500, fact=4000, analyze=True):
    session.execute("create table dim1 (id int, name varchar(16))")
    session.execute("create table dim2 (id int, name varchar(16))")
    session.execute("create table fact (id int, d1 int, d2 int)")
    session.execute_batch(
        "insert into dim1 values (?, ?)",
        [(i, f"a{i}") for i in range(dim1)],
    )
    session.execute_batch(
        "insert into dim2 values (?, ?)",
        [(i, f"b{i}") for i in range(dim2)],
    )
    session.execute_batch(
        "insert into fact values (?, ?, ?)",
        [(i, i % dim1, i % dim2) for i in range(fact)],
    )
    if analyze:
        session.execute("analyze")


STAR_SQL = (
    "select dim1.name, dim2.name, fact.id "
    "from dim1, dim2, fact "
    "where fact.d1 = dim1.id and fact.d2 = dim2.id"
)


def _without_stats(build, **sizes):
    """A twin seeded by ``build`` but never ANALYZEd: no statistics, so
    its planner takes any index, builds on the right, keeps FROM order."""
    twin = Database(name="nostats").create_session(autocommit=True)
    build(twin, analyze=False, **sizes)
    return twin


# ---------------------------------------------------------------------------
# statistics collector
# ---------------------------------------------------------------------------


class TestStatisticsCollector:
    def test_row_count_ndv_nulls(self):
        class T:
            name = "t"
            columns = [type("C", (), {"name": "a"}),
                       type("C", (), {"name": "b"})]

        rows = [[i % 5, None if i % 4 == 0 else "x"] for i in range(100)]
        stats = collect_table_statistics(T(), rows, version=3)
        assert stats.row_count == 100 and stats.version == 3
        a = stats.column("a")
        assert a.ndv == 5 and a.null_fraction == 0.0
        assert a.min_value == 0 and a.max_value == 4
        b = stats.column("b")
        assert b.ndv == 1 and b.null_fraction == 0.25

    def test_eq_selectivity(self):
        column = ColumnStatistics(
            name="c", ndv=10, null_fraction=0.5,
            min_value=0, max_value=9,
        )
        # Half the rows are NULL (never equal), spread over 10 values.
        assert column.eq_selectivity() == pytest.approx(0.05)

    def test_range_selectivity_uses_histogram(self):
        class T:
            name = "t"
            columns = [type("C", (), {"name": "a"})]

        stats = collect_table_statistics(T(), [[i] for i in range(1000)])
        column = stats.column("a")
        sel = column.range_selectivity("<", 250)
        assert 0.15 < sel < 0.35
        sel = column.range_selectivity(">", 900)
        assert sel < 0.2

    def test_analyze_statement_populates_catalog(self, session):
        _seed(session)
        stats = session.catalog.get_statistics("emps")
        assert stats.row_count == 1000
        assert stats.column("dept").ndv == 10
        assert session.catalog.stats_version >= 1

    def test_analyze_unknown_table_rejected(self, session):
        with pytest.raises(errors.SQLException):
            session.execute("analyze nope")

    def test_analyze_view_rejected(self, session):
        session.execute("create table t (a int)")
        session.execute("create view v as select a from t")
        with pytest.raises(errors.FeatureNotSupportedError):
            session.execute("analyze v")


# ---------------------------------------------------------------------------
# scan choice: seqscan vs indexscan crossover
# ---------------------------------------------------------------------------


class TestScanChoice:
    def _tree(self, session, sql):
        return session.explain(sql)

    def test_selective_predicate_uses_index(self, session):
        # dept has 10 distinct values over 1000 rows: 100 matches.
        # index cost 4*100+1 = 401 < seq cost 1000.
        _seed(session)
        tree = self._tree(
            session, "select * from emps where dept = 3"
        )
        scan = tree.find("IndexScan")
        assert scan is not None
        assert scan.estimated_cost == pytest.approx(401.0)
        assert scan.estimated_rows == pytest.approx(100.0)
        [alt] = scan.rejected
        assert "SeqScan" in alt.description
        assert alt.estimated_cost == pytest.approx(1000.0)

    def test_nonselective_predicate_keeps_seqscan(self, session):
        # dept = 3 matches half the table: index cost 4*500+1 > 1000.
        _seed(session, groups=2)
        tree = self._tree(
            session, "select * from emps where dept = 1"
        )
        assert tree.find("IndexScan") is None
        scan = tree.find("SeqScan")
        assert scan is not None
        [alt] = scan.rejected
        assert "IndexScan using emps_dept" in alt.description
        assert alt.estimated_cost > 1000.0

    def test_without_stats_rule_based_choice(self, session):
        # No ANALYZE: nothing to cost with, so the planner takes the
        # index and annotates nothing.
        session.execute("create table t (a int)")
        session.execute("create index t_a on t (a)")
        session.execute("insert into t values (1)")
        tree = session.explain("select * from t where a = 1")
        scan = tree.find("IndexScan")
        assert scan is not None
        assert scan.estimated_cost is None and scan.rejected == []

    def test_crossover_results_identical(self, session):
        _seed(session, groups=2)
        sql = "select id from emps where dept = 1"
        cost = sorted(tuple(r) for r in session.execute(sql).rows)
        twin = _without_stats(_seed, groups=2)
        assert twin.explain(sql).find("IndexScan") is not None
        plain = sorted(tuple(r) for r in twin.execute(sql).rows)
        assert cost == plain and len(cost) == 500


# ---------------------------------------------------------------------------
# joins: build side and greedy reordering
# ---------------------------------------------------------------------------


class TestJoinChoice:
    def test_build_side_is_smaller_input(self, session):
        _star(session)
        tree = session.explain(
            "select * from dim1 join fact on dim1.id = fact.d1"
        )
        join = tree.find("HashJoin")
        assert "build=left" in join.description
        [alt] = join.rejected
        assert "building on the right" in alt.description
        assert alt.estimated_cost > join.estimated_cost

    def test_inner_build_left_results_match(self, session):
        _star(session, dim1=50, dim2=40, fact=500)
        sql = (
            "select dim1.name, fact.id from dim1 "
            "join fact on dim1.id = fact.d1"
        )
        cost = sorted(tuple(r) for r in session.execute(sql).rows)
        twin = _without_stats(_star, dim1=50, dim2=40, fact=500)
        assert "build=left" not in twin.explain(sql).find(
            "HashJoin").description
        plain = sorted(tuple(r) for r in twin.execute(sql).rows)
        assert cost == plain and len(cost) == 500

    def test_star_join_reordered_with_rejected_from_order(self, session):
        # FROM order (dim1, dim2, fact) folds dim1 x dim2 as a
        # 300 000-pair cross product; the greedy order starts from a
        # dimension and joins fact next, never crossing.
        _star(session)
        tree = session.explain(STAR_SQL)
        rejected = [
            alt for node in tree.walk() for alt in node.rejected
            if "FROM order" in alt.description
        ]
        assert len(rejected) == 1
        [alt] = rejected
        chosen = next(
            node.estimated_cost for node in tree.walk()
            if node.estimated_cost is not None
        )
        assert alt.estimated_cost > chosen
        # The chosen plan has no cross join.
        assert all(
            "CROSS" not in node.description for node in tree.walk()
        )

    def test_tiny_inputs_keep_from_order(self, session):
        # With 5-row dimensions the cross product is genuinely cheaper
        # than two hash joins; the greedy order must not be adopted.
        _star(session, dim1=5, dim2=5, fact=2000)
        tree = session.explain(STAR_SQL)
        assert any(
            "CROSS" in node.description for node in tree.walk()
        )
        assert not any(
            "FROM order" in alt.description
            for node in tree.walk() for alt in node.rejected
        )

    def test_reordered_join_results_identical(self, session):
        _star(session, dim1=60, dim2=50, fact=3000)
        cost = sorted(tuple(r) for r in session.execute(STAR_SQL).rows)
        twin = _without_stats(_star, dim1=60, dim2=50, fact=3000)
        assert any(
            "CROSS" in node.description
            for node in twin.explain(STAR_SQL).walk()
        )
        plain = sorted(tuple(r) for r in twin.execute(STAR_SQL).rows)
        assert cost == plain and len(cost) == 3000

    def test_reorder_preserves_column_order_and_names(self, session):
        _star(session, dim1=60, dim2=50, fact=300)
        result = session.execute(
            "select * from dim1, dim2, fact "
            "where fact.d1 = dim1.id and fact.d2 = dim2.id "
            "and fact.id = 7"
        )
        names = [c.name for c in result.shape.columns]
        assert names == ["id", "name", "id", "name", "id", "d1", "d2"]
        [row] = result.rows
        assert list(row) == [7, "a7", 7, "b7", 7, 7, 7]


# ---------------------------------------------------------------------------
# plan cache: ANALYZE invalidates via the statistics version
# ---------------------------------------------------------------------------


class TestAnalyzeInvalidatesPlanCache:
    def test_analyze_evicts_cached_plan(self, session):
        # Plan cached while the index looks attractive; after the data
        # skews, ANALYZE must force a replan (here: to a seqscan).
        session.execute("create table t (a int, b int)")
        session.execute("create index t_a on t (a)")
        session.execute_batch(
            "insert into t values (?, ?)",
            [(i, i) for i in range(1000)],
        )
        session.execute("analyze t")
        sql = "select b from t where a = 1"
        session.execute(sql)  # plans (IndexScan) and caches
        tree = session.explain(sql)
        assert tree.find("IndexScan") is not None

        # Skew: every row now has a = 1, so the index is worthless.
        session.execute("update t set a = 1")
        session.execute("analyze t")
        tree = session.explain(sql)
        assert tree.find("IndexScan") is None
        assert tree.find("SeqScan") is not None
        result = session.execute(sql)
        assert len(result.rows) == 1000

    def test_plan_cache_hits_stop_after_analyze(self, session):
        # Observable through repro_stats.statements: the run after
        # ANALYZE is a cache miss (replan), later runs hit again.
        session.execute("create table t (a int)")
        session.execute("insert into t values (1)")
        sql = "select a from t"
        for _ in range(3):
            session.execute(sql)
        [[hits_before]] = session.execute(
            "select plan_cache_hits from repro_stats.statements "
            "where statement = 'SELECT a FROM t'"
        ).rows
        assert hits_before >= 2
        session.execute("analyze t")
        session.execute(sql)  # stats version changed: miss + replan
        [[hits_after_miss]] = session.execute(
            "select plan_cache_hits from repro_stats.statements "
            "where statement = 'SELECT a FROM t'"
        ).rows
        assert hits_after_miss == hits_before
        session.execute(sql)  # re-cached: hits resume
        [[hits_resumed]] = session.execute(
            "select plan_cache_hits from repro_stats.statements "
            "where statement = 'SELECT a FROM t'"
        ).rows
        assert hits_resumed == hits_before + 1

    def test_prepared_statement_replans_after_analyze(self, session):
        session.execute("create table t (a int, b int)")
        session.execute("create index t_a on t (a)")
        session.execute_batch(
            "insert into t values (?, ?)",
            [(i, i) for i in range(500)],
        )
        session.execute("analyze t")
        plan = session.prepare("select b from t where a = ?")
        assert len(plan.execute((3,)).rows) == 1
        session.execute("update t set a = 1")
        session.execute("analyze t")
        # Replanned under the new statistics; results stay correct.
        assert len(plan.execute((1,)).rows) == 500


# ---------------------------------------------------------------------------
# plan introspection API
# ---------------------------------------------------------------------------


class TestExplainApi:
    def test_session_explain_returns_typed_tree(self, session):
        _seed(session)
        tree = session.explain("select * from emps where dept = 3")
        assert isinstance(tree, PlanNode)
        kinds = [node.kind for node in tree.walk()]
        assert kinds[0] == "Project" and "IndexScan" in kinds

    def test_session_explain_analyze_attaches_actuals(self, session):
        _seed(session)
        tree = session.explain(
            "select * from emps where dept = 3", analyze=True
        )
        scan = tree.find("IndexScan")
        assert scan.actual_rows == 100
        assert scan.actual_ms is not None and scan.actual_ms >= 0.0

    def test_session_explain_rejects_non_query(self, session):
        session.execute("create table t (a int)")
        with pytest.raises(errors.FeatureNotSupportedError):
            session.explain("insert into t values (1)")

    def test_explain_format_json_round_trips(self, session):
        _seed(session)
        result = session.execute(
            "explain (format json) select * from emps where dept = 3"
        )
        assert result.shape.columns[0].name == "query_plan"
        document = json.loads(result.rows[0][0])
        tree = PlanNode.from_dict(document["plan"])
        assert tree.to_dict() == document["plan"]
        assert tree.find("IndexScan").estimated_cost == 401.0

    def test_explain_analyze_format_json(self, session):
        _seed(session)
        result = session.execute(
            "explain (analyze, format json) "
            "select * from emps where dept = 3"
        )
        document = json.loads(result.rows[0][0])
        assert document["total_rows"] == 100
        assert document["total_ms"] >= 0.0
        tree = PlanNode.from_dict(document["plan"])
        assert tree.find("IndexScan").actual_rows == 100

    def test_explain_unknown_option_rejected(self, session):
        session.execute("create table t (a int)")
        with pytest.raises(errors.SQLException):
            session.execute("explain (format yaml) select * from t")

    def test_text_explain_unchanged_without_stats(self, session):
        session.execute("create table t (a int)")
        session.execute("insert into t values (1)")
        result = session.execute("explain select a from t where a = 1")
        lines = [row[0] for row in result.rows]
        assert lines == [
            "Project (1 columns)",
            "  Filter (a = 1)",
            "    SeqScan on t",
        ]

    def test_text_explain_shows_costs_and_rejects(self, session):
        _seed(session)
        result = session.execute(
            "explain select * from emps where dept = 3"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "(cost=401.0 rows=100)" in text
        assert "Rejected: SeqScan on emps (cost=1000.0)" in text

    def test_connection_explain(self):
        with repro.connect() as conn:
            cur = conn.cursor()
            cur.execute("create table t (a int)")
            cur.execute("insert into t values (1)")
            conn.commit()
            tree = conn.explain("select a from t")
            assert isinstance(tree, PlanNode)
            assert tree.find("SeqScan") is not None


# ---------------------------------------------------------------------------
# over the wire
# ---------------------------------------------------------------------------


class TestRemoteExplain:
    @pytest.fixture
    def server(self):
        srv = ReproServer().start_background()
        yield srv
        srv.stop_background()

    def test_remote_explain_round_trip(self, server):
        url = f"repro://127.0.0.1:{server.port}/planremote"
        with repro.connect(url) as conn:
            cur = conn.cursor()
            cur.execute("create table t (a int, b int)")
            cur.execute("create index t_a on t (a)")
            cur.executemany(
                "insert into t values (?, ?)",
                [(i % 100, i) for i in range(1000)],
            )
            conn.commit()
            cur.execute("analyze t")
            conn.commit()
            tree = conn.session.explain("select * from t where a = 5")
            assert isinstance(tree, PlanNode)
            scan = tree.find("IndexScan")
            assert scan is not None
            assert scan.estimated_cost == pytest.approx(41.0)
            assert [a.description for a in scan.rejected] == [
                "SeqScan on t"
            ]
            # The text rendering works on the client-side tree too.
            assert format_plan_tree(tree)[0].startswith("Project")


# ---------------------------------------------------------------------------
# statistics view and durability
# ---------------------------------------------------------------------------


class TestStatisticsSurface:
    def test_statistics_view_rows(self, session):
        _seed(session)
        rows = session.execute(
            "select table_name, column_name, row_count, ndv, "
            "null_fraction, stats_version from repro_stats.statistics "
            "where table_name = 'emps' order by column_name"
        ).rows
        assert [r[1] for r in rows] == ["dept", "id", "sal"]
        dept = rows[0]
        assert dept[2] == 1000 and dept[3] == 10 and dept[4] == 0.0
        assert dept[5] >= 1

    def test_statistics_view_empty_until_analyze(self, session):
        session.execute("create table t (a int)")
        rows = session.execute(
            "select * from repro_stats.statistics"
        ).rows
        assert rows == []

    def test_statistics_survive_checkpoint_restore(self, tmp_path):
        from repro.engine.persistence import (
            load_database,
            save_database,
        )

        session = Database(name="p").create_session(autocommit=True)
        _seed(session)
        path = tmp_path / "db.bin"
        save_database(session.database, path)
        restored = load_database(path)
        stats = restored.catalog.get_statistics("emps")
        assert stats.row_count == 1000
        assert stats.column("dept").ndv == 10
        assert restored.catalog.stats_version >= 1

    def test_statistics_survive_wal_recovery(self, tmp_path):
        data_dir = str(tmp_path)
        conn = repro.connect(data_dir=data_dir)
        cur = conn.cursor()
        cur.execute("create table t (a int)")
        cur.executemany(
            "insert into t values (?)", [(i,) for i in range(50)]
        )
        conn.commit()
        cur.execute("analyze t")
        conn.commit()
        # Reopen without a clean shutdown: recovery replays the WAL,
        # including the ANALYZE record.
        conn2 = repro.connect(data_dir=data_dir)
        stats = conn2.session.database.catalog.get_statistics("t")
        assert stats is not None and stats.row_count == 50
        tree = conn2.explain("select * from t where a = 1")
        assert tree.find("SeqScan").estimated_rows == 50.0


# ---------------------------------------------------------------------------
# differential: with vs without statistics on a generated corpus
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("seed", (11, 23))
    def test_cost_based_matches_rule_based(self, seed):
        """The ``rule`` arm is never ANALYZEd, so it plans without
        statistics throughout."""
        gen = WorkloadGenerator(seed=seed)
        statements = (
            [gen.ddl()] + gen.seed_statements(40) + gen.statements(50)
        )
        cost = Database(name=f"c{seed}").create_session(autocommit=True)
        rule = Database(name=f"r{seed}").create_session(autocommit=True)
        analyze_every = 10
        for index, statement in enumerate(statements):
            outcomes = []
            for runner in (cost, rule):
                try:
                    result = runner.execute(statement)
                except errors.SQLException as exc:
                    outcomes.append(("error", type(exc).__name__))
                    continue
                if result.is_rowset:
                    rows = sorted(
                        (tuple(r) for r in result.rows), key=repr
                    )
                    outcomes.append(("rows", rows))
                else:
                    outcomes.append(("count", result.update_count))
            assert outcomes[0] == outcomes[1], (
                f"seed={seed} stmt#{index} diverged: {statement}"
            )
            if index % analyze_every == 0:
                cost.execute("analyze")  # only the cost-based arm
        final = f"SELECT * FROM {gen.table}"
        cost_rows = sorted(
            (tuple(r) for r in cost.execute(final).rows), key=repr
        )
        rule_rows = sorted(
            (tuple(r) for r in rule.execute(final).rows), key=repr
        )
        assert cost_rows == rule_rows
