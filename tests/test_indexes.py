"""Secondary indexes: DDL, transactional maintenance, and IndexScan.

Covers the CREATE INDEX / DROP INDEX statements, index upkeep through
INSERT / UPDATE / DELETE and rollback, plan selection (point and range
probes in EXPLAIN), the type-compatibility gate that keeps IndexScan
from swallowing InvalidCastError, ALTER TABLE interactions, hash-join
planning, and persistence round-trips.
"""

from __future__ import annotations

import pytest

from repro import errors, observability
from repro import Database


def _explain(session, sql):
    return [row[0] for row in session.execute("explain " + sql).rows]


def _norm(rows):
    # NULLs sort last so outer-join results compare deterministically.
    return sorted(
        (tuple(row) for row in rows),
        key=lambda row: tuple((value is None, value) for value in row),
    )


@pytest.fixture
def indexed(session):
    session.execute(
        "create table t (id integer, grp integer, name varchar(20))"
    )
    for i in range(50):
        session.execute(
            f"insert into t values ({i}, {i % 5}, 'name{i}')"
        )
    session.execute("create index t_id on t (id)")
    return session


class TestIndexDDL:
    def test_create_and_drop(self, indexed):
        table = indexed.catalog.get_table("t")
        assert [i.name for i in table.indexes] == ["t_id"]
        indexed.execute("drop index t_id")
        assert table.indexes == []
        assert "t_id" not in indexed.catalog.indexes

    def test_duplicate_name_rejected(self, indexed):
        with pytest.raises(errors.DuplicateObjectError):
            indexed.execute("create index t_id on t (grp)")

    def test_unknown_table_rejected(self, session):
        with pytest.raises(errors.UndefinedTableError):
            session.execute("create index nope on missing (x)")

    def test_unknown_column_rejected(self, indexed):
        with pytest.raises(errors.SQLException):
            indexed.execute("create index bad on t (missing)")

    def test_duplicate_column_rejected(self, indexed):
        with pytest.raises(errors.SQLSyntaxError):
            indexed.execute("create index bad on t (id, id)")

    def test_drop_missing_index(self, session):
        with pytest.raises(errors.UndefinedObjectError):
            session.execute("drop index nothing")

    def test_non_owner_cannot_create_or_drop(self, db, indexed):
        other = db.create_session(user="intruder", autocommit=True)
        with pytest.raises(errors.PrivilegeError):
            other.execute("create index theirs on t (grp)")
        with pytest.raises(errors.PrivilegeError):
            other.execute("drop index t_id")

    def test_object_column_rejected(self, address_types):
        session = address_types
        session.execute("create table homes (a addr)")
        with pytest.raises(errors.FeatureNotSupportedError):
            session.execute("create index ha on homes (a)")

    def test_multi_column_index(self, indexed):
        indexed.execute("create index t_grp_id on t (grp, id)")
        index = indexed.catalog.get_index("t_grp_id")
        assert index.column_names == ["grp", "id"]
        assert len(index) == 50


class TestIndexMaintenance:
    def test_insert_visible_through_index(self, indexed):
        indexed.execute("insert into t values (99, 9, 'new')")
        rows = indexed.execute("select name from t where id = 99").rows
        assert rows == [["new"]]

    def test_update_moves_row_between_buckets(self, indexed):
        indexed.execute("update t set id = 1000 where id = 7")
        assert indexed.execute(
            "select * from t where id = 7").rows == []
        assert indexed.execute(
            "select name from t where id = 1000").rows == [["name7"]]

    def test_delete_removes_entries_after_vacuum(self, indexed):
        indexed.execute("delete from t where id = 3")
        assert indexed.execute("select * from t where id = 3").rows == []
        # The dead version stays indexed (older snapshots may need it)
        # until vacuum physically reclaims it.
        assert len(indexed.catalog.get_index("t_id")) == 50
        indexed.database.vacuum()
        assert len(indexed.catalog.get_index("t_id")) == 49
        assert indexed.execute("select * from t where id = 3").rows == []

    def test_rollback_restores_index(self, db):
        session = db.create_session()  # manual transactions
        session.execute("create table u (k integer)")
        session.execute("create index uk on u (k)")
        session.execute("insert into u values (1)")
        session.execute("commit")
        session.execute("insert into u values (2)")
        session.execute("update u set k = 10 where k = 1")
        session.execute("delete from u where k = 2")
        session.execute("rollback")
        index = session.catalog.get_index("uk")
        assert len(index) == 1
        assert session.execute(
            "select k from u where k = 1").rows == [[1]]
        assert session.execute("select * from u where k = 10").rows == []

    def test_statement_level_rollback_on_failure(self, indexed):
        # Second row violates nothing here, so force a mid-statement
        # failure through a unique column instead.
        indexed.execute(
            "create table v (k integer unique)"
        )
        indexed.execute("create index vk on v (k)")
        indexed.execute("insert into v values (1)")
        with pytest.raises(errors.UniqueViolationError):
            indexed.execute("insert into v values (1)")
        assert len(indexed.catalog.get_index("vk")) == 1

    def test_failed_statement_on_fresh_index_same_txn(self, db):
        """Regression: a statement that fails mid-way must undo its
        index entries in an index created *earlier in the same
        transaction* — the undo actions have to consult the table's
        live index list, not the set of indexes that existed when the
        row went in."""
        session = db.create_session()  # manual transactions
        session.execute("create table w (k integer unique, v integer)")
        session.execute("insert into w values (1, 10)")
        session.execute("commit")
        # Same txn: fresh index, then a multi-row INSERT whose last row
        # fails the unique check.
        session.execute("create index wv on w (v)")
        with pytest.raises(errors.UniqueViolationError):
            session.execute(
                "insert into w values (2, 20), (3, 30), (1, 99)"
            )
        index = session.catalog.get_index("wv")
        index.verify_against_heap()
        assert len(index) == 1
        session.execute("rollback")
        index.verify_against_heap()
        assert session.execute("select * from w").rows == [[1, 10]]

    def test_rollback_unwinds_inserts_indexed_after_the_fact(self, db):
        """Rows inserted before CREATE INDEX in the same transaction
        are picked up by the index build; rolling the transaction back
        must remove them from that index too."""
        session = db.create_session()
        session.execute("create table x (k integer)")
        session.execute("insert into x values (1), (2)")
        session.execute("create index xk on x (k)")
        index = session.catalog.get_index("xk")
        assert len(index) == 2  # uncommitted versions are indexed
        session.execute("rollback")
        index.verify_against_heap()
        assert len(index) == 0
        assert session.execute("select * from x").rows == []


class _CountingBucket(list):
    """An index bucket that counts the entries anyone walks."""

    def __init__(self, items, tally):
        super().__init__(items)
        self.tally = tally

    def __iter__(self):
        for item in list.__iter__(self):
            self.tally[0] += 1
            yield item


class TestVerifyAgainstHeap:
    """Recovery's index check: linear work, and every divergence is a
    DataError."""

    ROWS = 2_000

    def _indexed(self, session, per_key):
        session.execute("create table v (k integer, g integer)")
        session.execute_batch(
            "insert into v values (?, ?)",
            [(i, i // per_key) for i in range(self.ROWS)],
        )
        session.execute("create index v_g on v (g)")
        return session.catalog.get_index("v_g")

    @pytest.mark.parametrize("per_key", [10, 1_000])
    def test_work_is_linear_in_rows(self, session, per_key):
        index = self._indexed(session, per_key)
        tally = [0]
        for key, bucket in list(index._buckets.items()):
            index._buckets[key] = _CountingBucket(bucket, tally)
        keys_built = [0]
        key_of_row = index.key_of_row

        def counting_key_of_row(row):
            keys_built[0] += 1
            return key_of_row(row)

        index.key_of_row = counting_key_of_row
        index.verify_against_heap()
        # One walk of the entries, one key per heap version: the same
        # per-row work at 10 and at 1,000 rows per key.
        assert tally[0] == self.ROWS
        assert keys_built[0] == self.ROWS

    def test_a_missing_entry_is_a_data_error(self, session):
        index = self._indexed(session, 10)
        index._buckets[index.key_of_values((3,))].pop()
        with pytest.raises(errors.DataError):
            index.verify_against_heap()

    def test_a_phantom_entry_is_a_data_error(self, session):
        from repro.engine.mvcc import RowVersion

        index = self._indexed(session, 10)
        bucket = index._buckets[index.key_of_values((3,))]
        bucket[0] = RowVersion(list(bucket[0].row))
        with pytest.raises(errors.DataError, match="missing"):
            index.verify_against_heap()

    def test_an_entry_under_the_wrong_key_is_a_data_error(self, session):
        index = self._indexed(session, 10)
        moved = index._buckets[index.key_of_values((3,))].pop()
        index._buckets[index.key_of_values((4,))].append(moved)
        with pytest.raises(errors.DataError):
            index.verify_against_heap()


class TestIndexScanPlanning:
    def test_point_lookup_uses_index(self, indexed):
        lines = _explain(indexed, "select name from t where id = 7")
        assert any("IndexScan using t_id on t" in line for line in lines)
        assert not any("Filter" in line for line in lines)
        assert indexed.execute(
            "select name from t where id = 7").rows == [["name7"]]

    def test_range_scan_uses_index(self, indexed):
        lines = _explain(
            indexed, "select id from t where id > 44 and id <= 47"
        )
        assert any("IndexScan" in line for line in lines)
        rows = indexed.execute(
            "select id from t where id > 44 and id <= 47").rows
        assert _norm(rows) == [(45,), (46,), (47,)]

    def test_between_uses_index(self, indexed):
        lines = _explain(
            indexed, "select id from t where id between 10 and 12"
        )
        assert any("IndexScan" in line for line in lines)
        rows = indexed.execute(
            "select id from t where id between 10 and 12").rows
        assert _norm(rows) == [(10,), (11,), (12,)]

    def test_extra_conjunct_stays_in_filter(self, indexed):
        lines = _explain(
            indexed, "select id from t where id = 7 and grp = 2"
        )
        assert any("IndexScan" in line for line in lines)
        assert any("Filter (grp = 2)" in line for line in lines)
        assert indexed.execute(
            "select id from t where id = 7 and grp = 2").rows == [[7]]
        assert indexed.execute(
            "select id from t where id = 7 and grp = 3").rows == []

    def test_multi_column_full_key_probe(self, indexed):
        indexed.execute("create index t_both on t (grp, id)")
        lines = _explain(
            indexed, "select name from t where grp = 2 and id = 7"
        )
        assert any("IndexScan using" in line for line in lines)
        assert indexed.execute(
            "select name from t where grp = 2 and id = 7"
        ).rows == [["name7"]]

    def test_parameter_probe(self, indexed):
        rows = indexed.execute(
            "select name from t where id = ?", (5,)).rows
        assert rows == [["name5"]]
        lines = _explain(indexed, "select name from t where id = ?")
        assert any("IndexScan" in line for line in lines)

    def test_null_probe_returns_nothing(self, indexed):
        indexed.execute("insert into t values (null, 1, 'ghost')")
        assert indexed.execute(
            "select * from t where id = ?", (None,)).rows == []

    def test_flipped_operands(self, indexed):
        lines = _explain(indexed, "select name from t where 7 = id")
        assert any("IndexScan" in line for line in lines)
        assert indexed.execute(
            "select name from t where 7 = id").rows == [["name7"]]

    def test_incompatible_literal_keeps_error(self, indexed):
        # 'x' cannot equal an INTEGER column: the planner must not turn
        # this into an (empty) index probe — the comparison error the
        # seed raised must survive, index or no index.
        with pytest.raises(errors.InvalidCastError):
            indexed.execute("select * from t where id = 'x'")
        with pytest.raises(errors.InvalidCastError):
            indexed.execute("explain select * from t where id = 'x'")

    def test_index_lookups_counted(self, indexed):
        before = observability.snapshot()["counters"].get(
            "index.lookups", 0
        )
        indexed.execute("select name from t where id = 3")
        after = observability.snapshot()["counters"].get(
            "index.lookups", 0
        )
        assert after == before + 1

    def test_results_match_seqscan(self, indexed):
        queries = [
            "select * from t where id = 25",
            "select * from t where id > 40",
            "select * from t where id between 5 and 9",
            "select * from t where id >= 48 or id = 0",
            "select * from t where id < 3 and grp = 1",
        ]
        with_index = [
            _norm(indexed.execute(q).rows) for q in queries
        ]
        indexed.execute("drop index t_id")
        without = [_norm(indexed.execute(q).rows) for q in queries]
        assert with_index == without


class TestAlterTableInteraction:
    def test_add_column_rebuilds_index(self, indexed):
        indexed.execute("alter table t add column extra integer")
        assert indexed.execute(
            "select name from t where id = 7").rows == [["name7"]]

    def test_drop_other_column_rebuilds_positions(self, indexed):
        indexed.execute("alter table t drop column grp")
        # id moved positions? (it was first; drop one after it)
        assert indexed.execute(
            "select name from t where id = 7").rows == [["name7"]]

    def test_drop_indexed_column_drops_index(self, indexed):
        indexed.execute("alter table t drop column id")
        assert "t_id" not in indexed.catalog.indexes
        assert indexed.catalog.get_table("t").indexes == []


class TestHashJoinPlanning:
    def setup_tables(self, session):
        session.execute("create table a (x integer, tag varchar(5))")
        session.execute("create table b (y integer, tag varchar(5))")
        for i in range(20):
            session.execute(
                f"insert into a values ({i % 7}, 'a{i}')"
            )
            session.execute(
                f"insert into b values ({i % 5}, 'b{i}')"
            )

    def test_equi_join_is_hash_join_and_matches_nl(self, session):
        self.setup_tables(session)
        sql = "select a.tag, b.tag from a join b on a.x = b.y"
        lines = _explain(session, sql)
        assert any("HashJoin (INNER)" in line for line in lines)
        hashed = _norm(session.execute(sql).rows)
        # The same join spelled without an equality has no hash keys.
        nested = sql.replace("a.x = b.y", "a.x <= b.y and a.x >= b.y")
        lines = _explain(session, nested)
        assert any("NestedLoopJoin" in line for line in lines)
        assert not any("HashJoin" in line for line in lines)
        assert _norm(session.execute(nested).rows) == hashed

    @pytest.mark.parametrize("kind", ["left", "right", "full"])
    def test_outer_hash_joins_match_nested_loop(self, session, kind):
        self.setup_tables(session)
        session.execute("insert into a values (100, 'only')")
        session.execute("insert into b values (200, 'lone')")
        session.execute("insert into a values (null, 'anull')")
        session.execute("insert into b values (null, 'bnull')")
        sql = (
            f"select a.tag, b.tag from a {kind} join b on a.x = b.y"
        )
        hashed = _norm(session.execute(sql).rows)
        nested = sql.replace("a.x = b.y", "a.x <= b.y and a.x >= b.y")
        assert any(
            "NestedLoopJoin" in line for line in _explain(session, nested)
        )
        assert _norm(session.execute(nested).rows) == hashed

    def test_implicit_join_where_equality(self, session):
        self.setup_tables(session)
        sql = "select a.tag, b.tag from a, b where a.x = b.y"
        lines = _explain(session, sql)
        assert any("HashJoin (INNER)" in line for line in lines)
        explicit = _norm(session.execute(
            "select a.tag, b.tag from a join b on a.x = b.y").rows)
        assert _norm(session.execute(sql).rows) == explicit

    def test_residual_conjunct_checked(self, session):
        self.setup_tables(session)
        sql = (
            "select a.tag, b.tag from a join b "
            "on a.x = b.y and a.x > 3"
        )
        rows = session.execute(sql).rows
        assert rows
        assert all(
            int(tag_a[1:]) % 7 > 3 for tag_a, _ in rows
        )

    def test_join_predicate_pushdown_reaches_index(self, session):
        self.setup_tables(session)
        session.execute("create index ax on a (x)")
        sql = (
            "select a.tag, b.tag from a join b on a.x = b.y "
            "where a.x = 3"
        )
        lines = _explain(session, sql)
        assert any("IndexScan using ax on a" in line for line in lines)


class TestSubqueryPushdown:
    def test_pushes_through_projection(self, session):
        session.execute("create table big (k integer, v varchar(5))")
        for i in range(30):
            session.execute(f"insert into big values ({i}, 'v{i}')")
        session.execute("create index bk on big (k)")
        sql = (
            "select vv from (select k as kk, v as vv from big) d "
            "where d.kk = 12"
        )
        lines = _explain(session, sql)
        assert any("IndexScan using bk on big" in line for line in lines)
        assert session.execute(sql).rows == [["v12"]]

    def test_aggregating_subquery_not_rewritten(self, session):
        session.execute("create table big (k integer, v integer)")
        for i in range(10):
            session.execute(
                f"insert into big values ({i % 3}, {i})"
            )
        sql = (
            "select s from (select k, sum(v) as s from big group by k) d "
            "where d.s > 10"
        )
        rows = session.execute(sql).rows
        assert rows  # evaluated on aggregated output, not pushed inside
        for (s,) in rows:
            assert s > 10


class TestPersistenceRoundTrip:
    def test_indexes_survive_save_load(self, session, tmp_path):
        from repro.engine.persistence import load_database, save_database

        session.execute("create table p (k integer, v varchar(5))")
        for i in range(10):
            session.execute(f"insert into p values ({i}, 'v{i}')")
        session.execute("create index pk on p (k)")
        path = str(tmp_path / "db.img")
        save_database(session.database, path)

        restored = load_database(path)
        new_session = restored.create_session(autocommit=True)
        lines = _explain(new_session, "select v from p where k = 4")
        assert any("IndexScan using pk on p" in line for line in lines)
        assert new_session.execute(
            "select v from p where k = 4").rows == [["v4"]]


class TestPredicateSummaries:
    def test_pushed_conjunct_described_on_its_operator(self, session):
        session.execute("create table l (x integer)")
        session.execute("create table r (y integer)")
        lines = _explain(
            session,
            "select * from l, r where x = 1 and y = 2",
        )
        text = "\n".join(lines)
        assert "Filter (x = 1)" in text
        assert "Filter (y = 2)" in text
