"""Tests for INSERT / UPDATE / DELETE and transaction semantics."""

import decimal
import sqlite3

import pytest

from repro import Database, errors
from repro.observability import snapshot

D = decimal.Decimal


class TestInsert:
    def test_insert_returns_count(self, emps):
        result = emps.execute(
            "insert into emps values ('X', 'E9', 'CA', 1), "
            "('Y', 'EA', 'MN', 2)"
        )
        assert result.update_count == 2

    def test_insert_with_column_list(self, emps):
        emps.execute("insert into emps (name, id) values ('Z', 'EB')")
        row = emps.execute(
            "select name, state, sales from emps where id = 'EB'"
        ).rows[0]
        assert row == ["Z", None, None]

    def test_insert_coerces_types(self, emps):
        emps.execute("insert into emps values ('W', 'EC', 'CA', 7)")
        value = emps.execute(
            "select sales from emps where id = 'EC'"
        ).rows[0][0]
        assert value == D("7.00")
        assert isinstance(value, D)

    def test_insert_char_padding(self, emps):
        emps.execute("insert into emps values ('V', 'ED', 'CA', 1)")
        state = emps.execute(
            "select state from emps where id = 'ED'"
        ).rows[0][0]
        assert state == "CA".ljust(20)

    def test_insert_wrong_arity(self, emps):
        with pytest.raises(errors.SQLSyntaxError):
            emps.execute("insert into emps values ('only-name')")

    def test_insert_type_error(self, emps):
        with pytest.raises(errors.InvalidCastError):
            emps.execute(
                "insert into emps values ('A', 'E9', 'CA', 'lots')"
            )

    def test_insert_overflow(self, emps):
        with pytest.raises(errors.NumericOverflowError):
            emps.execute(
                "insert into emps values ('A', 'E9', 'CA', 99999.00)"
            )

    def test_insert_string_truncation(self, emps):
        with pytest.raises(errors.StringTruncationError):
            emps.execute(
                f"insert into emps values ('{'x' * 51}', 'E9', 'CA', 1)"
            )

    def test_insert_select(self, emps):
        emps.execute(
            "create table archive (name varchar(50), sales decimal(6,2))"
        )
        result = emps.execute(
            "insert into archive select name, sales from emps "
            "where sales > 100"
        )
        assert result.update_count == 3

    def test_insert_select_self_terminates(self, session):
        session.execute("create table t (a integer)")
        session.execute("insert into t values (1), (2)")
        session.execute("insert into t select a + 10 from t")
        assert len(session.execute("select * from t").rows) == 4

    def test_insert_with_parameters(self, emps):
        emps.execute(
            "insert into emps values (?, ?, ?, ?)",
            ["Paula", "EP", "NV", D("33.33")],
        )
        assert emps.execute(
            "select sales from emps where name = 'Paula'"
        ).rows == [[D("33.33")]]

    def test_not_null_enforced(self, session):
        session.execute(
            "create table strict_t (a integer not null, b integer)"
        )
        with pytest.raises(errors.NotNullViolationError):
            session.execute("insert into strict_t values (null, 1)")
        with pytest.raises(errors.NotNullViolationError):
            session.execute("insert into strict_t (b) values (1)")

    def test_default_values(self, session):
        session.execute(
            "create table with_default (a integer, b integer default 42)"
        )
        session.execute("insert into with_default (a) values (1)")
        assert session.execute(
            "select b from with_default"
        ).rows == [[42]]

    def test_duplicate_insert_column_rejected(self, session):
        session.execute("create table t2 (a integer)")
        with pytest.raises(errors.SQLSyntaxError):
            session.execute("insert into t2 (a, a) values (1, 2)")


class TestUpdate:
    def test_update_count(self, emps):
        result = emps.execute(
            "update emps set sales = 0 where sales is null"
        )
        assert result.update_count == 1

    def test_update_expression_uses_old_values(self, emps):
        emps.execute("update emps set sales = sales * 2")
        assert emps.execute(
            "select sales from emps where name = 'Alice'"
        ).rows == [[D("201.00")]]

    def test_update_multiple_assignments(self, emps):
        emps.execute(
            "update emps set state = 'WA', sales = 1 where name = 'Bob'"
        )
        row = emps.execute(
            "select state, sales from emps where name = 'Bob'"
        ).rows[0]
        assert row[0].strip() == "WA"
        assert row[1] == D("1.00")

    def test_update_swap_semantics(self, session):
        # All assignments read the pre-update row.
        session.execute("create table pair (a integer, b integer)")
        session.execute("insert into pair values (1, 2)")
        session.execute("update pair set a = b, b = a")
        assert session.execute("select a, b from pair").rows == [[2, 1]]

    def test_update_not_null_violation(self, session):
        session.execute("create table nn (a integer not null)")
        session.execute("insert into nn values (1)")
        with pytest.raises(errors.NotNullViolationError):
            session.execute("update nn set a = null")

    def test_update_no_match_returns_zero(self, emps):
        assert emps.execute(
            "update emps set sales = 1 where name = 'Nobody'"
        ).update_count == 0

    def test_update_with_parameters(self, emps):
        emps.execute(
            "update emps set sales = ? where name = ?", [D("9"), "Eve"]
        )
        assert emps.execute(
            "select sales from emps where name = 'Eve'"
        ).rows == [[D("9.00")]]


class TestDelete:
    def test_delete_with_predicate(self, emps):
        result = emps.execute("delete from emps where sales < 60")
        assert result.update_count == 2  # Bob and Eve
        assert len(emps.execute("select * from emps").rows) == 6

    def test_delete_all(self, emps):
        assert emps.execute("delete from emps").update_count == 8
        assert emps.execute("select count(*) from emps").rows == [[0]]

    def test_delete_null_predicate_rows_survive(self, emps):
        emps.execute("delete from emps where sales < 1000")
        # Frank's NULL sales comparison is unknown -> not deleted.
        assert [r[0] for r in emps.execute(
            "select name from emps").rows] == ["Frank"]


class Pt:
    """Part 2 value for the ``>>`` predicates of :class:`TestDmlTargets`."""

    def __init__(self, x):
        self.x = x


#: name: (WHERE or None, its parameters, whether an index on k serves
#: it as a probe).  ``pos>>x`` reads sqlite's ``pos_x`` column.
TARGET_WHERES = {
    "eq": ("k = ?", [7], True),
    "eq_null": ("k = ?", [None], True),
    "between": ("k between ? and ?", [5, 12], True),
    "probe_and_residual": ("k > ? and owner = ?", [10, "o1"], True),
    "eq_fraction": ("k = 1.5", [], True),
    "eq_subquery": ("k = (select max(k) from acct)", [], False),
    "attribute": ("pos>>x = ?", [3], False),
    "none": (None, [], False),
}

#: name: (statement without its WHERE, extra leading parameters)
TARGET_STATEMENTS = {
    "update": ("update acct set bal = bal + ?", [1]),
    "delete": ("delete from acct", []),
}

#: every UPDATE/DELETE × WHERE shape, plus an UPDATE moving its own key
#: into the range it selects
TARGET_CASES = {
    f"{kind}-{shape}": (
        statement + (f" where {where}" if where else ""),
        extra + params,
        probes,
    )
    for kind, (statement, extra) in TARGET_STATEMENTS.items()
    for shape, (where, params, probes) in TARGET_WHERES.items()
}
TARGET_CASES["update-key_shift"] = (
    "update acct set k = k + 100 where k >= ?", [20], True
)


class TestDmlTargets:
    """UPDATE and DELETE read their target rows through the planner's
    access path: an indexed table, its unindexed twin and sqlite3 agree
    row for row, before and after ANALYZE."""

    ROWS = [
        [i % 30 if i != 39 else None, f"o{i % 3}", i * 10, i % 5]
        for i in range(40)
    ]

    def repro_twin(self, indexed, analyzed):
        session = Database(name="targets").create_session(autocommit=True)
        session.execute(
            f"create type pt external name '{Pt.__module__}.Pt' "
            "language python (x integer external name x, "
            "method pt (x integer) returns pt external name Pt)"
        )
        session.execute(
            "create table acct (k integer, owner varchar(10), bal integer, "
            "pos pt)"
        )
        if indexed:
            session.execute("create index acct_k on acct (k)")
        session.execute_batch(
            "insert into acct values (?, ?, ?, ?)",
            [[k, owner, bal, Pt(x)] for k, owner, bal, x in self.ROWS],
        )
        if analyzed:
            session.execute("analyze acct")
        return session

    def run_repro(self, session, sql, params):
        count = session.execute(sql, params).update_count
        rows = session.execute("select k, owner, bal, pos>>x from acct").rows
        return count, sorted(rows, key=repr)

    def run_sqlite(self, sql, params):
        db = sqlite3.connect(":memory:")
        db.execute(
            "create table acct (k integer, owner text, bal integer, "
            "pos_x integer)"
        )
        db.executemany("insert into acct values (?, ?, ?, ?)", self.ROWS)
        count = db.execute(sql.replace("pos>>x", "pos_x"), params).rowcount
        rows = db.execute("select k, owner, bal, pos_x from acct").fetchall()
        db.close()
        return count, sorted((list(row) for row in rows), key=repr)

    @pytest.mark.parametrize("analyzed", [False, True],
                             ids=["no_stats", "analyzed"])
    @pytest.mark.parametrize("case", list(TARGET_CASES))
    def test_indexed_plain_and_sqlite_agree(self, case, analyzed):
        sql, params, probes = TARGET_CASES[case]
        want = self.run_sqlite(sql, params)
        plain = self.run_repro(self.repro_twin(False, analyzed), sql, params)
        indexed = self.repro_twin(True, analyzed)
        before = snapshot()["counters"].get("index.lookups", 0)
        assert self.run_repro(indexed, sql, params) == plain == want
        if probes and not analyzed:
            # Without statistics an index probe always wins.
            assert snapshot()["counters"]["index.lookups"] > before

    @pytest.mark.parametrize("indexed", [False, True],
                             ids=["plain", "indexed"])
    def test_same_key_twice_in_one_transaction(self, indexed):
        """The second UPDATE's probe meets the version the first one
        claimed and the one it inserted; only the latter is a target,
        and the unique check counts neither against the new key."""
        db = Database(name="twice")
        admin = db.create_session(autocommit=True)
        admin.execute("create table uk (k integer primary key, v integer)")
        if indexed:
            admin.execute("create index uk_k on uk (k)")
        admin.execute_batch(
            "insert into uk values (?, ?)", [[k, 0] for k in range(20)]
        )
        session = db.create_session(autocommit=False)
        for _ in range(2):
            assert session.execute(
                "update uk set v = v + 1, k = k where k = ?", [7]
            ).update_count == 1
        assert session.execute(
            "select k, v from uk where k = ?", [7]
        ).rows == [[7, 2]]
        session.commit()
        assert admin.execute("select v from uk where k = 7").rows == [[2]]
        assert admin.execute("select count(*) from uk").rows == [[20]]

    def test_dml_needs_no_select_privilege(self):
        db = Database(name="targets_grants")
        admin = db.create_session(autocommit=True)
        admin.execute("create table acct (k integer, bal integer)")
        admin.execute("create index acct_k on acct (k)")
        admin.execute_batch(
            "insert into acct values (?, ?)", [[k, 0] for k in range(10)]
        )
        admin.execute("grant update on acct to clerk")
        admin.execute("grant delete on acct to clerk")
        clerk = db.create_session("clerk", autocommit=True)
        assert clerk.execute(
            "update acct set bal = 5 where k = ?", [3]
        ).update_count == 1
        assert clerk.execute(
            "delete from acct where k = ?", [4]
        ).update_count == 1
        with pytest.raises(errors.PrivilegeError):
            clerk.execute("select bal from acct where k = ?", [3])
        assert admin.execute(
            "select k, bal from acct where k between 3 and 4"
        ).rows == [[3, 5]]


class TestTransactions:
    @pytest.fixture
    def txn_session(self, db):
        session = db.create_session(autocommit=False)
        session.execute("create table accounts (owner varchar(10), "
                        "balance integer)")
        session.execute("insert into accounts values ('a', 100), "
                        "('b', 50)")
        session.commit()
        return session

    def test_rollback_undoes_insert(self, txn_session):
        txn_session.execute("insert into accounts values ('c', 10)")
        txn_session.rollback()
        assert len(txn_session.execute(
            "select * from accounts").rows) == 2

    def test_rollback_undoes_update(self, txn_session):
        txn_session.execute(
            "update accounts set balance = 0 where owner = 'a'"
        )
        txn_session.rollback()
        assert txn_session.execute(
            "select balance from accounts where owner = 'a'"
        ).rows == [[100]]

    def test_rollback_undoes_delete(self, txn_session):
        txn_session.execute("delete from accounts")
        txn_session.rollback()
        assert len(txn_session.execute(
            "select * from accounts").rows) == 2

    def test_rollback_restores_row_order(self, txn_session):
        txn_session.execute(
            "delete from accounts where owner = 'a'"
        )
        txn_session.rollback()
        assert [r[0] for r in txn_session.execute(
            "select owner from accounts").rows] == ["a", "b"]

    def test_commit_makes_changes_permanent(self, txn_session):
        txn_session.execute("insert into accounts values ('c', 10)")
        txn_session.commit()
        txn_session.rollback()  # no-op
        assert len(txn_session.execute(
            "select * from accounts").rows) == 3

    def test_multi_statement_transaction_rolls_back_atomically(
        self, txn_session
    ):
        txn_session.execute(
            "update accounts set balance = balance - 10 "
            "where owner = 'a'"
        )
        txn_session.execute(
            "update accounts set balance = balance + 10 "
            "where owner = 'b'"
        )
        txn_session.rollback()
        result = txn_session.execute(
            "select balance from accounts order by owner"
        ).rows
        assert result == [[100], [50]]

    def test_sql_level_commit_and_rollback(self, txn_session):
        txn_session.execute("insert into accounts values ('c', 10)")
        txn_session.execute("commit")
        txn_session.execute("delete from accounts")
        txn_session.execute("rollback")
        assert len(txn_session.execute(
            "select * from accounts").rows) == 3

    def test_autocommit_session(self, db):
        session = db.create_session(autocommit=True)
        session.execute("create table t (a integer)")
        session.execute("insert into t values (1)")
        session.rollback()  # nothing pending
        assert session.execute("select * from t").rows == [[1]]

    def test_closed_session_rejects_statements(self, db):
        session = db.create_session()
        session.close()
        with pytest.raises(errors.ConnectionClosedError):
            session.execute("select 1")

    def test_close_rolls_back_open_transaction(self, db):
        writer = db.create_session(autocommit=False)
        writer.execute("create table t (a integer)")
        writer.execute("insert into t values (1)")
        writer.close()
        reader = db.create_session()
        assert reader.execute("select count(*) from t").rows == [[0]]


class TestDrop:
    def test_drop_table(self, emps):
        emps.execute("drop table emps")
        with pytest.raises(errors.UndefinedTableError):
            emps.execute("select * from emps")

    def test_drop_missing_table(self, session):
        with pytest.raises(errors.UndefinedTableError):
            session.execute("drop table ghost")

    def test_drop_view(self, emps):
        emps.execute("create view v as select 1")
        emps.execute("drop view v")
        with pytest.raises(errors.UndefinedTableError):
            emps.execute("select * from v")

    def test_duplicate_table_rejected(self, emps):
        with pytest.raises(errors.DuplicateObjectError):
            emps.execute("create table emps (a integer)")


class TestConstraints:
    @pytest.fixture
    def keyed(self, session):
        session.execute(
            "create table users (id integer primary key, "
            "email varchar(50) unique, name varchar(50))"
        )
        session.execute(
            "insert into users values (1, 'a@x.com', 'Ann')"
        )
        return session

    def test_primary_key_rejects_duplicates(self, keyed):
        with pytest.raises(errors.UniqueViolationError):
            keyed.execute("insert into users values (1, 'b@x.com', 'B')")

    def test_primary_key_implies_not_null(self, keyed):
        with pytest.raises(errors.NotNullViolationError):
            keyed.execute(
                "insert into users values (null, 'c@x.com', 'C')"
            )

    def test_unique_rejects_duplicates(self, keyed):
        with pytest.raises(errors.UniqueViolationError):
            keyed.execute("insert into users values (2, 'a@x.com', 'D')")

    def test_unique_allows_multiple_nulls(self, keyed):
        keyed.execute("insert into users values (2, null, 'E')")
        keyed.execute("insert into users values (3, null, 'F')")
        assert keyed.execute(
            "select count(*) from users"
        ).rows == [[3]]

    def test_duplicate_within_one_statement(self, keyed):
        with pytest.raises(errors.UniqueViolationError):
            keyed.execute(
                "insert into users values (2, 'x@x.com', 'X'), "
                "(2, 'y@x.com', 'Y')"
            )

    def test_update_cannot_create_duplicate(self, keyed):
        keyed.execute("insert into users values (2, 'b@x.com', 'B')")
        with pytest.raises(errors.UniqueViolationError):
            keyed.execute("update users set id = 1 where id = 2")

    def test_update_swap_of_unique_values_allowed(self, session):
        # Updating every row at once may permute unique values freely.
        session.execute("create table s (k integer unique)")
        session.execute("insert into s values (1), (2)")
        session.execute("update s set k = 3 - k")
        assert sorted(
            r[0] for r in session.execute("select k from s").rows
        ) == [1, 2]

    def test_update_to_same_value_allowed(self, keyed):
        keyed.execute("update users set id = 1 where id = 1")

    def test_multiple_primary_keys_rejected(self, session):
        with pytest.raises(errors.SQLSyntaxError):
            session.execute(
                "create table broken (a integer primary key, "
                "b integer primary key)"
            )

    def test_char_padding_in_unique_comparison(self, session):
        session.execute("create table cu (code char(5) unique)")
        session.execute("insert into cu values ('AB')")
        with pytest.raises(errors.UniqueViolationError):
            session.execute("insert into cu values ('AB   ')")

    def test_insert_select_checks_unique(self, keyed):
        keyed.execute("create table staging (id integer, email varchar(50), name varchar(50))")
        keyed.execute("insert into staging values (1, 'z@x.com', 'Z')")
        with pytest.raises(errors.UniqueViolationError):
            keyed.execute("insert into users select * from staging")


class TestNaN:
    """NaN equals NaN and sorts above every number (PostgreSQL's rule) —
    on every path, instead of escaping as ``decimal.InvalidOperation``
    (XX000) on some and committing duplicate keys on others."""

    NAN = float("nan")

    @pytest.fixture
    def floats(self, session):
        session.execute("create table f (x double primary key, tag int)")
        session.execute_batch(
            "insert into f values (?, ?)", [[2.0, 1], [self.NAN, 2]]
        )
        return session

    def _is_nan(self, value):
        return isinstance(value, float) and value != value

    @pytest.mark.parametrize("spelling", ["execute", "values", "batch"])
    def test_second_nan_key_is_a_duplicate(self, floats, spelling):
        with pytest.raises(errors.UniqueViolationError):
            if spelling == "execute":
                floats.execute("insert into f values (?, 3)", [self.NAN])
            elif spelling == "values":
                floats.execute(
                    "insert into f values (?, 3), (?, 4)", [5.0, self.NAN]
                )
            else:
                floats.execute_batch(
                    "insert into f values (?, ?)", [[5.0, 3], [self.NAN, 4]]
                )
        floats.execute("insert into f values (1.0, 5)")  # NaN vs 1.0: free
        assert floats.execute("select count(*) from f").rows == [[3]]

    def test_order_by_puts_nan_above_numbers(self, floats):
        floats.execute("insert into f values (1e300, 3), (-1.0, 4)")
        rows = floats.execute("select x from f order by x").rows
        assert [r[0] for r in rows[:3]] == [-1.0, 2.0, 1e300]
        assert self._is_nan(rows[3][0])
        desc = floats.execute("select tag from f order by x desc").rows
        assert desc[0] == [2]

    def test_where_compares_nan(self, floats):
        assert floats.execute("select tag from f where x = 2.0").rows \
            == [[1]]
        assert floats.execute(
            "select tag from f where x = ?", [self.NAN]
        ).rows == [[2]]
        assert floats.execute("select tag from f where x > 1e308").rows \
            == [[2]]

    def test_distinct_and_group_by_fold_nans(self, session):
        session.execute("create table g (x double)")
        session.execute_batch(
            "insert into g values (?)",
            [[self.NAN], [float("nan")], [1.0], [self.NAN]],
        )
        rows = session.execute("select distinct x from g").rows
        assert len(rows) == 2
        counts = sorted(
            r[0] for r in session.execute(
                "select count(*) from g group by x"
            ).rows
        )
        assert counts == [1, 3]

    def test_create_index_over_nan(self, floats):
        floats.execute("create index f_x on f (x)")
        point = "select tag from f where x = ?"
        assert floats.explain(point, [self.NAN]).find("IndexScan") is not None
        assert floats.execute(point, [self.NAN]).rows == [[2]]
        assert sorted(
            floats.execute("select tag from f where x >= 2.0").rows
        ) == [[1], [2]]


class TestAlterTable:
    def test_add_column_backfills_null(self, emps):
        emps.execute("alter table emps add column bonus decimal(6,2)")
        rows = emps.execute("select bonus from emps").rows
        assert all(r == [None] for r in rows)
        emps.execute(
            "update emps set bonus = 5 where name = 'Alice'"
        )
        assert emps.execute(
            "select bonus from emps where name = 'Alice'"
        ).rows[0][0] is not None

    def test_add_column_with_default_backfills(self, emps):
        emps.execute(
            "alter table emps add column region integer default 0"
        )
        assert emps.execute(
            "select count(*) from emps where region = 0"
        ).rows == [[8]]

    def test_add_not_null_requires_default_when_rows_exist(self, emps):
        with pytest.raises(errors.NotNullViolationError):
            emps.execute(
                "alter table emps add column must integer not null"
            )
        emps.execute(
            "alter table emps add column must integer not null default 1"
        )

    def test_add_duplicate_column_rejected(self, emps):
        with pytest.raises(errors.DuplicateObjectError):
            emps.execute("alter table emps add column name varchar(10)")

    def test_drop_column(self, emps):
        emps.execute("alter table emps drop column sales")
        result = emps.execute("select * from emps limit 1")
        assert result.column_names() == ["name", "id", "state"]
        with pytest.raises(errors.UndefinedColumnError):
            emps.execute("select sales from emps")

    def test_drop_only_column_rejected(self, session):
        session.execute("create table solo (a integer)")
        with pytest.raises(errors.CatalogError):
            session.execute("alter table solo drop column a")

    def test_add_unique_column_on_populated_table(self, emps):
        with pytest.raises(errors.UniqueViolationError):
            emps.execute(
                "alter table emps add column code integer "
                "unique default 7"
            )
        emps.execute("alter table emps add column code integer unique")

    def test_only_owner_alters(self, emps, db):
        smith = db.create_session(user="smith", autocommit=True)
        with pytest.raises(errors.PrivilegeError):
            smith.execute("alter table emps add column x integer")

    def test_explain_after_alter(self, emps):
        emps.execute("alter table emps add column extra integer")
        # Plans observe the new shape.
        rows = emps.execute("select extra from emps limit 1").rows
        assert rows == [[None]]


class TestSavepoints:
    @pytest.fixture
    def txn(self, db):
        session = db.create_session(autocommit=False)
        session.execute("create table t (a integer)")
        session.execute("insert into t values (1)")
        session.commit()
        return session

    def values(self, session):
        return sorted(
            r[0] for r in session.execute("select a from t").rows
        )

    def test_rollback_to_savepoint(self, txn):
        txn.execute("insert into t values (2)")
        txn.execute("savepoint sp1")
        txn.execute("insert into t values (3)")
        txn.execute("rollback to savepoint sp1")
        assert self.values(txn) == [1, 2]
        txn.commit()
        assert self.values(txn) == [1, 2]

    def test_rollback_to_keeps_transaction_open(self, txn):
        txn.execute("savepoint sp1")
        txn.execute("insert into t values (2)")
        txn.execute("rollback to savepoint sp1")
        txn.execute("insert into t values (9)")
        txn.rollback()
        assert self.values(txn) == [1]

    def test_nested_savepoints(self, txn):
        txn.execute("savepoint outer_sp")
        txn.execute("insert into t values (2)")
        txn.execute("savepoint inner_sp")
        txn.execute("insert into t values (3)")
        txn.execute("rollback to savepoint outer_sp")
        assert self.values(txn) == [1]
        # inner savepoint vanished with the rollback
        with pytest.raises(errors.TransactionError):
            txn.execute("rollback to savepoint inner_sp")

    def test_repeated_rollback_to_same_savepoint(self, txn):
        txn.execute("savepoint sp")
        txn.execute("insert into t values (2)")
        txn.execute("rollback to savepoint sp")
        txn.execute("insert into t values (3)")
        txn.execute("rollback to savepoint sp")
        assert self.values(txn) == [1]

    def test_release(self, txn):
        txn.execute("savepoint sp")
        txn.execute("insert into t values (2)")
        txn.execute("release savepoint sp")
        with pytest.raises(errors.TransactionError):
            txn.execute("rollback to savepoint sp")
        txn.rollback()  # full rollback still works
        assert self.values(txn) == [1]

    def test_unknown_savepoint(self, txn):
        with pytest.raises(errors.TransactionError):
            txn.execute("rollback to savepoint ghost")
        with pytest.raises(errors.TransactionError):
            txn.execute("release savepoint ghost")

    def test_commit_clears_savepoints(self, txn):
        txn.execute("savepoint sp")
        txn.commit()
        with pytest.raises(errors.TransactionError):
            txn.execute("rollback to savepoint sp")
