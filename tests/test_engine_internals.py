"""Direct unit tests for engine internals: catalog, storage,
privilege manager, dialects and the built-in function registry."""

import pytest

from repro import errors
from repro.engine.catalog import (
    Catalog,
    Column,
    InstalledPar,
    Table,
    parse_external_name,
)
from repro.engine.dialects import ACME, DIALECTS, STANDARD, ZENITH
from repro.engine.functions import BUILTINS, NULL_TOLERANT, lookup_builtin
from repro.engine.mvcc import Transaction, TransactionManager, \
    WriteConflict
from repro.engine.privileges import PrivilegeManager
from repro.engine.storage import RowStore
from repro.sqltypes import IntegerType, VarCharType
from repro.testing import FaultPlan


def make_table(name="t"):
    return Table(
        name,
        [Column("a", IntegerType()), Column("b", VarCharType(10))],
        owner="owner",
    )


class TestCatalog:
    def test_table_lifecycle(self):
        catalog = Catalog()
        table = make_table()
        catalog.create_table(table)
        assert catalog.get_table("t") is table
        assert catalog.get_relation("t") is table
        catalog.drop_table("t")
        with pytest.raises(errors.UndefinedTableError):
            catalog.get_table("t")

    def test_duplicate_table(self):
        catalog = Catalog()
        catalog.create_table(make_table())
        with pytest.raises(errors.DuplicateObjectError):
            catalog.create_table(make_table())

    def test_duplicate_column_rejected(self):
        with pytest.raises(errors.DuplicateObjectError):
            Table(
                "t",
                [Column("a", IntegerType()), Column("a", IntegerType())],
                owner="o",
            )

    def test_column_position(self):
        table = make_table()
        assert table.column_position("b") == 1
        assert table.has_column("a")
        assert not table.has_column("z")
        with pytest.raises(errors.UndefinedColumnError):
            table.column_position("z")

    def test_assigning_rows_rebuilds_indexes(self, session):
        """``table.rows = [...]`` replaces the heap under the table's
        indexes, so IndexScans and the unique check see the new rows."""
        session.execute("create table keyed (k int primary key, v int)")
        session.execute("create index keyed_k on keyed (k)")
        session.execute("insert into keyed values (1, 10)")
        session.catalog.get_table("keyed").rows = [[2, 20]]
        select = "select k, v from keyed where k = ?"
        plan = session.execute("explain " + select).rows
        assert any("IndexScan" in line for [line] in plan)
        assert session.execute(select, [2]).rows == [[2, 20]]
        assert session.execute(select, [1]).rows == []
        with pytest.raises(errors.UniqueViolationError):
            session.execute("insert into keyed values (2, 21)")
        session.execute("insert into keyed values (1, 11)")

    def test_par_lifecycle(self):
        catalog = Catalog()
        par = InstalledPar(name="p", url="u", modules={"m": "x = 1"})
        catalog.install_par(par)
        assert catalog.get_par("p") is par
        with pytest.raises(errors.ParInstallationError):
            catalog.install_par(par)
        catalog.remove_par("p")
        with pytest.raises(errors.UndefinedParError):
            catalog.get_par("p")

    @pytest.mark.parametrize(
        "external, expected",
        [
            ("par:mod.func", ("par", "mod", "func")),
            ("par:pkg.mod.func", ("par", "pkg.mod", "func")),
            ("mod.func", (None, "mod", "func")),
            ("Address", (None, "", "Address")),
            ("PAR:mod.f", ("par", "mod", "f")),  # par names fold
        ],
    )
    def test_parse_external_name(self, external, expected):
        assert parse_external_name(external) == expected

    def test_malformed_external_name(self):
        with pytest.raises(errors.RoutineResolutionError):
            parse_external_name("par:mod.")


class _StoreSession:
    """Bare-bones stand-in for :class:`repro.engine.database.Session`:
    just the begun transaction :class:`RowStore` writes through."""

    def __init__(self, manager=None):
        self.manager = manager or TransactionManager()
        self.mvcc_txn = Transaction()
        self.manager.begin(self.mvcc_txn)

    def commit(self):
        stamp = self.manager.stamp(self.mvcc_txn)
        self.manager.finish(self.mvcc_txn)
        return stamp


class TestStorageAndTransactions:
    def test_insert_undo(self):
        table = make_table()
        session = _StoreSession()
        store = RowStore(table, session)
        store.insert([[1, "x"]])
        store.insert([[2, "y"], [3, "z"]])
        assert len(table.versions) == 3
        # Uncommitted inserts are invisible to the committed-rows view
        # but visible to their own transaction.
        assert table.rows == []
        assert all(session.mvcc_txn.sees(v) for v in table.versions)
        session.mvcc_txn.undo()
        assert table.versions == []
        assert session.mvcc_txn.writes == []

    def test_one_append_faults_per_row_before_touching_the_heap(self):
        table = make_table()
        session = _StoreSession()
        store = RowStore(table, session)
        checked = []
        plan = FaultPlan(seed=1).inject(
            "storage.insert", error=errors.OperatorExecutionError,
            after=2, times=1,
        )
        with plan.armed():
            with pytest.raises(errors.OperatorExecutionError):
                store.insert(
                    [[1, "a"], [2, "b"], [3, "c"]],
                    precondition=lambda: checked.append(True),
                )
        # the third row's fault fired before the lock and the check
        assert plan.fired["storage.insert"] == 1
        assert checked == [] and table.versions == []
        assert session.mvcc_txn.writes == []

    def test_failed_precondition_leaves_heap_untouched(self):
        table = make_table()
        session = _StoreSession()

        def reject():
            raise errors.UniqueViolationError("duplicate")

        with pytest.raises(errors.UniqueViolationError):
            RowStore(table, session).insert(
                [[1, "a"], [2, "b"]], precondition=reject
            )
        assert table.versions == []
        assert RowStore(table, session).insert([]) == []
        assert session.mvcc_txn.writes == []

    def test_commit_stamps_versions(self):
        table = make_table()
        table.rows = [[1, "a"]]
        session = _StoreSession()
        store = RowStore(table, session)
        old = table.versions[0]
        store.claim(old)
        [new] = store.replace([[9, "z"]])
        stamp = session.commit()
        assert old.end == stamp
        assert new.begin == stamp
        assert table.rows == [[9, "z"]]

    def test_delete_claim_and_undo(self):
        table = make_table()
        table.rows = [[1, "a"], [2, "b"]]
        session = _StoreSession()
        store = RowStore(table, session)
        target = table.versions[0]
        store.delete([target])
        assert target.xmax == session.mvcc_txn.id
        assert not session.mvcc_txn.sees(target)
        # Claimed but uncommitted: still committed-live for others.
        assert table.rows == [[1, "a"], [2, "b"]]
        session.mvcc_txn.undo()
        assert target.xmax is None
        assert session.mvcc_txn.sees(target)
        assert session.mvcc_txn.writes == []

    def test_commit_clears_log(self, db):
        session = db.create_session()
        session.execute("create table t (a int, b varchar(10))")
        session.execute("insert into t values (1, 'a'), (2, 'b')")
        assert len(session.transaction.writes) == 1  # one append
        session.commit()
        assert session.transaction is None
        session.rollback()  # nothing left to undo
        assert session.execute("select count(*) from t").rows == [[2]]

    def test_leading_savepoint_takes_no_snapshot(self, db):
        """SAVEPOINT opens the transaction, not its snapshot: the first
        statement that reads rows takes it, and sees what committed in
        between."""
        admin = db.create_session(autocommit=True)
        admin.execute("create table t (a int)")
        session = db.create_session()
        session.execute("savepoint sp")
        assert session.in_transaction and session.transaction.id is None
        admin.execute("insert into t values (1)")
        assert session.execute("select count(*) from t").rows == [[1]]
        assert session.transaction.id is not None
        session.execute("rollback to savepoint sp")
        session.rollback()
        assert not session.in_transaction

    def test_interleaved_operations_roll_back_in_order(self):
        table = make_table()
        table.rows = [[1, "a"], [2, "b"]]
        session = _StoreSession()
        store = RowStore(table, session)
        seeded = list(table.versions)
        store.claim(seeded[0])
        store.replace([[10, "a"]])
        store.insert([[3, "c"]])
        store.delete([seeded[1]])
        session.mvcc_txn.undo()
        assert table.rows == [[1, "a"], [2, "b"]]
        assert all(v.xmax is None for v in seeded)
        assert len(table.versions) == 2

    def test_claim_conflict_between_live_transactions(self):
        manager = TransactionManager()
        table = make_table()
        table.rows = [[1, "a"]]
        first = _StoreSession(manager)
        second = _StoreSession(manager)
        version = table.versions[0]
        RowStore(table, first).claim(version)
        with pytest.raises(WriteConflict) as conflict:
            RowStore(table, second).claim(version)
        assert conflict.value.blocker == first.mvcc_txn.id

    def test_claim_of_committed_delete_is_serialization_failure(self):
        manager = TransactionManager()
        table = make_table()
        table.rows = [[1, "a"]]
        first = _StoreSession(manager)
        second = _StoreSession(manager)  # snapshot before first commits
        second.mvcc_txn.pristine = False  # a completed statement pins it
        version = table.versions[0]
        RowStore(table, first).claim(version)
        first.commit()
        with pytest.raises(errors.SerializationFailureError) as info:
            RowStore(table, second).claim(version)
        assert info.value.sqlstate == "40001"

    def test_claim_of_committed_delete_retryable_while_pristine(self):
        """A pristine transaction is not condemned to 40001: the claim
        raises WriteConflict so the session layer can refresh the
        snapshot and transparently re-run the statement."""
        manager = TransactionManager()
        table = make_table()
        table.rows = [[1, "a"]]
        first = _StoreSession(manager)
        second = _StoreSession(manager)  # snapshot before first commits
        version = table.versions[0]
        RowStore(table, first).claim(version)
        first.commit()
        assert second.mvcc_txn.pristine
        with pytest.raises(WriteConflict) as conflict:
            RowStore(table, second).claim(version)
        assert conflict.value.blocker == first.mvcc_txn.id


class TestPrivilegeManager:
    def test_grant_check_revoke(self):
        manager = PrivilegeManager(admin_user="dba")
        manager.grant("SELECT", "TABLE", "t", ["smith"], "owner",
                      "owner")
        assert manager.holds("smith", "SELECT", "TABLE", "t", "owner")
        manager.revoke("SELECT", "TABLE", "t", ["smith"], "owner",
                       "owner")
        assert not manager.holds("smith", "SELECT", "TABLE", "t",
                                 "owner")

    def test_all_expands_to_table_privileges(self):
        manager = PrivilegeManager(admin_user="dba")
        manager.grant("ALL", "TABLE", "t", ["smith"], "owner", "owner")
        for privilege in ("SELECT", "INSERT", "UPDATE", "DELETE"):
            assert manager.holds(
                "smith", privilege, "TABLE", "t", "owner"
            )

    def test_owner_and_admin_implicit(self):
        manager = PrivilegeManager(admin_user="dba")
        assert manager.holds("owner", "SELECT", "TABLE", "t", "owner")
        assert manager.holds("dba", "DELETE", "TABLE", "t", "owner")

    def test_public_grantee(self):
        manager = PrivilegeManager(admin_user="dba")
        manager.grant("USAGE", "PAR", "p", ["public"], "owner", "owner")
        assert manager.holds("anyone", "USAGE", "PAR", "p", "owner")

    def test_only_owner_or_admin_grants(self):
        manager = PrivilegeManager(admin_user="dba")
        with pytest.raises(errors.PrivilegeError):
            manager.grant("SELECT", "TABLE", "t", ["x"], "random",
                          "owner")
        manager.grant("SELECT", "TABLE", "t", ["x"], "dba", "owner")

    def test_invalid_privilege_kind(self):
        manager = PrivilegeManager(admin_user="dba")
        with pytest.raises(errors.CatalogError):
            manager.grant("EXECUTE", "TABLE", "t", ["x"], "owner",
                          "owner")
        with pytest.raises(errors.CatalogError):
            manager.grant("SELECT", "PAR", "p", ["x"], "owner", "owner")

    def test_drop_object_forgets_grants(self):
        manager = PrivilegeManager(admin_user="dba")
        manager.grant("SELECT", "TABLE", "t", ["smith"], "owner",
                      "owner")
        manager.drop_object("TABLE", "t")
        assert not manager.holds("smith", "SELECT", "TABLE", "t",
                                 "owner")

    def test_require_raises(self):
        manager = PrivilegeManager(admin_user="dba")
        with pytest.raises(errors.PrivilegeError):
            manager.require("smith", "SELECT", "TABLE", "t", "owner")


class TestDialects:
    def test_registry_contents(self):
        assert set(DIALECTS) == {"standard", "acme", "zenith"}

    def test_standard_profile(self):
        assert STANDARD.limit_style == "limit"
        assert STANDARD.allows_double_pipe_concat
        assert not STANDARD.plus_concatenates_strings

    def test_acme_profile(self):
        assert ACME.limit_style == "top"
        assert ACME.plus_concatenates_strings
        assert not ACME.allows_double_pipe_concat

    def test_zenith_profile(self):
        assert ZENITH.limit_style == "fetch_first"
        assert ZENITH.allows_double_pipe_concat

    def test_dialects_are_frozen(self):
        with pytest.raises(Exception):
            STANDARD.limit_style = "top"  # type: ignore[misc]


class TestFunctionRegistry:
    def test_lookup_case_insensitive(self):
        assert lookup_builtin("UPPER") is lookup_builtin("upper")
        assert lookup_builtin("no_such_function") is None

    def test_null_tolerant_subset(self):
        assert NULL_TOLERANT <= set(BUILTINS)

    def test_every_builtin_callable(self):
        for name, fn in BUILTINS.items():
            assert callable(fn), name
