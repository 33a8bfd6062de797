"""Tests for the Part 0 runtime: contexts and typed iterators."""

import decimal

import pytest

from repro import errors
from repro import DriverManager
from repro import Database
from repro.engine.database import StatementResult
from repro import ConnectionContext
from repro.runtime import (
    NamedIterator,
    PositionalIterator,
)
from repro.runtime.api import resolve_type_name
from repro.runtime.iterators import check_host_type

D = decimal.Decimal


def query_result(session, sql):
    return session.execute(sql)


@pytest.fixture
def people_db():
    database = Database(name="people")
    session = database.create_session(autocommit=True)
    session.execute(
        "create table people (name varchar(50), year integer, "
        "score decimal(6,2))"
    )
    session.execute(
        "insert into people values ('Ann', 1990, 9.5), "
        "('Ben', 1995, 8.25), ('Cal', 1999, null)"
    )
    return database, session


class ByPos(PositionalIterator):
    _column_types = (str, int)


class ByName(NamedIterator):
    _columns = (("year", int), ("name", str))

    def year(self):
        return self._get("year")

    def name(self):
        return self._get("name")


class TestConnectionContext:
    def test_from_database(self, people_db):
        database, _session = people_db
        context = ConnectionContext(database)
        assert context.session.database is database

    def test_from_session(self, people_db):
        _database, session = people_db
        context = ConnectionContext(session)
        assert context.session is session

    def test_from_url(self, people_db):
        context = ConnectionContext("pydbc:standard:ctx_url_db")
        assert context.session.database.name == "ctx_url_db"

    def test_from_dbapi_connection(self, people_db):
        database, _session = people_db
        connection = DriverManager.get_connection(
            "pydbc:standard:x", database=database
        )
        context = ConnectionContext(connection)
        assert context.session is connection.session

    def test_default_context_management(self, people_db):
        database, _session = people_db
        with pytest.raises(errors.ConnectionError_):
            ConnectionContext.get_default_context()
        context = ConnectionContext(database)
        ConnectionContext.set_default_context(context)
        assert ConnectionContext.get_default_context() is context
        context.close()
        with pytest.raises(errors.ConnectionError_):
            ConnectionContext.get_default_context()

    def test_unresolvable_target(self):
        with pytest.raises(errors.ConnectionError_):
            ConnectionContext(42)

    def test_closed_context_rejects_execution(self, people_db):
        database, _session = people_db
        context = ConnectionContext(database)
        context.close()
        with pytest.raises(errors.ConnectionClosedError):
            context.commit()

    def test_context_manager_closes(self, people_db):
        database, _session = people_db
        with ConnectionContext(database) as context:
            pass
        assert context.closed


class TestPositionalIterator:
    def test_fetch_protocol(self, people_db):
        _db, session = people_db
        result = query_result(
            session, "select name, year from people order by year"
        )
        iterator = ByPos(result)
        rows = []
        while True:
            fetched = iterator.fetch_row()
            if fetched is None:
                break
            rows.append(fetched)
        assert rows == [("Ann", 1990), ("Ben", 1995), ("Cal", 1999)]
        assert iterator.endfetch()

    def test_endfetch_false_before_end(self, people_db):
        _db, session = people_db
        iterator = ByPos(
            query_result(session, "select name, year from people")
        )
        iterator.fetch_row()
        assert not iterator.endfetch()

    def test_arity_mismatch_rejected_at_bind(self, people_db):
        _db, session = people_db
        result = query_result(
            session, "select name, year, score from people"
        )
        with pytest.raises(errors.InvalidCastError):
            ByPos(result)

    def test_static_type_mismatch_rejected_at_bind(self, people_db):
        _db, session = people_db
        result = query_result(
            session, "select year, name from people"
        )  # (int, str) against declared (str, int)
        with pytest.raises(errors.InvalidCastError):
            ByPos(result)

    def test_closed_iterator(self, people_db):
        _db, session = people_db
        iterator = ByPos(
            query_result(session, "select name, year from people")
        )
        iterator.close()
        with pytest.raises(errors.InvalidCursorStateError):
            iterator.fetch_row()

    def test_non_rowset_rejected(self):
        with pytest.raises(errors.DataError):
            ByPos(StatementResult("update", update_count=1))


class TestBindingsPerShape:
    """An iterator class works its bindings out once per result shape
    and keeps them by shape: results of other shapes, in any order,
    bind (or fail to bind) as if seen for the first time."""

    def test_alternating_shapes_bind_each_on_its_own(self, people_db):
        _db, session = people_db
        plan_a = session.prepare("select name, year from people "
                                 "order by year")
        plan_b = session.prepare("select year, name from people "
                                 "where year > 1991 order by year")
        plan_c = session.prepare("select name, name as year from people")
        for _ in range(2):
            by_name = ByName(plan_a.execute())
            assert by_name.next() and by_name.year() == 1990
            by_name = ByName(plan_b.execute())
            assert by_name.next() and by_name.name() == "Ben"
            with pytest.raises(errors.InvalidCastError):
                ByName(plan_c.execute())  # year is a string there
            positional = ByPos(plan_a.execute())
            assert positional.fetch_row() == ("Ann", 1990)
            with pytest.raises(errors.InvalidCastError):
                ByPos(plan_b.execute())  # (int, str) against (str, int)

    def test_a_subclass_binds_its_own_columns(self, people_db):
        class YearOnly(ByName):
            _columns = (("year", int),)

        _db, session = people_db
        plan = session.prepare("select year from people order by year")
        assert YearOnly(plan.execute()).next()
        with pytest.raises(errors.UndefinedColumnError):
            ByName(plan.execute())  # no name column: ByName's own check


class TestNamedIterator:
    def test_binds_by_name_any_order(self, people_db):
        _db, session = people_db
        # Query produces (name, year); iterator declares (year, name).
        result = query_result(
            session, "select name, year from people order by year"
        )
        iterator = ByName(result)
        seen = []
        while iterator.next():
            seen.append((iterator.year(), iterator.name()))
        assert seen == [(1990, "Ann"), (1995, "Ben"), (1999, "Cal")]

    def test_missing_column_rejected(self, people_db):
        _db, session = people_db
        result = query_result(session, "select name from people")
        with pytest.raises(errors.UndefinedColumnError):
            ByName(result)

    def test_extra_columns_tolerated(self, people_db):
        _db, session = people_db
        result = query_result(
            session, "select name, year, score from people"
        )
        iterator = ByName(result)
        assert iterator.next()

    def test_wrong_type_rejected_at_bind(self, people_db):
        class BadTypes(NamedIterator):
            _columns = (("year", str),)

        _db, session = people_db
        result = query_result(session, "select year from people")
        with pytest.raises(errors.InvalidCastError):
            BadTypes(result)

    def test_alias_binding(self, people_db):
        # The paper binds named iterators through result-column aliases.
        class ByRegion(NamedIterator):
            _columns = (("region", int),)

            def region(self):
                return self._get("region")

        _db, session = people_db
        result = query_result(
            session, "select year as region from people order by year"
        )
        iterator = ByRegion(result)
        iterator.next()
        assert iterator.region() == 1990

    def test_access_before_next(self, people_db):
        _db, session = people_db
        iterator = ByName(
            query_result(session, "select name, year from people")
        )
        with pytest.raises(errors.InvalidCursorStateError):
            iterator.name()


class TestHostTypeChecking:
    def test_none_passes(self):
        assert check_host_type(None, int) is None

    def test_int_ok(self):
        assert check_host_type(5, int) == 5

    def test_decimal_to_float_widens(self):
        assert check_host_type(D("2.5"), float) == 2.5

    def test_decimal_to_int_rejected(self):
        with pytest.raises(errors.InvalidCastError):
            check_host_type(D("2.5"), int)

    def test_int_to_decimal_ok(self):
        assert check_host_type(5, D) == 5

    def test_bool_guard(self):
        with pytest.raises(errors.InvalidCastError):
            check_host_type(True, int)
        assert check_host_type(True, bool) is True

    def test_string_mismatch(self):
        with pytest.raises(errors.InvalidCastError):
            check_host_type(5, str)

    def test_udt_class_check(self):
        class Widget:
            pass

        widget = Widget()
        assert check_host_type(widget, Widget) is widget
        with pytest.raises(errors.InvalidCastError):
            check_host_type("nope", Widget)

    def test_object_accepts_anything(self):
        assert check_host_type("x", object) == "x"


class TestTypeNameResolution:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("int", int),
            ("str", str),
            ("string", str),
            ("FLOAT", float),
            ("bool", bool),
            ("Decimal", D),
            ("bytes", bytes),
            ("object", object),
        ],
    )
    def test_simple_names(self, name, expected):
        assert resolve_type_name(name) is expected

    def test_type_object_passthrough(self):
        assert resolve_type_name(int) is int

    def test_dotted_path(self):
        cls = resolve_type_name("decimal.Decimal")
        assert cls is D

    def test_unknown_name(self):
        with pytest.raises(errors.TranslationError):
            resolve_type_name("frobnicator")

    def test_bad_dotted_path(self):
        with pytest.raises(errors.TranslationError):
            resolve_type_name("nonexistent_module.Thing")


class TestRuntimeApiEdges:
    def test_load_profile_missing_file(self, tmp_path):
        from repro import errors
        from repro.runtime.api import load_profile

        with pytest.raises(errors.ProfileError):
            load_profile(str(tmp_path / "module.py"), "no_such_profile")

    def test_execute_with_non_context(self, people_db):
        from repro import errors
        from repro.profiles.model import EntryInfo, Profile
        from repro.runtime.api import execute

        profile = Profile(name="x", context_type="Default")
        profile.data.add(EntryInfo(0, "SELECT 1", "QUERY"))
        with pytest.raises(errors.ConnectionError_):
            execute(profile, 0, "not-a-context", ())

    def test_fetch_requires_positional(self, people_db):
        from repro import errors
        from repro.runtime.api import fetch

        _db, session = people_db
        iterator = ByName(
            session.execute("select name, year from people")
        )
        with pytest.raises(errors.InvalidCursorStateError):
            fetch(iterator)

    def test_execute_entry_via_context(self, people_db):
        from repro.profiles.model import EntryInfo, Profile

        database, _session = people_db
        profile = Profile(name="p", context_type="Default")
        profile.data.add(
            EntryInfo(0, "select count(*) from people", "QUERY")
        )
        context = ConnectionContext(database)
        result = context.execute_entry(profile, 0, ())
        assert result.rows == [[3]]
