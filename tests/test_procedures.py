"""Tests for SQLJ Part 1: archives, routines, invocation, paths."""

import os

import pytest

from repro import errors
from repro import DriverManager
from repro.procedures import build_par, build_par_bytes, read_par
from repro.procedures.archives import url_to_path
from repro.procedures.descriptors import (
    DeploymentDescriptor,
    split_sql_statements,
)
from repro.procedures.paths import parse_path_spec, pattern_matches
from repro.procedures.sqlstate import to_sql_exception
from repro.sqltypes import typecodes


class TestArchives:
    def test_roundtrip(self, tmp_path):
        path = build_par(
            str(tmp_path / "x.par"),
            {"mod_a": "A = 1\n", "pkg.mod_b": "B = 2\n"},
            descriptor="SQLActions[ ] = { BEGIN INSTALL END INSTALL, "
                       "BEGIN REMOVE END REMOVE }",
        )
        modules, descriptor = read_par(path)
        assert set(modules) == {"mod_a", "pkg.mod_b"}
        assert "BEGIN INSTALL" in descriptor

    def test_bytes_roundtrip(self):
        payload = build_par_bytes({"m": "x = 1\n"})
        modules, descriptor = read_par(payload)
        assert modules == {"m": "x = 1\n"}
        assert descriptor is None

    def test_empty_par_rejected(self):
        with pytest.raises(errors.ParInstallationError):
            build_par_bytes({})

    def test_missing_file(self):
        with pytest.raises(errors.ParInstallationError):
            read_par("/nonexistent/whatever.par")

    def test_not_a_zip(self, tmp_path):
        bogus = tmp_path / "bogus.par"
        bogus.write_bytes(b"not a zip at all")
        with pytest.raises(errors.ParInstallationError):
            read_par(str(bogus))

    def test_file_url(self, tmp_path):
        path = build_par(str(tmp_path / "u.par"), {"m": "x = 1\n"})
        modules, _d = read_par(f"file:{path}")
        assert "m" in modules

    def test_url_to_path_expands_home(self):
        assert url_to_path("file:~/x.par").startswith(
            os.path.expanduser("~")
        )


class TestPaths:
    def test_parse_path_spec(self):
        entries = parse_path_spec(
            "(property.*, property_par) (project.*, project_par)"
        )
        assert entries == [
            ("property.*", "property_par"),
            ("project.*", "project_par"),
        ]

    def test_parse_paper_slash_spelling(self):
        entries = parse_path_spec("(property/*, property_jar)")
        assert entries == [("property.*", "property_jar")]

    def test_star_matches_everything(self):
        assert pattern_matches("*", "anything.at.all")

    def test_prefix_pattern(self):
        assert pattern_matches("property.*", "property.utils")
        assert not pattern_matches("property.*", "project.utils")

    def test_malformed_spec(self):
        with pytest.raises(errors.PathResolutionError):
            parse_path_spec("not a path spec")

    def test_cross_archive_import(self, session, tmp_path):
        helper = build_par(
            str(tmp_path / "helper.par"),
            {"helper_mod": "def helping():\n    return 41\n"},
        )
        app = build_par(
            str(tmp_path / "app.par"),
            {
                "app_mod": (
                    "import helper_mod\n"
                    "def answer():\n"
                    "    return helper_mod.helping() + 1\n"
                )
            },
        )
        session.execute(f"call sqlj.install_par('{helper}', 'helper_par')")
        session.execute(f"call sqlj.install_par('{app}', 'app_par')")
        session.execute(
            "call sqlj.alter_module_path('app_par', '(*, helper_par)')"
        )
        session.execute(
            "create function answer() returns integer no sql "
            "external name 'app_par:app_mod.answer' "
            "language python parameter style python"
        )
        assert session.execute("select answer()").rows == [[42]]

    def test_unresolved_import_is_lazy_like_class_loading(
        self, session, tmp_path
    ):
        # Install succeeds (paths may be configured afterwards); using a
        # routine from the unresolvable module fails.
        app = build_par(
            str(tmp_path / "broken.par"),
            {"broken_mod": "import missing_helper\ndef f():\n    pass\n"},
        )
        session.execute(f"call sqlj.install_par('{app}', 'broken_par')")
        assert "broken_par" in session.catalog.pars
        with pytest.raises(errors.SQLException):
            session.execute(
                "create procedure f() no sql external name "
                "'broken_par:broken_mod.f' language python "
                "parameter style python"
            )

    def test_syntax_error_fails_at_install(self, session, tmp_path):
        app = build_par(
            str(tmp_path / "app2.par"),
            {"app2_mod": "def broken(:\n"},
        )
        with pytest.raises(errors.SQLException):
            session.execute(f"call sqlj.install_par('{app}', 'app2')")
        assert "app2" not in session.catalog.pars


class TestInstallRemoveReplace:
    def test_install_registers_archive(self, session, routines_par):
        session.execute(
            f"call sqlj.install_par('{routines_par}', 'rp')"
        )
        par = session.catalog.get_par("rp")
        assert set(par.modules) == {"routines1", "routines2", "routines3"}
        assert par.owner == "dba"

    def test_double_install_rejected(self, session, routines_par):
        session.execute(f"call sqlj.install_par('{routines_par}', 'rp')")
        with pytest.raises(errors.ParInstallationError):
            session.execute(
                f"call sqlj.install_par('{routines_par}', 'rp')"
            )

    def test_remove(self, session, routines_par):
        session.execute(f"call sqlj.install_par('{routines_par}', 'rp')")
        session.execute("call sqlj.remove_par('rp')")
        assert "rp" not in session.catalog.pars

    def test_remove_blocked_by_dependent_routine(self, payroll):
        with pytest.raises(errors.ParInstallationError):
            payroll.execute("call sqlj.remove_par('routines_par')")

    def test_remove_unknown(self, session):
        with pytest.raises(errors.UndefinedParError):
            session.execute("call sqlj.remove_par('ghost')")

    def test_replace_changes_behaviour(self, session, tmp_path):
        v1 = build_par(
            str(tmp_path / "v1.par"),
            {"vmod": "def version():\n    return 1\n"},
        )
        v2 = build_par(
            str(tmp_path / "v2.par"),
            {"vmod": "def version():\n    return 2\n"},
        )
        session.execute(f"call sqlj.install_par('{v1}', 'vp')")
        session.execute(
            "create function v() returns integer no sql "
            "external name 'vp:vmod.version' "
            "language python parameter style python"
        )
        assert session.execute("select v()").rows == [[1]]
        session.execute(f"call sqlj.replace_par('{v2}', 'vp')")
        assert session.execute("select v()").rows == [[2]]

    def test_replace_rolls_back_on_resolution_failure(
        self, session, tmp_path
    ):
        v1 = build_par(
            str(tmp_path / "w1.par"),
            {"wmod": "def w():\n    return 1\n"},
        )
        bad = build_par(
            str(tmp_path / "w2.par"),
            {"wmod": "def other_name():\n    return 2\n"},
        )
        session.execute(f"call sqlj.install_par('{v1}', 'wp')")
        session.execute(
            "create function w() returns integer no sql "
            "external name 'wp:wmod.w' language python "
            "parameter style python"
        )
        with pytest.raises(errors.SQLException):
            session.execute(f"call sqlj.replace_par('{bad}', 'wp')")
        assert session.execute("select w()").rows == [[1]]

    def test_only_owner_administers_par(self, db, routines_par):
        installer = db.create_session(user="installer", autocommit=True)
        installer.execute(
            f"call sqlj.install_par('{routines_par}', 'mine')"
        )
        other = db.create_session(user="other", autocommit=True)
        with pytest.raises(errors.PrivilegeError):
            other.execute("call sqlj.remove_par('mine')")


class TestSystemProceduresStay:
    """The sqlj.* procedures cannot be dropped: nothing re-registers
    one, so the database would lose the verb for good."""

    SYSTEM = ["install_par", "remove_par", "replace_par",
              "alter_module_path"]

    @pytest.mark.parametrize("name", SYSTEM)
    def test_drop_is_refused_even_to_the_admin(self, session, name):
        with pytest.raises(errors.PrivilegeError) as raised:
            session.execute(f"drop procedure sqlj.{name}")
        assert raised.value.sqlstate == "42501"
        assert session.catalog.get_routine(f"sqlj.{name}").language \
            == "SYSTEM"

    def test_refused_across_a_durable_reopen(self, tmp_path,
                                             routines_par):
        from repro.engine.durability import open_database

        directory = str(tmp_path / "db")
        db = open_database(directory)
        admin = db.create_session(autocommit=True)
        with pytest.raises(errors.PrivilegeError):
            admin.execute("drop procedure sqlj.install_par")
        db.close()
        db = open_database(directory)
        try:
            admin = db.create_session(autocommit=True)
            with pytest.raises(errors.PrivilegeError):
                admin.execute("drop procedure sqlj.install_par")
            admin.execute(f"call sqlj.install_par('{routines_par}', 'rp')")
            assert "rp" in admin.catalog.pars
        finally:
            db.close()


class TestCreateRoutine:
    def test_function_registration(self, payroll):
        routine = payroll.catalog.get_routine("region_of")
        assert routine.kind == "FUNCTION"
        assert routine.par_name == "routines_par"
        assert routine.callable is not None

    def test_unknown_par(self, session):
        with pytest.raises(errors.UndefinedParError):
            session.execute(
                "create function f() returns integer no sql "
                "external name 'nopar:m.f' language python "
                "parameter style python"
            )

    def test_unknown_member(self, session, routines_par):
        session.execute(f"call sqlj.install_par('{routines_par}', 'rp')")
        with pytest.raises(errors.RoutineResolutionError):
            session.execute(
                "create function f() returns integer no sql "
                "external name 'rp:routines1.missing' "
                "language python parameter style python"
            )

    def test_arity_mismatch_detected_at_create(self, session,
                                               routines_par):
        session.execute(f"call sqlj.install_par('{routines_par}', 'rp')")
        with pytest.raises(errors.RoutineResolutionError):
            session.execute(
                "create function f(a integer, b integer) "
                "returns integer no sql "
                "external name 'rp:routines1.region' "
                "language python parameter style python"
            )

    def test_function_with_out_param_rejected(self, session):
        with pytest.raises(errors.SQLSyntaxError):
            session.execute(
                "create function f(out x integer) returns integer "
                "no sql external name 'a.b' language python "
                "parameter style python"
            )

    def test_external_name_required(self, session):
        with pytest.raises(errors.SQLSyntaxError):
            session.execute(
                "create procedure p() language python "
                "parameter style python"
            )

    def test_direct_module_external_name(self, session):
        # Module importable from the ordinary Python path.
        session.execute(
            "create function strip_it(s varchar(100)) "
            "returns varchar(100) no sql "
            "external name 'tests.paper_assets.region_of' "
            "language python parameter style python"
        )
        # region_of('CA') -> 3, coerced to VARCHAR? No: declared returns
        # varchar, int 3 is not a str -> InvalidCast at call time.
        with pytest.raises(errors.InvalidCastError):
            session.execute("select strip_it('CA')")

    def test_duplicate_routine_rejected(self, payroll):
        with pytest.raises(errors.DuplicateObjectError):
            payroll.execute(
                "create function region_of(state char(20)) "
                "returns integer no sql "
                "external name 'routines_par:routines1.region' "
                "language python parameter style python"
            )

    def test_drop_function(self, payroll):
        payroll.execute("drop function region_of")
        with pytest.raises(errors.UndefinedRoutineError):
            payroll.execute("select region_of('CA')")

    def test_drop_wrong_kind(self, payroll):
        with pytest.raises(errors.UndefinedRoutineError):
            payroll.execute("drop procedure region_of")


class TestInvocation:
    def test_function_in_expression(self, payroll):
        result = payroll.execute(
            "select name, region_of(state) as region from emps "
            "where region_of(state) = 3 order by name"
        )
        assert [r[0] for r in result.rows] == ["Alice", "Carol", "Hank"]

    def test_function_result_coerced(self, payroll):
        result = payroll.execute("select region_of('CA')")
        assert result.rows == [[3]]

    def test_procedure_updates_data(self, payroll):
        payroll.execute(
            "insert into emps values ('Pat', 'E9', 'CAL', 1)"
        )
        payroll.execute("call correct_states('CAL', 'CA')")
        assert payroll.execute(
            "select state from emps where name = 'Pat'"
        ).rows[0][0].strip() == "CA"

    def test_call_function_rejected(self, payroll):
        with pytest.raises(errors.SQLSyntaxError):
            payroll.execute("call region_of('CA')")

    def test_select_procedure_rejected(self, payroll):
        # A procedure is not visible as a function in expressions.
        with pytest.raises(errors.UndefinedRoutineError):
            payroll.execute("select correct_states('A', 'B')")

    def test_call_arity_checked(self, payroll):
        with pytest.raises(errors.SQLSyntaxError):
            payroll.execute("call correct_states('only-one')")

    def test_uncaught_exception_becomes_sqlstate(self, session, tmp_path):
        par = build_par(
            str(tmp_path / "boom.par"),
            {
                "boom": (
                    "def explode():\n"
                    "    raise RuntimeError('the message text')\n"
                    "def divide():\n"
                    "    return 1 // 0\n"
                )
            },
        )
        session.execute(f"call sqlj.install_par('{par}', 'bp')")
        session.execute(
            "create procedure explode() no sql "
            "external name 'bp:boom.explode' language python "
            "parameter style python"
        )
        session.execute(
            "create function divide() returns integer no sql "
            "external name 'bp:boom.divide' language python "
            "parameter style python"
        )
        with pytest.raises(errors.ExternalRoutineError) as info:
            session.execute("call explode()")
        assert info.value.message == "the message text"
        assert info.value.sqlstate == "38000"
        with pytest.raises(errors.SQLException) as info:
            session.execute("select divide()")
        assert info.value.sqlstate == "22012"

    def test_char_params_arrive_trimmed(self, payroll):
        # region_of declared as char(20); host code sees 'CA', not padded.
        assert payroll.execute(
            "select region_of(state) from emps where name = 'Alice'"
        ).rows == [[3]]


class TestOutParameters:
    def test_best2_via_callable_statement(self, payroll, db):
        conn = DriverManager.get_connection(
            "pydbc:standard:x", database=db
        )
        stmt = conn.prepare_call("{call best2(?,?,?,?,?,?,?,?,?)}")
        for i in (1, 2, 5, 6):
            stmt.register_out_parameter(i, typecodes.VARCHAR)
        for i in (3, 7):
            stmt.register_out_parameter(i, typecodes.INTEGER)
        for i in (4, 8):
            stmt.register_out_parameter(i, typecodes.DECIMAL)
        stmt.set_int(9, 2)
        stmt.execute()
        # Region > 2 employees by sales: Alice (100.50), Hank (99.99).
        assert stmt.get_string(1) == "Alice"
        assert stmt.get_int(3) == 3
        assert str(stmt.get_decimal(4)) == "100.50"
        assert stmt.get_string(5) == "Hank"

    def test_unregistered_out_access_rejected(self, payroll, db):
        conn = DriverManager.get_connection(
            "pydbc:standard:x", database=db
        )
        stmt = conn.prepare_call("{call best2(?,?,?,?,?,?,?,?,?)}")
        stmt.set_int(9, 2)
        stmt.execute()
        with pytest.raises(errors.DataError):
            stmt.get_string(1)

    def test_register_non_marker_rejected(self, payroll, db):
        conn = DriverManager.get_connection(
            "pydbc:standard:x", database=db
        )
        stmt = conn.prepare_call("{call correct_states('A', ?)}")
        with pytest.raises(errors.DataError):
            stmt.register_out_parameter(2, typecodes.VARCHAR)
        # marker 1 is the second argument; registering it is fine
        stmt.register_out_parameter(1, typecodes.VARCHAR)

    def test_callable_requires_call(self, payroll, db):
        conn = DriverManager.get_connection(
            "pydbc:standard:x", database=db
        )
        with pytest.raises(errors.SQLSyntaxError):
            conn.prepare_call("select 1")

    def test_out_value_coerced_to_declared_type(self, session, tmp_path):
        par = build_par(
            str(tmp_path / "outs.par"),
            {
                "outs": (
                    "def fill(container):\n"
                    "    container[0] = '  padded'\n"
                )
            },
        )
        session.execute(f"call sqlj.install_par('{par}', 'op')")
        session.execute(
            "create procedure fill(out x char(10)) no sql "
            "external name 'op:outs.fill' language python "
            "parameter style python"
        )
        result = session.execute("call fill(?)")
        assert result.out_values[0] == "  padded  "  # CHAR(10) padded


class TestDynamicResultSets:
    def test_ranked_emps(self, payroll, db):
        conn = DriverManager.get_connection(
            "pydbc:standard:x", database=db
        )
        stmt = conn.prepare_call("{call ranked_emps(?)}")
        stmt.set_int(1, 2)
        assert stmt.execute() is True
        rs = stmt.get_result_set()
        names = []
        while rs.next():
            names.append(
                (rs.get_string("name"), rs.get_int("region"))
            )
        assert names == [
            ("Alice", 3), ("Hank", 3), ("Carol", 3),
        ]
        assert stmt.get_more_results() is False

    def test_multiple_result_sets(self, session, emps, tmp_path):
        par = build_par(
            str(tmp_path / "multi.par"),
            {
                "multi": (
                    "from repro import DriverManager\n"
                    "def two_sets(rs1, rs2):\n"
                    "    conn = DriverManager.get_connection("
                    "'DBAPI:DEFAULT:CONNECTION')\n"
                    "    s = conn.create_statement()\n"
                    "    rs1[0] = s.execute_query("
                    "\"select name from emps where state = 'CA'\")\n"
                    "    s2 = conn.create_statement()\n"
                    "    rs2[0] = s2.execute_query("
                    "\"select name from emps where state = 'MN'\")\n"
                )
            },
        )
        session.execute(f"call sqlj.install_par('{par}', 'mp')")
        session.execute(
            "create procedure two_sets() dynamic result sets 2 "
            "reads sql data external name 'mp:multi.two_sets' "
            "language python parameter style python"
        )
        result = session.execute("call two_sets()")
        assert len(result.result_sets) == 2
        assert result.result_sets[0].rows == [["Alice"]]
        assert result.result_sets[1].rows == [["Bob"]]


class TestDeploymentDescriptors:
    DESCRIPTOR = """
    SQLActions[ ] = {
      BEGIN INSTALL
        create function region_of(state char(20)) returns integer
          no sql external name 'dd_par:routines1.region'
          language python parameter style python;
        grant execute on region_of to public;
      END INSTALL,
      BEGIN REMOVE
        drop function region_of;
      END REMOVE
    }
    """

    def test_parse(self):
        descriptor = DeploymentDescriptor.parse(self.DESCRIPTOR)
        assert len(descriptor.install_actions) == 2
        assert len(descriptor.remove_actions) == 1
        assert descriptor.install_actions[1].startswith("grant execute")

    def test_render_roundtrip(self):
        descriptor = DeploymentDescriptor.parse(self.DESCRIPTOR)
        again = DeploymentDescriptor.parse(descriptor.render())
        assert again.install_actions == descriptor.install_actions
        assert again.remove_actions == descriptor.remove_actions

    def test_missing_header(self):
        with pytest.raises(errors.ParInstallationError):
            DeploymentDescriptor.parse("BEGIN INSTALL END INSTALL")

    def test_split_statements_honours_strings(self):
        statements = split_sql_statements(
            "insert into t values ('a;b'); delete from t"
        )
        assert statements == [
            "insert into t values ('a;b')",
            "delete from t",
        ]

    def test_split_statements_strips_comments(self):
        statements = split_sql_statements(
            "-- leading comment\nselect 1; -- trailing\nselect 2"
        )
        assert statements == ["select 1", "select 2"]

    def test_install_runs_descriptor_actions(
        self, emps, tmp_path
    ):
        from tests import paper_assets

        par = build_par(
            str(tmp_path / "dd.par"),
            {"routines1": paper_assets.ROUTINES1_SOURCE},
            descriptor=self.DESCRIPTOR,
        )
        emps.execute(f"call sqlj.install_par('{par}', 'dd_par')")
        # The descriptor's CREATE FUNCTION ran implicitly.
        assert emps.execute("select region_of('MN')").rows == [[1]]

    def test_remove_runs_descriptor_actions(self, emps, tmp_path):
        from tests import paper_assets

        par = build_par(
            str(tmp_path / "dd2.par"),
            {"routines1": paper_assets.ROUTINES1_SOURCE},
            descriptor=self.DESCRIPTOR.replace("dd_par", "dd2_par"),
        )
        emps.execute(f"call sqlj.install_par('{par}', 'dd2_par')")
        emps.execute("call sqlj.remove_par('dd2_par')")
        with pytest.raises(errors.UndefinedRoutineError):
            emps.execute("select region_of('MN')")
        assert "dd2_par" not in emps.catalog.pars


class TestSqlStateMapping:
    @pytest.mark.parametrize(
        "exc, state",
        [
            (ZeroDivisionError("z"), "22012"),
            (ValueError("v"), "22023"),
            (TypeError("t"), "39004"),
            (KeyError("k"), "22023"),
            (RuntimeError("r"), "38000"),
        ],
    )
    def test_mapping(self, exc, state):
        assert to_sql_exception(exc).sqlstate == state

    def test_sql_exception_passthrough(self):
        original = errors.UndefinedTableError("t")
        assert to_sql_exception(original) is original


class TestNestedProcedureCalls:
    NESTED = '''
from repro import DriverManager


def leaf(amount):
    conn = DriverManager.get_connection("DBAPI:DEFAULT:CONNECTION")
    stmt = conn.prepare_statement(
        "update emps set sales = sales + ? where sales is not null")
    stmt.set_int(1, amount)
    stmt.execute_update()


def trunk(amount):
    # "Callable ... from other SQL stored procedures" (the paper):
    # a procedure CALLing another procedure through its own connection.
    conn = DriverManager.get_connection("DBAPI:DEFAULT:CONNECTION")
    stmt = conn.prepare_call("{call leaf_proc(?)}")
    stmt.set_int(1, amount)
    stmt.execute()
    stmt2 = conn.prepare_call("{call leaf_proc(?)}")
    stmt2.set_int(1, amount)
    stmt2.execute()
'''

    def test_procedure_calls_procedure(self, emps, tmp_path):
        session = emps
        par = build_par(
            str(tmp_path / "nested.par"), {"nestedmod": self.NESTED}
        )
        session.execute(f"call sqlj.install_par('{par}', 'np')")
        session.execute(
            "create procedure leaf_proc(amount integer) "
            "modifies sql data external name 'np:nestedmod.leaf' "
            "language python parameter style python"
        )
        session.execute(
            "create procedure trunk_proc(amount integer) "
            "modifies sql data external name 'np:nestedmod.trunk' "
            "language python parameter style python"
        )
        before = session.execute(
            "select sales from emps where name = 'Alice'"
        ).rows[0][0]
        session.execute("call trunk_proc(10)")
        after = session.execute(
            "select sales from emps where name = 'Alice'"
        ).rows[0][0]
        assert after == before + 20  # leaf ran twice

    def test_function_inside_procedure_query(self, payroll):
        # ranked_emps's internal query itself calls region_of: external
        # function invocation nested inside an external procedure.
        result = payroll.execute("call ranked_emps(0)")
        assert result.result_sets
        assert result.result_sets[0].rows
