"""Tests for the SQLJ Part 0 translator: scanning, checking, codegen."""

import importlib
import os
import sys

import pytest

from repro import errors
from repro import Database
from repro.profiles.serialization import save_profile
from repro import ConnectionContext
from repro.translator import (
    TranslationOptions,
    Translator,
    translate_file,
    translate_source,
)
from repro.translator.checker import CheckMessage, SQLChecker
from repro.translator.clauses import (
    ContextDecl,
    ExecutableClause,
    IteratorDecl,
    scan_source,
)
from repro.translator.hostvars import extract_host_variables, parse_fetch


class TestScanner:
    def test_passthrough_lines_preserved(self):
        program = scan_source("x = 1\ny = 2\n")
        assert [i.text for i in program.items] == ["x = 1", "y = 2"]

    def test_context_declaration(self):
        program = scan_source("#sql context Department;")
        decl = program.items[0]
        assert isinstance(decl, ContextDecl)
        assert decl.name == "Department"

    def test_positional_iterator(self):
        program = scan_source("#sql iterator ByPos (str, int);")
        decl = program.items[0]
        assert isinstance(decl, IteratorDecl)
        assert decl.positional
        assert decl.columns == [(None, "str"), (None, "int")]

    def test_named_iterator(self):
        program = scan_source(
            "#sql public iterator ByName (int year, str name);"
        )
        decl = program.items[0]
        assert not decl.positional
        assert decl.public
        assert decl.columns == [("year", "int"), ("name", "str")]

    def test_mixed_iterator_columns_rejected(self):
        with pytest.raises(errors.TranslationError):
            scan_source("#sql iterator Bad (int year, str);")

    def test_executable_clause(self):
        program = scan_source(
            "#sql { INSERT INTO emp VALUES (:n) };"
        )
        clause = program.items[0]
        assert isinstance(clause, ExecutableClause)
        assert clause.sql == "INSERT INTO emp VALUES (:n)"

    def test_context_expression(self):
        program = scan_source("#sql [dept] { DELETE FROM emp };")
        assert program.items[0].context_expr == "dept"

    def test_assignment_clause(self):
        program = scan_source(
            "#sql positer = { SELECT name FROM people };"
        )
        assert program.items[0].target == "positer"

    def test_multiline_clause(self):
        program = scan_source(
            "#sql positer = {\n"
            "    SELECT name, year\n"
            "    FROM people\n"
            "};\n"
        )
        clause = program.items[0]
        assert "FROM people" in clause.sql
        assert clause.line == 1

    def test_semicolon_inside_sql_string(self):
        program = scan_source(
            "#sql { INSERT INTO t VALUES ('a;b') };"
        )
        assert program.items[0].sql == "INSERT INTO t VALUES ('a;b')"

    def test_unterminated_clause(self):
        with pytest.raises(errors.TranslationError):
            scan_source("#sql { SELECT 1 }")

    def test_indentation_captured(self):
        program = scan_source("    #sql { DELETE FROM t };")
        assert program.items[0].indent == "    "

    def test_annotations_collected(self):
        program = scan_source("positer: ByPos\nother = 3\n")
        assert program.annotations == {"positer": "ByPos"}

    def test_public_on_executable_rejected(self):
        with pytest.raises(errors.TranslationError):
            scan_source("#sql public { DELETE FROM t };")


class TestHostVariables:
    def test_extraction_order(self):
        sql, variables = extract_host_variables(
            "INSERT INTO t VALUES (:a, :b, :a)"
        )
        assert sql == "INSERT INTO t VALUES (?, ?, ?)"
        assert [v.name for v in variables] == ["a", "b", "a"]
        assert all(v.mode == "IN" for v in variables)

    def test_modes(self):
        _sql, variables = extract_host_variables(
            "CALL best2(:OUT n1, :INOUT x, :IN region, :plain)"
        )
        assert [(v.name, v.mode) for v in variables] == [
            ("n1", "OUT"), ("x", "INOUT"), ("region", "IN"),
            ("plain", "IN"),
        ]

    def test_mode_keyword_as_variable_name(self):
        # ``:out`` alone is a variable named "out", not a mode.
        _sql, variables = extract_host_variables("SELECT :out FROM t")
        assert [(v.name, v.mode) for v in variables] == [("out", "IN")]

    def test_colon_in_string_untouched(self):
        sql, variables = extract_host_variables(
            "SELECT ':notavar' FROM t WHERE a = :x"
        )
        assert [v.name for v in variables] == ["x"]
        assert "':notavar'" in sql

    def test_malformed_hostvar(self):
        with pytest.raises(errors.TranslationError):
            extract_host_variables("SELECT : FROM t")

    def test_fetch_parsing(self):
        fetch = parse_fetch("FETCH :iter INTO :a, :b")
        assert fetch.iterator_var == "iter"
        assert fetch.targets == ["a", "b"]

    def test_fetch_requires_hostvar_targets(self):
        with pytest.raises(errors.TranslationError):
            parse_fetch("FETCH :iter INTO a, b")

    def test_non_fetch_returns_none(self):
        assert parse_fetch("SELECT 1 FROM t") is None


def exemplar_db():
    database = Database(name="exemplar")
    session = database.create_session(autocommit=True)
    session.execute(
        "create table people (name varchar(50), year integer)"
    )
    return database


GOOD_SOURCE = """
#sql iterator ByPos (str, int);
#sql public iterator ByName (int year, str name);

def insert_person(n, y):
    #sql { INSERT INTO people VALUES (:n, :y) };
    pass

def read_positional():
    out = []
    it: ByPos
    #sql it = { SELECT name, year FROM people };
    name = None
    year = 0
    while True:
        #sql { FETCH :it INTO :name, :year };
        if it.endfetch():
            break
        out.append((name, year))
    it.close()
    return out

def read_named():
    out = []
    it: ByName
    #sql it = { SELECT name, year FROM people };
    while it.next():
        out.append((it.year(), it.name()))
    it.close()
    return out
"""


class TestChecking:
    def test_good_source_translates(self):
        options = TranslationOptions(exemplar=exemplar_db())
        result = translate_source(GOOD_SOURCE, "good_mod", options)
        assert result.profiles
        assert not [m for m in result.messages if m.is_error]

    def test_offline_catches_syntax_errors(self):
        source = "#sql { SELEKT name FROM people };\n"
        with pytest.raises(errors.TranslationError) as info:
            translate_source(source, "bad_syntax")
        assert "syntax" in str(info.value).lower()

    def test_online_catches_unknown_table(self):
        source = "#sql { SELECT name FROM persons };\n"
        options = TranslationOptions(exemplar=exemplar_db())
        with pytest.raises(errors.TranslationError) as info:
            translate_source(source, "bad_table", options)
        assert "persons" in str(info.value)

    def test_online_catches_unknown_column(self):
        source = "#sql { SELECT wages FROM people };\n"
        options = TranslationOptions(exemplar=exemplar_db())
        with pytest.raises(errors.TranslationError):
            translate_source(source, "bad_col", options)

    def test_online_catches_type_mismatch(self):
        source = "#sql { SELECT name FROM people WHERE year = 'nope' };\n"
        options = TranslationOptions(exemplar=exemplar_db())
        with pytest.raises(errors.TranslationError):
            translate_source(source, "bad_type", options)

    def test_online_catches_insert_arity(self):
        source = "#sql { INSERT INTO people VALUES (:a) };\n"
        options = TranslationOptions(exemplar=exemplar_db())
        with pytest.raises(errors.TranslationError):
            translate_source(source, "bad_arity", options)

    def test_offline_alone_misses_semantic_errors(self):
        source = "#sql { SELECT wages FROM persons };\n"
        result = translate_source(source, "not_checked")
        assert result.python_source  # translates fine without exemplar

    def test_iterator_arity_mismatch_detected(self):
        source = (
            "#sql iterator ByPos (str, int, float);\n"
            "it: ByPos\n"
            "#sql it = { SELECT name, year FROM people };\n"
        )
        options = TranslationOptions(exemplar=exemplar_db())
        with pytest.raises(errors.TranslationError) as info:
            translate_source(source, "bad_iter", options)
        assert "3 columns" in str(info.value)

    def test_iterator_type_mismatch_detected(self):
        source = (
            "#sql iterator ByPos (int, int);\n"
            "it: ByPos\n"
            "#sql it = { SELECT name, year FROM people };\n"
        )
        options = TranslationOptions(exemplar=exemplar_db())
        with pytest.raises(errors.TranslationError):
            translate_source(source, "bad_iter_types", options)

    def test_named_iterator_missing_column_detected(self):
        source = (
            "#sql iterator ByName (int wages);\n"
            "it: ByName\n"
            "#sql it = { SELECT name, year FROM people };\n"
        )
        options = TranslationOptions(exemplar=exemplar_db())
        with pytest.raises(errors.TranslationError):
            translate_source(source, "bad_named", options)

    def test_unannotated_iterator_variable_rejected(self):
        source = "#sql it = { SELECT name FROM people };\n"
        with pytest.raises(errors.TranslationError) as info:
            translate_source(source, "no_annotation")
        assert "annotation" in str(info.value)

    def test_undeclared_iterator_class_rejected(self):
        source = (
            "it: SomewhereElse\n"
            "#sql it = { SELECT name FROM people };\n"
        )
        with pytest.raises(errors.TranslationError):
            translate_source(source, "undeclared_iter")

    def test_fetch_arity_checked(self):
        source = (
            "#sql iterator ByPos (str, int);\n"
            "it: ByPos\n"
            "#sql it = { SELECT name, year FROM people };\n"
            "#sql { FETCH :it INTO :only_one };\n"
        )
        with pytest.raises(errors.TranslationError) as info:
            translate_source(source, "bad_fetch")
        assert "FETCH" in str(info.value)

    def test_fetch_on_named_iterator_rejected(self):
        source = (
            "#sql iterator ByName (str name);\n"
            "it: ByName\n"
            "#sql it = { SELECT name FROM people };\n"
            "#sql { FETCH :it INTO :x };\n"
        )
        with pytest.raises(errors.TranslationError):
            translate_source(source, "named_fetch")

    def test_assignment_requires_query(self):
        source = (
            "#sql iterator ByPos (str);\n"
            "it: ByPos\n"
            "#sql it = { DELETE FROM people };\n"
        )
        with pytest.raises(errors.TranslationError):
            translate_source(source, "assign_update")

    def test_call_arity_checked_online(self):
        database = exemplar_db()
        session = database.create_session(autocommit=True)
        session.execute(
            "create procedure noop() no sql external name "
            "'tests.paper_assets.emps_insert_statements' "
            "language python parameter style python"
        )
        options = TranslationOptions(exemplar=database)
        with pytest.raises(errors.TranslationError):
            translate_source(
                "#sql { CALL noop(:x) };\n", "bad_call", options
            )

    def test_plugin_checker_invoked(self):
        class VetoChecker(SQLChecker):
            name = "veto"

            def check(self, entry):
                return [self._error("vetoed by plugin", entry)]

        options = TranslationOptions(checkers=[VetoChecker()])
        with pytest.raises(errors.TranslationError) as info:
            translate_source(
                "#sql { DELETE FROM people };\n", "veto_mod", options
            )
        assert "vetoed by plugin" in str(info.value)

    def test_context_scoped_checker(self):
        class CountChecker(SQLChecker):
            name = "count"

            def __init__(self):
                self.seen = []

            def check(self, entry):
                self.seen.append(entry.sql)
                return []

        scoped = CountChecker()
        options = TranslationOptions(
            context_checkers={"dept": [scoped]}
        )
        translate_source(
            "#sql context Dept;\n"
            "#sql [dept] { DELETE FROM a };\n"
            "#sql { DELETE FROM b };\n",
            "scoped_mod",
            options,
        )
        assert scoped.seen == ["DELETE FROM a"]

    def test_warnings_as_errors(self):
        class WarnChecker(SQLChecker):
            name = "warn"

            def check(self, entry):
                return [self._warning("just a warning", entry)]

        source = "#sql { DELETE FROM people };\n"
        lenient = TranslationOptions(checkers=[WarnChecker()])
        translate_source(source, "warn_ok", lenient)
        strict = TranslationOptions(
            checkers=[WarnChecker()], warnings_as_errors=True
        )
        with pytest.raises(errors.TranslationError):
            translate_source(source, "warn_fail", strict)

    def test_error_carries_all_messages(self):
        source = (
            "#sql { SELEKT 1 };\n"
            "#sql { ALSO BAD };\n"
        )
        with pytest.raises(errors.TranslationError) as info:
            translate_source(source, "multi_bad")
        messages = info.value.messages
        assert len([m for m in messages if m.is_error]) == 2

    def test_invalid_module_name(self):
        with pytest.raises(errors.TranslationError):
            translate_source("x = 1\n", "not-valid!")


# ---------------------------------------------------------------------------
# the checker IS the engine's compile step
# ---------------------------------------------------------------------------


class Pos:
    """Part 2 value for the ``pos`` column of the checker schema."""

    def __init__(self, x, y):
        self.x = x
        self.y = y


CHECKER_SCHEMA = [
    f"create type pos external name '{Pos.__module__}.Pos' "
    "language python (x integer external name x, "
    "y integer external name y, "
    "method pos (x integer, y integer) returns pos external name Pos)",
    "create table acct (k integer primary key, name varchar(10), pos pos)",
    "create view acct_v as select k, name from acct",
    "create table src (a integer, b integer)",
]
#: The one row ``acct`` matches ``k = 1`` with.
CHECKER_ROW = "insert into acct values (1, 'a', new pos(1, 2))"

#: name: (sql, params, SQLSTATE raised at compile time — by the checker,
#: ``prepare`` and every execution alike —, else the run-time SQLSTATE
#: on the empty table and on the one-matching-row table).
CHECKER_CASES = {
    # the checker and the engine used to disagree on these
    "insert_duplicate_column": (
        "insert into acct (k, k) values (1, 2)", [], "42000"),
    "update_virtual_table": (
        "update repro_stats.metrics set value = 1", [], "0A000"),
    "update_unknown_attribute": (
        "update acct set pos>>nosuch = 1 where k = 1", [], "42703"),
    "update_attribute_type": (
        "update acct set pos>>x = 'abc' where k = 1", [], "22018"),
    # compile-time errors
    "update_unknown_column": (
        "update acct set nosuch = 1 where k = 1", [], "42703"),
    "where_unknown_column": (
        "delete from acct where nosuch = 1", [], "42703"),
    "insert_select_arity": (
        "insert into acct (k, name) select a from src", [], "42000"),
    "insert_values_arity": ("insert into acct values (1)", [], "42000"),
    "insert_read_only_view": (
        "insert into acct_v values (1, 'x')", [], "42P01"),
    "update_read_only_view": ("update acct_v set name = 'x'", [], "42P01"),
    "delete_virtual_table": ("delete from repro_stats.metrics", [], "0A000"),
    "insert_literal_type": ("insert into acct (k) values ('abc')", [],
                            "22018"),
    "update_value_type": ("update acct set name = 5 where k = 1", [],
                          "22018"),
    "update_unknown_table": ("update nosuch set k = 1", [], "42P01"),
    "select_unknown_column": ("select nosuch from acct", [], "42703"),
    "select_type_mismatch": ("select k from acct where name = 1", [],
                             "22018"),
    # clean at compile time
    "insert": ("insert into acct (k, name) values (?, ?)", [5, "e"],
               None, None, None),
    "update_attribute": ("update acct set pos>>x = ? where k = ?", [3, 1],
                         None, None, None),
    "delete": ("delete from acct where k = ?", [1], None, None, None),
    "select": ("select k, pos>>x from acct", [], None, None, None),
    # data-dependent: constraint violations and bound values stay
    # run-time errors
    "duplicate_key": ("insert into acct (k, name) values (1, 'dup')", [],
                      None, None, "23505"),
    "null_key": ("insert into acct (name) values ('x')", [],
                 None, "23502", "23502"),
    "bound_value_type": ("insert into acct (k) values (?)", ["abc"],
                         None, "22018", "22018"),
    "bound_attribute_type": ("update acct set pos>>x = ? where k = 1",
                             ["abc"], None, None, "22018"),
}


def _sqlstate(run):
    try:
        run()
    except errors.SQLException as exc:
        return exc.sqlstate, exc.message
    return None, None


@pytest.mark.parametrize("case", list(CHECKER_CASES))
def test_checker_verdict_is_the_engines(case):
    """The OnlineChecker, ``prepare``, and execution on an empty and on
    a one-matching-row table give one outcome with one SQLSTATE; only
    constraint violations and bound values surface at run time."""
    from repro.profiles.model import EntryInfo
    from repro.translator.checker import OnlineChecker

    sql, params, compiled, *at_run = CHECKER_CASES[case]
    if compiled is not None:
        at_run = [compiled, compiled]
    sessions = []
    for with_row in (False, True):
        session = Database(name=f"checked_{with_row}").create_session(
            autocommit=True
        )
        for statement in CHECKER_SCHEMA + [CHECKER_ROW] * with_row:
            session.execute(statement)
        sessions.append(session)

    messages = OnlineChecker(sessions[0]).check(
        EntryInfo(index=0, sql=sql, role="STATEMENT")
    )
    state, message = _sqlstate(lambda: sessions[0].prepare(sql))
    assert state == compiled
    assert [m.message for m in messages] == [message] * bool(message)
    for session, want in zip(sessions, at_run):
        assert _sqlstate(lambda: session.execute(sql, params))[0] == want


class TestProfileConstruction:
    def test_entries_in_clause_order(self):
        result = translate_source(
            "#sql { DELETE FROM a };\n#sql { DELETE FROM b };\n",
            "order_mod",
        )
        entries = list(result.profiles[0].data)
        assert [e.sql for e in entries] == [
            "DELETE FROM a", "DELETE FROM b",
        ]

    def test_roles_classified(self):
        result = translate_source(
            "it: It\n"
            "#sql iterator It (int);\n"
            "#sql it = { SELECT 1 };\n"
            "#sql { UPDATE t SET a = 1 };\n"
            "#sql { CALL p() };\n"
            "#sql { COMMIT };\n"
            "#sql { CREATE TABLE x (a integer) };\n",
            "roles_mod",
        )
        roles = [e.role for e in result.profiles[0].data]
        assert roles == ["QUERY", "UPDATE", "CALL", "TXN", "DDL"]

    def test_profile_per_context_expression(self):
        result = translate_source(
            "#sql context Ctx;\n"
            "#sql { DELETE FROM a };\n"
            "#sql [c1] { DELETE FROM b };\n"
            "#sql [c1] { DELETE FROM c };\n"
            "#sql [c2] { DELETE FROM d };\n",
            "multi_profile",
        )
        assert len(result.profiles) == 3
        sizes = [p.entry_count() for p in result.profiles]
        assert sizes == [1, 2, 1]

    def test_host_variables_recorded(self):
        result = translate_source(
            "#sql { INSERT INTO t VALUES (:x, :y) };\n", "hv_mod"
        )
        entry = result.profiles[0].get_entry(0)
        assert [p.name for p in entry.param_types] == ["x", "y"]

    def test_described_result_types_recorded(self):
        options = TranslationOptions(exemplar=exemplar_db())
        result = translate_source(
            "#sql iterator It (str, int);\n"
            "it: It\n"
            "#sql it = { SELECT name, year FROM people };\n",
            "described_mod",
            options,
        )
        entry = result.profiles[0].get_entry(0)
        assert [t.name for t in entry.result_types] == ["name", "year"]
        assert entry.result_types[0].sql_type == "VARCHAR(50)"
        assert entry.iterator_class == "It"


class TestGeneratedCode:
    def run_translated(self, tmp_path, source, module_name,
                       database):
        """Translate, write to disk, import, return the module."""
        options = TranslationOptions(exemplar=database)
        translator = Translator(options)
        result = translator.translate_source(source, module_name)
        module_path = os.path.join(str(tmp_path), module_name + ".py")
        with open(module_path, "w") as handle:
            handle.write(result.python_source)
        for profile in result.profiles:
            save_profile(profile, str(tmp_path))
        sys.path.insert(0, str(tmp_path))
        try:
            module = importlib.import_module(module_name)
            return importlib.reload(module)
        finally:
            sys.path.remove(str(tmp_path))

    def test_end_to_end_execution(self, tmp_path):
        database = exemplar_db()
        session = database.create_session(autocommit=True)
        session.execute(
            "insert into people values ('Ann', 1990), ('Ben', 1995)"
        )
        context = ConnectionContext(database)
        ConnectionContext.set_default_context(context)
        module = self.run_translated(
            tmp_path, GOOD_SOURCE, "e2e_mod", database
        )
        module.insert_person("Cal", 1999)
        assert module.read_positional() == [
            ("Ann", 1990), ("Ben", 1995), ("Cal", 1999),
        ]
        assert module.read_named() == [
            (1990, "Ann"), (1995, "Ben"), (1999, "Cal"),
        ]

    def test_explicit_context_execution(self, tmp_path):
        source = (
            "#sql context Payroll;\n"
            "def wipe(ctx):\n"
            "    #sql [ctx] { DELETE FROM people };\n"
            "    pass\n"
        )
        database = exemplar_db()
        session = database.create_session(autocommit=True)
        session.execute("insert into people values ('Ann', 1990)")
        module = self.run_translated(
            tmp_path, source, "ctx_mod", database
        )
        context = module.Payroll(database)
        module.wipe(context)
        assert session.execute(
            "select count(*) from people"
        ).rows == [[0]]

    def test_update_counts_surface_on_context(self, tmp_path):
        source = (
            "def bump(ctx, amount):\n"
            "    #sql [ctx] { UPDATE people SET year = year + :amount };\n"
            "    pass\n"
        )
        database = exemplar_db()
        session = database.create_session(autocommit=True)
        session.execute(
            "insert into people values ('Ann', 1990), ('Ben', 1995)"
        )
        module = self.run_translated(tmp_path, source, "count_mod",
                                     database)
        context = ConnectionContext(database)
        module.bump(context, 1)
        assert context.execution_context.update_count == 2

    def test_translate_file_and_package(self, tmp_path):
        source_path = tmp_path / "filed.psqlj"
        source_path.write_text("#sql { DELETE FROM people };\n")
        options = TranslationOptions(exemplar=exemplar_db())
        result = translate_file(
            str(source_path), output_dir=str(tmp_path / "out"),
            options=options, package=True,
        )
        assert os.path.exists(result.module_path)
        assert all(os.path.exists(p) for p in result.profile_paths)
        assert os.path.exists(result.pjar_path)

    def test_generated_source_mentions_profiles(self):
        result = translate_source(
            "#sql { DELETE FROM t };\n", "gen_mod"
        )
        assert "load_profile" in result.python_source
        assert "gen_mod_SJProfile0" in result.python_source


OUT_PARAMS_PROGRAM = """
def top_two(region):
    n1 = None
    id1 = None
    r1 = 0
    s1 = None
    n2 = None
    id2 = None
    r2 = 0
    s2 = None
    #sql { CALL best2(:OUT n1, :OUT id1, :OUT r1, :OUT s1,
                      :OUT n2, :OUT id2, :OUT r2, :OUT s2,
                      :IN region) };
    return (n1, s1, n2, s2)

def scalar_region(state):
    r = 0
    #sql r = { VALUES( region_of(:state) ) };
    return r
"""


class TestOutHostVariablesAndValues:
    def test_call_with_out_host_variables(self, payroll, db, tmp_path):
        import importlib
        import sys

        from repro.profiles.serialization import save_profile
        from repro import ConnectionContext

        options = TranslationOptions(exemplar=db)
        result = Translator(options).translate_source(
            OUT_PARAMS_PROGRAM, "outvars_mod"
        )
        (tmp_path / "outvars_mod.py").write_text(result.python_source)
        for profile in result.profiles:
            save_profile(profile, str(tmp_path))
        ConnectionContext.set_default_context(ConnectionContext(db))
        sys.path.insert(0, str(tmp_path))
        try:
            module = importlib.import_module("outvars_mod")
            module = importlib.reload(module)
        finally:
            sys.path.remove(str(tmp_path))

        n1, s1, n2, s2 = module.top_two(2)
        assert n1 == "Alice"
        assert str(s1) == "100.50"
        assert n2 == "Hank"
        assert module.scalar_region("CA") == 3

    def test_out_variable_outside_call_rejected(self):
        source = "#sql { DELETE FROM t WHERE a = :OUT x };\n"
        with pytest.raises(errors.TranslationError) as info:
            translate_source(source, "badmode_mod")
        assert "OUT/INOUT host variables" in str(info.value)

    def test_mode_mismatch_detected_online(self, payroll, db):
        # best2's ninth parameter is IN; declaring it :OUT is an error.
        source = (
            "def f(a):\n"
            "    #sql { CALL correct_states(:OUT a, :IN a) };\n"
            "    pass\n"
        )
        options = TranslationOptions(exemplar=db)
        with pytest.raises(errors.TranslationError) as info:
            translate_source(source, "mismatch_mod", options)
        assert "declared :OUT" in str(info.value)

    def test_values_clause_records_query_role(self):
        result = translate_source(
            "x = 0\n#sql x = { VALUES( 1 + 2 ) };\n", "values_mod"
        )
        entry = result.profiles[0].get_entry(0)
        assert entry.role == "QUERY"
        assert entry.sql == "SELECT ( 1 + 2 )"

    def test_values_needs_no_iterator_annotation(self):
        # Unlike query assignment, scalar assignment works unannotated.
        result = translate_source(
            "#sql x = { VALUES( 41 + 1 ) };\n", "values_mod2"
        )
        assert "scalar(" in result.python_source

    def test_inout_host_variable(self, db, tmp_path):
        import importlib
        import sys

        from repro.procedures import build_par
        from repro.profiles.serialization import save_profile
        from repro import ConnectionContext

        session = db.create_session(autocommit=True)
        par = build_par(
            str(tmp_path / "inout.par"),
            {"inoutmod": (
                "def double_it(container):\n"
                "    container[0] = container[0] * 2\n"
            )},
        )
        session.execute(f"call sqlj.install_par('{par}', 'iop')")
        session.execute(
            "create procedure double_it(inout x integer) no sql "
            "external name 'iop:inoutmod.double_it' "
            "language python parameter style python"
        )
        source = (
            "def run(v):\n"
            "    #sql { CALL double_it(:INOUT v) };\n"
            "    return v\n"
        )
        options = TranslationOptions(exemplar=db)
        result = Translator(options).translate_source(source, "io_mod")
        (tmp_path / "io_mod.py").write_text(result.python_source)
        for profile in result.profiles:
            save_profile(profile, str(tmp_path))
        ConnectionContext.set_default_context(ConnectionContext(db))
        sys.path.insert(0, str(tmp_path))
        try:
            module = importlib.import_module("io_mod")
            module = importlib.reload(module)
        finally:
            sys.path.remove(str(tmp_path))
        assert module.run(21) == 42


SELECT_INTO_PROGRAM = """
def lookup(who):
    name = None
    year = 0
    #sql { SELECT name, year INTO :name, :year
           FROM people WHERE name = :who };
    return (name, year)
"""


class TestSelectInto:
    def run_module(self, source, module_name, database, tmp_path):
        options = TranslationOptions(exemplar=database)
        result = Translator(options).translate_source(source, module_name)
        (tmp_path / f"{module_name}.py").write_text(result.python_source)
        for profile in result.profiles:
            save_profile(profile, str(tmp_path))
        ConnectionContext.set_default_context(
            ConnectionContext(database)
        )
        sys.path.insert(0, str(tmp_path))
        try:
            module = importlib.import_module(module_name)
            return importlib.reload(module)
        finally:
            sys.path.remove(str(tmp_path))

    def test_single_row_select_into(self, tmp_path):
        database = exemplar_db()
        session = database.create_session(autocommit=True)
        session.execute(
            "insert into people values ('Ann', 1990), ('Ben', 1995)"
        )
        module = self.run_module(
            SELECT_INTO_PROGRAM, "sinto_mod", database, tmp_path
        )
        assert module.lookup("Ann") == ("Ann", 1990)

    def test_no_row_raises_not_found(self, tmp_path):
        database = exemplar_db()
        module = self.run_module(
            SELECT_INTO_PROGRAM, "sinto_empty_mod", database, tmp_path
        )
        with pytest.raises(errors.SQLException) as info:
            module.lookup("Nobody")
        assert info.value.sqlstate == "02000"

    def test_many_rows_raises_cardinality(self, tmp_path):
        database = exemplar_db()
        session = database.create_session(autocommit=True)
        session.execute(
            "insert into people values ('Dup', 1), ('Dup', 2)"
        )
        module = self.run_module(
            SELECT_INTO_PROGRAM, "sinto_dup_mod", database, tmp_path
        )
        with pytest.raises(errors.CardinalityError):
            module.lookup("Dup")

    def test_into_arity_checked_at_translate_time(self):
        source = (
            "def f(w):\n"
            "    a = None\n"
            "    #sql { SELECT name, year INTO :a FROM people };\n"
            "    return a\n"
        )
        options = TranslationOptions(exemplar=exemplar_db())
        with pytest.raises(errors.TranslationError) as info:
            translate_source(source, "bad_into", options)
        assert "INTO" in str(info.value)

    def test_into_clause_not_sent_to_database(self):
        result = translate_source(
            "a = None\n"
            "#sql { SELECT name INTO :a FROM people };\n",
            "into_sql_mod",
        )
        entry = result.profiles[0].get_entry(0)
        assert "INTO" not in entry.sql
        assert entry.sql == "SELECT name FROM people"

    def test_non_hostvar_target_rejected(self):
        with pytest.raises(errors.TranslationError):
            translate_source(
                "#sql { SELECT name INTO somewhere FROM people };\n",
                "bad_target_mod",
            )

    def test_into_inside_subquery_not_confused(self):
        # INTO only triggers at top level; none here.
        result = translate_source(
            "it: It\n"
            "#sql iterator It (int);\n"
            "#sql it = { SELECT (SELECT 1) FROM people };\n",
            "nested_mod",
        )
        assert result.profiles
