"""The generated-source executor against reference semantics.

Every expression compiles to a Python source fragment, and Filter,
Project, the joins, GroupAggregate and Sort run generated loops with the
fragments inlined; a comparison is native Python only when both operands
are provably int or provably str.  These tests pin that the generated
code decides what the SQL rules decide:

* a table-driven grid evaluates every emitted comparison, logic,
  BETWEEN / IN, MIN / MAX and sort-key form over NULL, NaN,
  ``1``/``1.0``/``1.00``, CHAR and VARCHAR pad spaces, BIGINT edges,
  booleans and Part 2 objects with and without an ordering, against the
  reference implementations kept below;
* the ``analytic_scan`` benchmark shapes, OFFSET, DESC with NULLs,
  mixed-direction and string DESC keys, analyzed and not, against
  sqlite3, as are set operations and DOUBLE/DECIMAL arithmetic;
* SQL text never becomes code;
* one cached plan serves 16 threads at once.
"""

from __future__ import annotations

import decimal
import itertools
import operator
import random
import sqlite3
import sys
import threading
from collections import Counter

import pytest

from repro import errors
from repro.engine import expressions
from repro.procedures import build_par
from repro.sqltypes import compare_values, parse_type
from repro.sqltypes.values import sort_key

D = decimal.Decimal
NAN = float("nan")


# ---------------------------------------------------------------------------
# Reference semantics (the rules the emitted code must agree with)
# ---------------------------------------------------------------------------

REF_TESTS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
             "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def ref_and3(left, right):
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def ref_or3(left, right):
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def ref_not(value):
    return None if value is None else not value


def ref_compare(op, left, right, ordering=None):
    """``left op right``; ``ordering`` is a Part 2 comparison method."""
    if left is None or right is None:
        return None
    if ordering is not None:
        result = int(getattr(left, ordering)(right))
    else:
        result = compare_values(left, right)
    return REF_TESTS[op](result, 0)


def ref_between(value, low, high):
    return ref_and3(ref_compare(">=", value, low),
                    ref_compare("<=", value, high))


def ref_in(value, items):
    if value is None:
        return None
    outcomes = [ref_compare("=", value, item) for item in items]
    if True in outcomes:
        return True
    return None if None in outcomes else False


def ref_best(values, want_max):
    best = None
    for value in values:
        if value is None:
            continue
        if best is None or (compare_values(value, best) > 0) == want_max \
                and compare_values(value, best) != 0:
            best = value
    return best


def outcome(call):
    """A value, or the SQLSTATE it raised."""
    try:
        return call()
    except errors.SQLException as exc:
        return ("error", exc.sqlstate)


def same(left, right):
    """Equality that holds NaN equal to NaN and 1 unequal to True."""
    if isinstance(left, float) and isinstance(right, float) \
            and left != left and right != right:
        return True
    return left == right and isinstance(left, bool) == isinstance(right, bool)


# ---------------------------------------------------------------------------
# The value grid
# ---------------------------------------------------------------------------

#: One table per SQL type; each holds these values (NULL included).
GRID = {
    "gi": ("integer", [None, -1, 0, 1]),
    "gb": ("bigint", [2 ** 63 - 1, -(2 ** 63), 1, None]),
    "gd": ("double precision", [NAN, 1.0, -0.5, None]),
    "gn": ("decimal(5,2)", [D("1.00"), D("-0.50"), None]),
    "gc": ("char(3)", ["a", "a  ", "b", None]),
    "gv": ("varchar(5)", ["a", "a ", "ab", None]),
    "gt": ("boolean", [True, False, None]),
}


@pytest.fixture(scope="module")
def grid():
    from repro import Database

    db = Database(name="grid")
    session = db.create_session(autocommit=True)
    for table, (sql_type, values) in GRID.items():
        session.execute(f"create table {table} (x {sql_type})")
        for value in values:
            session.execute(f"insert into {table} values (?)", (value,))
    stored = {t: [r[0] for r in session.execute(f"select x from {t}").rows]
              for t in GRID}
    return session, stored


def _comparable(left_type, right_type):
    return parse_type(left_type).comparable_with(parse_type(right_type))


@pytest.mark.parametrize("op", sorted(REF_TESTS))
@pytest.mark.parametrize("left, right", list(itertools.product(GRID, GRID)))
def test_comparison_grid(grid, left, right, op):
    """Column-vs-column comparisons: the value (select list) and the
    predicate (WHERE) forms, typed or not, against the reference."""
    session, stored = grid
    pairs = list(itertools.product(stored[left], stored[right]))
    if not _comparable(GRID[left][0], GRID[right][0]):
        want = ("error", "22018")
        value_sql = f"select a.x {op} b.x from {left} a, {right} b"
        assert outcome(lambda: session.execute(value_sql).rows) == want
        return
    expected = [outcome(lambda: ref_compare(op, a, b)) for a, b in pairs]
    value_sql = f"select a.x, b.x, a.x {op} b.x from {left} a, {right} b"
    got = outcome(lambda: session.execute(value_sql).rows)
    if any(isinstance(e, tuple) for e in expected):
        assert got == next(e for e in expected if isinstance(e, tuple))
        return
    assert len(got) == len(pairs)
    for (a, b, result), want in zip(got, expected):
        assert same(result, want), (a, b, op, result, want)
    filter_sql = (f"select a.x, b.x from {left} a, {right} b "
                  f"where a.x {op} b.x")
    kept = session.execute(filter_sql).rows
    assert len(kept) == expected.count(True)


LITERALS = {
    "gi": [("1", 1), ("-1", -1), ("null", None)],
    "gb": [("9223372036854775807", 2 ** 63 - 1), ("0", 0)],
    "gc": [("'a'", "a"), ("'a '", "a "), ("'b  '", "b  ")],
    "gv": [("'a'", "a"), ("'a '", "a "), ("'ab'", "ab")],
}


@pytest.mark.parametrize("op", sorted(REF_TESTS))
@pytest.mark.parametrize("table", sorted(LITERALS))
def test_comparison_with_literals_and_parameters(grid, table, op):
    """Column-vs-literal (the typed path's constant operand) and
    parameter-vs-parameter (the untyped path) agree with the reference."""
    session, stored = grid
    for spelling, literal in LITERALS[table]:
        rows = session.execute(
            f"select x, x {op} {spelling}, {spelling} {op} x from {table}"
        ).rows
        for value, forward, backward in rows:
            assert same(forward, ref_compare(op, value, literal))
            assert same(backward, ref_compare(op, literal, value))
        kept = session.execute(
            f"select x from {table} where x {op} {spelling}"
        ).rows
        assert len(kept) == sum(
            ref_compare(op, v, literal) is True for v in stored[table]
        )
    for a, b in itertools.product(stored[table], repeat=2):
        [[got]] = session.execute(f"select ? {op} ?", (a, b)).rows
        assert same(got, ref_compare(op, a, b))


def test_logic_grid(grid):
    session, stored = grid
    rows = session.execute(
        "select a.x, b.x, a.x and b.x, a.x or b.x, not a.x "
        "from gt a, gt b"
    ).rows
    assert len(rows) == 9
    for a, b, conj, disj, neg in rows:
        assert (conj, disj, neg) == (ref_and3(a, b), ref_or3(a, b),
                                     ref_not(a))
    for sql, ref in [
        ("a.x and b.x", lambda a, b: ref_and3(a, b)),
        ("a.x or b.x", lambda a, b: ref_or3(a, b)),
        ("not (a.x and b.x)", lambda a, b: ref_not(ref_and3(a, b))),
        ("not (a.x or b.x)", lambda a, b: ref_not(ref_or3(a, b))),
        ("not a.x", lambda a, b: ref_not(a)),
    ]:
        kept = session.execute(
            f"select a.x, b.x from gt a, gt b where {sql}"
        ).rows
        want = [(a, b) for a, b in itertools.product(stored["gt"], repeat=2)
                if ref(a, b) is True]
        assert Counter(map(tuple, kept)) == Counter(want), sql


@pytest.mark.parametrize("table", ["gi", "gv", "gd"])
@pytest.mark.parametrize("negated", [False, True])
def test_between_grid(grid, table, negated):
    session, stored = grid
    word = "not between" if negated else "between"
    rows = session.execute(
        f"select a.x, b.x, c.x, a.x {word} b.x and c.x "
        f"from {table} a, {table} b, {table} c"
    ).rows
    for a, b, c, got in rows:
        want = ref_between(a, b, c)
        assert same(got, ref_not(want) if negated else want)
    kept = session.execute(
        f"select a.x from {table} a, {table} b, {table} c "
        f"where a.x {word} b.x and c.x"
    ).rows
    want = [
        a for a, b, c in itertools.product(stored[table], repeat=3)
        if (ref_not(ref_between(a, b, c)) if negated
            else ref_between(a, b, c)) is True
    ]
    assert len(kept) == len(want)


@pytest.mark.parametrize("table, items, values", [
    ("gi", "0, 1", [0, 1]),
    ("gi", "0, null", [0, None]),
    ("gb", "9223372036854775807, -1", [2 ** 63 - 1, -1]),
    ("gc", "'a', 'c '", ["a", "c "]),
    ("gv", "'a  ', 'zz'", ["a  ", "zz"]),
    ("gd", "1, 2.5", [1, D("2.5")]),
])
def test_in_list_grid(grid, table, items, values):
    session, stored = grid
    rows = session.execute(
        f"select x, x in ({items}), x not in ({items}) from {table}"
    ).rows
    for value, member, non_member in rows:
        assert member == ref_in(value, values)
        assert non_member == ref_not(ref_in(value, values))
    kept = session.execute(
        f"select x from {table} where x in ({items})"
    ).rows
    assert len(kept) == sum(ref_in(v, values) is True for v in stored[table])


@pytest.mark.parametrize("table", sorted(GRID))
def test_min_max_and_sort_keys(grid, table):
    session, stored = grid
    values = stored[table]
    [[low, high, count]] = session.execute(
        f"select min(x), max(x), count(x) from {table}"
    ).rows
    assert same(low, ref_best(values, want_max=False))
    assert same(high, ref_best(values, want_max=True))
    assert count == sum(v is not None for v in values)
    for direction, reverse in (("", False), (" desc", True)):
        got = [r[0] for r in session.execute(
            f"select x from {table} order by x{direction}"
        ).rows]
        want = sorted(values, key=sort_key, reverse=reverse)
        assert all(same(g, w) for g, w in zip(got, want)), (got, want)
        top = [r[0] for r in session.execute(
            f"select x from {table} order by x{direction} limit 2 offset 1"
        ).rows]
        assert all(same(g, w) for g, w in zip(top, want[1:3]))


def test_typed_grouping_strips_pad_spaces(grid):
    session, _ = grid
    rows = session.execute(
        "select x, count(*) from gv group by x order by x"
    ).rows
    assert [[r[0].rstrip(" ") if r[0] else r[0], r[1]] for r in rows] == [
        ["a", 2], ["ab", 1], [None, 1]
    ]


def test_descriptor_alone_does_not_type_a_comparison(session):
    """A derived column typed INTEGER by a CASE whose other arm is a
    string parameter is not provably int: the comparison still raises
    the SQL error instead of a Python one."""
    session.execute("create table t (k integer)")
    session.execute("insert into t values (1)")
    with pytest.raises(errors.InvalidCastError):
        session.execute(
            "select c from (select case when k = 1 then ? else 5 end as c "
            "from t) s where c < 3", ("x",)
        )


# -- Part 2 objects ----------------------------------------------------------

OBJECTS_MODULE = '''
class Money:
    def __init__(self, currency="USD", cents=0):
        self.currency = currency
        self.cents = int(cents)

    def compare_to(self, other):
        return (self.cents > other.cents) - (self.cents < other.cents)

    def __eq__(self, other):
        return isinstance(other, Money) and self.cents == other.cents

    __hash__ = None


class Tag:
    def __init__(self, label=""):
        self.label = label

    def __eq__(self, other):
        return isinstance(other, Tag) and self.label == other.label

    __hash__ = None
'''


@pytest.fixture
def objects(session, tmp_path):
    par = build_par(str(tmp_path / "objects.par"),
                    {"objmod": OBJECTS_MODULE})
    session.execute(f"call sqlj.install_par('{par}', 'obj_par')")
    session.execute("""
        create type money external name 'obj_par:objmod.Money'
        language python (
          cents integer external name cents,
          method money (c varchar(3), cents integer) returns money
            external name Money,
          method compare_to (other money) returns integer
            external name compare_to,
          ordering full by method compare_to
        )
    """)
    session.execute("""
        create type tag external name 'obj_par:objmod.Tag'
        language python (
          label varchar(10) external name label,
          method tag (label varchar(10)) returns tag external name Tag
        )
    """)
    session.execute("create table m (k integer, v money, t tag)")
    for k, cents, label in [(1, 300, "x"), (2, 100, "y"), (3, 200, "x"),
                            (4, 100, None)]:
        tag = "null" if label is None else f"new tag('{label}')"
        session.execute(
            f"insert into m values ({k}, new money('USD', {cents}), {tag})"
        )
    return session


@pytest.mark.parametrize("op", sorted(REF_TESTS))
def test_object_with_ordering(objects, op):
    rows = objects.execute(
        f"select a.v, b.v, a.v {op} b.v from m a, m b"
    ).rows
    for a, b, got in rows:
        assert got == ref_compare(op, a, b, ordering="compare_to")
    kept = objects.execute(
        f"select a.k, b.k from m a, m b where a.v {op} b.v"
    ).rows
    assert len(kept) == sum(r[2] is True for r in rows)


def test_object_ordering_sorts_and_groups(objects):
    order = [r[0] for r in objects.execute(
        "select k from m order by v desc, k"
    ).rows]
    assert order == [1, 3, 2, 4]
    groups = objects.execute(
        "select t, count(*) from m group by t"
    ).rows
    assert sorted((g[0].label if g[0] else "", g[1]) for g in groups) == \
        [("", 1), ("x", 2), ("y", 1)]
    assert objects.execute("select count(distinct t) from m").rows == [[2]]


def test_object_without_ordering(objects):
    rows = objects.execute("select a.t, b.t, a.t = b.t from m a, m b").rows
    for a, b, got in rows:
        assert got == ref_compare("=", a, b)


# ---------------------------------------------------------------------------
# Operator shapes against sqlite3
# ---------------------------------------------------------------------------

SHAPE_DDL = [
    "create table fact (id integer primary key, d1 integer, d2 integer, "
    "qty integer, price integer, flag varchar(4))",
    "create table dim1 (d1 integer primary key, region varchar(12), "
    "weight integer)",
    "create table dim2 (d2 integer primary key, cat varchar(8))",
]
SHAPE_INDEXES = [
    "create index fact_id on fact (id)",
    "create index fact_d1 on fact (d1)",
    "create index dim1_d1 on dim1 (d1)",
]

#: (our SQL, sqlite SQL or None when identical, ordered?)
SHAPES = [
    ("select id, qty, price from fact where qty < 5 and price > 500",
     None, False),
    ("select f.id, d.region from fact f join dim1 d on f.d1 = d.d1 "
     "where d.weight = 3 and f.qty < 50", None, False),
    ("select f.id, d.region from fact f left join dim1 d on f.d1 = d.d1 "
     "and d.weight < 5", None, False),
    ("select d2, count(*), sum(qty), min(price), max(price), count(flag) "
     "from fact where price >= 100 group by d2", None, False),
    ("select count(*), sum(qty), min(flag), max(flag) from fact "
     "where price < 0", None, False),
    ("select flag, avg(qty), count(distinct d1) from fact group by flag",
     None, False),
    ("select id, price from fact where qty >= 5 and id >= 40 "
     "order by price desc, id limit 20",
     "select id, price from fact where qty >= 5 and id >= 40 "
     "order by price desc nulls first, id limit 20", True),
    ("select id, price from fact order by price desc, id "
     "limit 7 offset 5",
     "select id, price from fact order by price desc nulls first, id "
     "limit 7 offset 5", True),
    ("select id, qty from fact order by qty, id desc limit 9",
     "select id, qty from fact order by qty nulls last, id desc limit 9",
     True),
    ("select id, flag from fact order by flag desc, id limit 11",
     "select id, flag from fact order by flag desc nulls first, id "
     "limit 11", True),
    ("select d1, flag, id from fact order by d1 desc, flag, id desc",
     "select d1, flag, id from fact order by d1 desc nulls first, "
     "flag nulls last, id desc", True),
    ("select id from fact where flag like 'f%' and qty between 3 and 30 "
     "and d2 in (1, 2, 3)", None, False),
]


def _shape_rows(seed=7):
    rng = random.Random(seed)

    def maybe(value):
        return None if rng.random() < 0.1 else value

    fact = [(i, rng.randrange(12), rng.randrange(6), maybe(rng.randrange(60)),
             maybe(rng.randrange(1000)), maybe(f"f{rng.randrange(5)}"))
            for i in range(300)]
    dim1 = [(d, f"region{d % 4}", d % 7) for d in range(12)]
    dim2 = [(d, f"cat{d % 3}") for d in range(6)]
    return {"fact": fact, "dim1": dim1, "dim2": dim2}


@pytest.fixture(params=["analyzed", "plain"])
def shapes(request, db):
    session = db.create_session(autocommit=True)
    lite = sqlite3.connect(":memory:")
    for statement in SHAPE_DDL:
        session.execute(statement)
        lite.execute(statement)
    for statement in SHAPE_INDEXES:
        session.execute(statement)
    for table, rows in _shape_rows().items():
        marks = ", ".join("?" * len(rows[0]))
        session.execute_batch(f"insert into {table} values ({marks})", rows)
        lite.executemany(f"insert into {table} values ({marks})", rows)
    if request.param == "analyzed":
        session.execute("analyze")
    yield session, lite
    lite.close()


def _normal(rows):
    """Rows as tuples, numbers that are not ints rounded to 9 places."""
    return [tuple(round(float(v), 9) if isinstance(v, (D, float)) else v
                  for v in row) for row in rows]


@pytest.mark.parametrize("sql, lite_sql, ordered", SHAPES)
def test_shapes_match_sqlite(shapes, sql, lite_sql, ordered):
    session, lite = shapes
    got = _normal(session.execute(sql).rows)
    want = _normal(lite.execute(lite_sql or sql).fetchall())
    if ordered:
        assert got == want
    else:
        assert Counter(got) == Counter(want)


@pytest.fixture(params=["plain", "frozen"])
def join_keys(request, db):
    """Two 300-row tables joined on int, string or DOUBLE keys with
    NULLs and duplicates on both sides (frozen: ANALYZEd)."""
    session = db.create_session(autocommit=True)
    lite = sqlite3.connect(":memory:")
    rng = random.Random(5)

    def maybe(value):
        return None if rng.random() < 0.1 else value

    for name in ("l", "r"):
        ddl = (f"create table {name} (id integer, i integer, s varchar(4), "
               "x double precision)")
        session.execute(ddl)
        lite.execute(ddl)
        rows = [(n, maybe(rng.randrange(40)), maybe(f"k{rng.randrange(40)}"),
                 maybe(rng.randrange(40) / 2)) for n in range(300)]
        session.execute_batch(f"insert into {name} values (?, ?, ?, ?)", rows)
        lite.executemany(f"insert into {name} values (?, ?, ?, ?)", rows)
    if request.param == "frozen":
        session.execute("analyze")
    yield session, lite
    lite.close()


@pytest.mark.parametrize("kind", ["join", "left join", "right join",
                                  "full join"])
@pytest.mark.parametrize("on", ["l.i = r.i", "l.s = r.s", "l.x = r.x",
                                "l.i = r.i and l.s = r.s",
                                "l.i = r.i and l.x = r.x"])
def test_hash_join_build_matches_sqlite(join_keys, kind, on):
    """Either build side, filled inside its input's loop, against sqlite3:
    NULL keys never match, duplicates multiply, outer rows pad."""
    session, lite = join_keys
    for where in ("", " where l.id < 200 and r.id >= 50"):
        sql = f"select l.id, r.id from l {kind} r on {on}{where}"
        assert "HashJoin" in "".join(
            row[0] for row in session.execute("explain " + sql).rows)
        got = Counter(tuple(row) for row in session.execute(sql).rows)
        assert got == Counter(lite.execute(sql).fetchall()), sql


def test_top_n_keeps_explain_analyze_actual_rows(shapes):
    """A Sort under LIMIT keeps offset + limit + 1 rows: exactly what the
    Limit above it pulls, so per-node actual rows stay as they were."""
    session, _ = shapes
    lines = [r[0] for r in session.execute(
        "explain analyze select id, price from fact "
        "order by price desc, id limit 7 offset 5"
    ).rows]
    assert any(line.strip().startswith("Limit (actual rows=7 ")
               for line in lines)
    assert any(line.strip().startswith("Sort (2 keys) (actual rows=13 ")
               for line in lines)


# -- set operations and mixed arithmetic -------------------------------------


@pytest.fixture
def mixed(session):
    lite = sqlite3.connect(":memory:")
    for sql in ["create table a (x double precision)",
                "create table d (y decimal(5,2))",
                "insert into a values (0.1)", "insert into a values (null)",
                "insert into d values (0.10)", "insert into d values (null)"]:
        session.execute(sql)
        lite.execute(sql)
    yield session, lite
    lite.close()


@pytest.mark.parametrize("sql", [
    "select x from a union select y from d",
    "select x from a intersect select y from d",
    "select x from a except select y from d",
    "select count(*) from (select x from a union all select y from d) u "
    "group by x",
    "select count(distinct x) from (select x from a union all "
    "select y from d) u",
])
def test_set_operations_cast_branches_to_one_type(mixed, sql):
    """``0.1`` (DOUBLE) and ``0.10`` (DECIMAL) are one value once both
    branches carry the set operation's result type."""
    session, lite = mixed
    got = _normal(session.execute(sql).rows)
    assert Counter(got) == Counter(_normal(lite.execute(sql).fetchall()))


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
@pytest.mark.parametrize("order", ["x {op} y", "y {op} x"])
def test_double_decimal_arithmetic(mixed, op, order):
    session, lite = mixed
    sql = f"select {order.format(op=op)} from a, d"
    got = sorted(_normal(session.execute(sql).rows), key=repr)
    want = sorted(_normal(lite.execute(sql).fetchall()), key=repr)
    assert len(got) == len(want) == 4
    for (g,), (w,) in zip(got, want):
        assert g == pytest.approx(w) if w is not None else g is None


# ---------------------------------------------------------------------------
# SQL never becomes code
# ---------------------------------------------------------------------------

HOSTILE = [
    '\'); __import__("os").system("false") #',
    "line one\nline two\r\n",
    "back\\slash \\n \\' \\\\",
    "quote ' and \" and ''' and \"\"\"",
    "_v0 + r[0] p[0] c.session",
    "{0} %s %(x)s",
]


@pytest.fixture
def compiled_sources(monkeypatch):
    """Every source text the engine hands to compile()."""
    seen = []
    real = compile

    def spy(source, *args, **kwargs):
        seen.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(expressions, "compile", spy, raising=False)
    expressions._CODE.clear()
    return seen


def _quote(text):
    return "'" + text.replace("'", "''") + "'"


def test_hostile_literals_come_back_as_data(session, compiled_sources):
    session.execute('create table "Odd ""Tab""\n" '
                    '("we""ird col" integer, "v\\x" varchar(60))')
    table = '"Odd ""Tab""\n"'
    for index, text in enumerate(HOSTILE):
        session.execute(f"insert into {table} values ({index}, "
                        f"{_quote(text)})")
    for index, text in enumerate(HOSTILE):
        literal = _quote(text)
        assert session.execute(
            f'select "we""ird col", {literal}, "v\\x" || {literal} '
            f'from {table} where "v\\x" = {literal}'
        ).rows == [[index, text, text + text]]
        assert session.execute(
            f'select "v\\x", count(*) from {table} '
            f'where "v\\x" like {literal} group by "v\\x" '
            f'order by "v\\x" desc'
        ).rows == [[text, 1]]
        assert session.execute(
            f"select case when {literal} = {literal} then {literal} end"
        ).rows == [[text]]
    got = sorted(r[0] for r in session.execute(
        f'select "v\\x" from {table} order by "v\\x"'
    ).rows)
    assert got == sorted(HOSTILE)
    assert compiled_sources, "queries compiled no source"
    for source in compiled_sources:
        for text in HOSTILE:
            assert text not in source
        assert "Odd" not in source and "weird" not in source


def test_a_cached_text_never_compiles_again(session, compiled_sources):
    session.execute("create table t (k integer, v varchar(5))")
    session.execute("insert into t values (1, 'a')")
    sql = "select k, count(*) from t where v <> 'b' group by k order by k"
    assert session.execute(sql).rows == [[1, 1]]
    compiled = len(compiled_sources)
    assert compiled >= 1
    for _ in range(3):
        assert session.execute(sql).rows == [[1, 1]]
    assert len(compiled_sources) == compiled
    # A new text of the same shape only binds other values.
    session.execute(sql.replace("'b'", "'c'"))
    assert len(compiled_sources) == compiled


# ---------------------------------------------------------------------------
# One cached plan, many threads
# ---------------------------------------------------------------------------


def test_one_cached_plan_shared_by_sixteen_threads(db):
    session = db.create_session(autocommit=True)
    session.execute("create table f (k integer, g integer, v varchar(8))")
    session.execute_batch(
        "insert into f values (?, ?, ?)",
        [(k, k % 7, f"v{k % 5}") for k in range(400)],
    )
    sql = ("select g, count(*), sum(k), max(v) from f where k >= ? "
           "and v <> ? group by g order by g desc limit 5")
    params = [(lo, f"v{lo % 5}") for lo in range(0, 400, 25)]
    serial = {p: session.execute(sql, p).rows for p in params}
    results = {}
    failures = []

    def worker(index):
        own = db.create_session(autocommit=True)
        try:
            for round_ in range(20):
                p = params[(index + round_) % len(params)]
                rows = own.execute(sql, p).rows
                if rows != serial[p]:
                    failures.append((p, rows))
            results[index] = True
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(exc)
        finally:
            own.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(results) == 16
