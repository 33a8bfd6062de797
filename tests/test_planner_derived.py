"""Derived key probes: an inner join on ``a = b`` whose one input is
filtered by ``a = k`` (``k`` a literal or ``?``) also filters the other
input by ``b = k``, so an index on ``b`` turns that input's scan into a
probe.

Covers row-identity with sqlite3 for the shapes the rule fires on (the
constant on either input, the conjuncts in ON or in WHERE, literal or
parameter), the shapes it must leave alone (outer joins, ``<`` and
``<>``, columns of incompatible type families), and a counted guard on
the remote read mix's join: rows scanned, not time.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro import Database, errors, observability

DDL = [
    "create table items (k integer primary key, grp integer, "
    "val integer, name varchar(16))",
    "create index items_grp on items (grp)",
    "create table groups (grp integer primary key, label varchar(12), "
    "w integer)",
    "create index groups_grp on groups (grp)",
    "create table tags (tag varchar(8), grp integer)",
]


def _load(execute_many, items=200, groups=20):
    execute_many(
        "insert into items values (?, ?, ?, ?)",
        [(k, k % (groups + 3), k % 7, f"item{k}") for k in range(items)],
    )
    execute_many(
        "insert into groups values (?, ?, ?)",
        [(g, f"group{g}", g % 4) for g in range(groups)],
    )
    execute_many(
        "insert into tags values (?, ?)",
        [(str(g % 5), g) for g in range(groups)],
    )


@pytest.fixture(scope="module")
def engines():
    session = Database(name="derived").create_session(autocommit=True)
    oracle = sqlite3.connect(":memory:")
    for statement in DDL:
        session.execute(statement)
        oracle.execute(statement)
    _load(session.execute_batch)
    _load(oracle.executemany)
    session.execute("analyze")
    yield session, oracle
    oracle.close()


def _scans(session, sql, params=()):
    """The plan's scan lines (rejected alternatives left out)."""
    return [
        line.strip()
        for (line,) in session.execute("explain " + sql, params).rows
        if line.strip().startswith(("SeqScan", "IndexScan"))
    ]


FIRING = [
    # constant on the left input, in WHERE
    ("select i.k, g.label from items i join groups g on i.grp = g.grp "
     "where i.grp = ?", (5,)),
    # constant on the right input, in WHERE, reversed operands
    ("select i.k, g.label from items i join groups g on g.grp = i.grp "
     "where ? = g.grp", (7,)),
    # constant in ON, literal
    ("select i.k, g.w from items i join groups g "
     "on i.grp = g.grp and i.grp = 3", ()),
    # constant in ON on the right input
    ("select i.k, g.w from items i inner join groups g "
     "on i.grp = g.grp and 11 = g.grp", ()),
    # join equality in WHERE over a cross join
    ("select i.k, g.label from items i cross join groups g "
     "where i.grp = g.grp and i.grp = ?", (2,)),
    # the mix's grouped shape
    ("select g.label, count(*), sum(i.val) from items i join groups g "
     "on i.grp = g.grp where i.grp = ? group by g.label", (4,)),
    # a constant no group holds: both inputs empty
    ("select i.k, g.label from items i join groups g on i.grp = g.grp "
     "where i.grp = ?", (21,)),
    # NULL matches nothing on either side
    ("select i.k from items i join groups g on i.grp = g.grp "
     "where i.grp = ?", (None,)),
]

UNCHANGED = [
    ("select i.k, g.label from items i left join groups g "
     "on i.grp = g.grp where i.grp = ?", (5,)),
    ("select i.k, g.label from items i right join groups g "
     "on i.grp = g.grp where g.grp = ?", (5,)),
    ("select i.k, g.label from items i join groups g on i.grp = g.grp "
     "where i.grp < ?", (3,)),
    ("select i.k, g.label from items i join groups g on i.grp = g.grp "
     "where i.grp <> ?", (3,)),
]


class TestDerivedProbes:
    @pytest.mark.parametrize("sql,params", FIRING + UNCHANGED)
    def test_rows_match_sqlite(self, engines, sql, params):
        session, oracle = engines
        got = sorted(map(tuple, session.execute(sql, params).rows))
        assert got == sorted(oracle.execute(sql, params).fetchall())

    @pytest.mark.parametrize("sql,params", FIRING[:6])
    def test_both_inputs_probe_an_index(self, engines, sql, params):
        scans = _scans(engines[0], sql, params)
        assert len(scans) == 2
        assert all(scan.startswith("IndexScan") for scan in scans), scans

    @pytest.mark.parametrize("sql,params", UNCHANGED)
    def test_nothing_derived(self, engines, sql, params):
        # Only the filtered input may be probed; the other is scanned.
        scans = _scans(engines[0], sql, params)
        assert any(scan.startswith("SeqScan") for scan in scans), scans

    def test_unindexed_side_gets_a_filter(self, engines):
        plan = [
            line.strip() for (line,) in engines[0].execute(
                "explain select i.k, t.tag from items i join tags t "
                "on i.grp = t.grp where i.grp = 5"
            ).rows
        ]
        assert plan[-2:] == [
            "Filter (t.grp = 5) (cost=40.0 rows=1)",
            "SeqScan on tags (cost=20.0 rows=20)",
        ]

    @pytest.mark.parametrize("constant", ["5", "?"])
    @pytest.mark.parametrize("join,derived", [
        ("items i join groups g on i.grp = g.grp", ["g.grp = {}"]),
        ("items i join tags t on i.grp = t.grp", ["t.grp = {}"]),
        ("items i join tags t on i.grp = t.tag", []),
        ("items i join groups g on i.grp = g.label", []),
        ("items i join groups g on i.grp < g.grp", []),
        ("items i join groups g on i.grp <> g.grp", []),
    ])
    def test_only_compatible_families_derive(
        self, engines, join, derived, constant
    ):
        # int = varchar cannot be compared: pushing "t.tag = 5" would
        # only raise the cast error earlier, so nothing is derived.
        from repro.engine import planner
        from repro.engine.parser import Parser
        from repro.engine.render import render_expression

        session = engines[0]
        select = Parser(
            f"select * from {join} where i.grp = {constant}",
            session.dialect,
        ).parse_statement()
        ref = select.from_clause[0]
        scopes = [planner._ref_scope(side, session)
                  for side in (ref.left, ref.right)]
        pushed = ([select.where], [])
        planner._derive_key_probes(
            ref, session, scopes, [ref.condition], pushed
        )
        assert [render_expression(c) for c in pushed[1]] == [
            text.format(constant) for text in derived
        ]

    def test_incompatible_join_still_fails_as_before(self, engines):
        with pytest.raises(errors.InvalidCastError,
                           match="VARCHAR.* with INTEGER"):
            engines[0].execute(
                "select t.tag from tags t join items i on t.tag = i.grp "
                "where i.grp = 5"
            )


def test_mix_join_scans_one_group_not_the_table():
    """The remote read mix's join on its 20k/1k schema reads the
    group's 20 items and its one group row, not all 1,000 groups."""
    session = Database(name="derived_guard").create_session(
        autocommit=True
    )
    for statement in DDL[:4]:
        session.execute(statement)
    session.execute_batch(
        "insert into items values (?, ?, ?, ?)",
        [(k, k % 1000, k % 1000, f"item{k:06d}") for k in range(20_000)],
    )
    session.execute_batch(
        "insert into groups values (?, ?, ?)",
        [(g, f"group{g:04d}", g % 10) for g in range(1000)],
    )
    session.execute("analyze")
    sql = ("select g.label, count(*), sum(i.val) from items i "
           "join groups g on i.grp = g.grp where i.grp = ? "
           "group by g.label")
    session.execute(sql, [7])  # plan once; count the cached execution
    before = observability.snapshot()["counters"].get("rows.scanned", 0)
    rows = session.execute(sql, [7]).rows
    scanned = observability.snapshot()["counters"]["rows.scanned"] - before
    assert rows == [["group0007", 20, 140]]
    assert scanned <= 21
