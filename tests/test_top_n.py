"""ORDER BY, top-N and LIMIT/OFFSET, checked against sqlite3.

Sort and its top-N form run inside the loop of their input (a fused
Filter and SeqScan, frozen blocks included).  The grid crosses ASC and
DESC over int, string and untyped (DOUBLE) keys, alone and in pairs —
NULLs, ties, OFFSET, ``LIMIT 0`` and a LIMIT past the row count — on a
plain and an ANALYZEd (frozen) heap.  With ``id`` appended every order
is total and sqlite3 must agree row for row; without it, ties must keep
heap order, as a stable sort does.  A LIMIT or OFFSET bound to NULL or
to a non-integral value is a typed data error, where sqlite3 reports a
datatype mismatch.
"""

from __future__ import annotations

import random
import sqlite3
from decimal import Decimal

import pytest

from repro import errors

ROWS = 600  # two full blocks and a tail

#: ORDER BY key lists: (column, ascending) pairs.  ``a`` is a provable
#: int, ``s`` a provable string, ``x`` a DOUBLE (no native comparison).
ORDERS = [
    [("a", True)], [("a", False)], [("s", True)], [("s", False)],
    [("x", True)], [("x", False)],
    [("a", False), ("s", True)], [("s", False), ("a", True)],
    [("x", True), ("a", False)], [("s", True), ("x", False)],
]
LIMITS = ["", "limit 0", "limit 5", "limit 7 offset 13", "limit 1000",
          "limit 1000 offset 590", "limit 3 offset 1000"]


def _rows():
    rng = random.Random(11)

    def maybe(value):
        return None if rng.random() < 0.1 else value

    return [(i, maybe(rng.randrange(20)), maybe(f"s{rng.randrange(8)}"),
             maybe(rng.randrange(30) / 4)) for i in range(ROWS)]


@pytest.fixture(scope="module", params=["plain", "frozen"])
def tables(request):
    import repro

    db = repro.Database()
    session = db.create_session(autocommit=True)
    lite = sqlite3.connect(":memory:")
    ddl = ("create table t (id integer, a integer, s varchar(4), "
           "x double precision)")
    session.execute(ddl)
    lite.execute(ddl)
    rows = _rows()
    session.execute_batch("insert into t values (?, ?, ?, ?)", rows)
    lite.executemany("insert into t values (?, ?, ?, ?)", rows)
    if request.param == "frozen":
        session.execute("analyze")
    yield session, lite, rows
    lite.close()


def _order(keys, lite):
    """The ORDER BY list; for sqlite3 with this engine's NULL placement
    spelled out (NULL sorts as the largest value)."""
    return ", ".join(
        f"{column} {'asc' if ascending else 'desc'}"
        + (f" nulls {'last' if ascending else 'first'}" if lite else "")
        for column, ascending in keys)


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("keys", ORDERS, ids=lambda keys: ",".join(
    c + ("" if up else " desc") for c, up in keys))
def test_total_orders_match_sqlite(tables, keys, limit):
    session, lite, _rows_ = tables
    select = "select id, a, s, x from t where id >= 0 order by "
    ours = session.execute(f"{select}{_order(keys, False)}, id {limit}")
    theirs = lite.execute(f"{select}{_order(keys, True)}, id {limit}")
    assert [tuple(row) for row in ours.rows] == theirs.fetchall()


def _stable(rows, keys):
    """``rows`` (heap order) stably sorted by ``keys``, NULL largest."""
    columns = {"a": 1, "s": 2, "x": 3}
    rows = list(rows)
    for column, ascending in reversed(keys):
        at = columns[column]
        rows.sort(key=lambda row: (row[at] is None,
                                   0 if row[at] is None else row[at]),
                  reverse=not ascending)
    return rows


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("keys", ORDERS, ids=lambda keys: ",".join(
    c + ("" if up else " desc") for c, up in keys))
def test_ties_keep_heap_order(tables, keys, limit):
    session, _lite, rows = tables
    ours = session.execute(
        f"select id, a, s, x from t order by {_order(keys, False)} {limit}")
    want = _stable(rows, keys)
    words = limit.split()
    count = int(words[1]) if words else len(want)
    skip = int(words[3]) if len(words) > 2 else 0
    assert [tuple(row) for row in ours.rows] == want[skip:skip + count]


BOUND = [
    "select a from t order by a desc limit ?",
    "select a from t order by a limit 3 offset ?",
    "select a from t limit ?",
    "select a from t limit 3 offset ?",
]


@pytest.mark.parametrize("sql", BOUND)
@pytest.mark.parametrize("value", [None, 2.7, Decimal("2.5"), "x", "2.5",
                                   float("nan"), float("inf")])
def test_a_bad_row_count_is_a_data_error(tables, sql, value):
    session, lite, _rows_ = tables
    with pytest.raises(sqlite3.Error, match="datatype mismatch"):
        lite.execute(sql, [float(value) if isinstance(value, Decimal)
                           else value]).fetchall()
    with pytest.raises(errors.DataError) as caught:
        session.execute(sql, [value])
    clause = "OFFSET" if "offset" in sql else "LIMIT"
    assert caught.value.sqlstate == \
        ("2201X" if clause == "OFFSET" else "2201W")
    assert clause in str(caught.value)


@pytest.mark.parametrize("sql", BOUND)
@pytest.mark.parametrize("value", [2, 2.0, "3", " 3.0 ", Decimal("4"), True])
def test_an_integral_row_count_converts(tables, sql, value):
    session, lite, _rows_ = tables
    theirs = lite.execute(sql.replace("a desc", "a desc nulls first")
                          .replace("by a limit", "by a nulls last limit"),
                          [float(value) if isinstance(value, Decimal)
                           else value]).fetchall()
    ours = session.execute(sql, [value]).rows
    if "order by" in sql:
        assert [tuple(row) for row in ours] == theirs
    else:  # no order: heap order here, any order there
        assert len(ours) == len(theirs)


@pytest.mark.parametrize("sql", BOUND[:2])
def test_a_negative_row_count_is_a_data_error(tables, sql):
    session, _lite, _rows_ = tables
    with pytest.raises(errors.DataError):
        session.execute(sql, [-1])
