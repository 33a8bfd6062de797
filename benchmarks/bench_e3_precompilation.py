"""E3 — "Offline pre-compilation (for performance)" (paper slide 6).

The same parameterised query runs M times against an N-row table through
three execution paths:

* **dynamic** — parse + plan + execute on every call (``Statement``),
* **prepared-once** — parse + plan once, execute M times
  (``PreparedStatement``; what a careful JDBC program does),
* **customized profile** — the statement was parsed and planned at
  *deployment* time by the profile customizer; run time only executes
  (what a SQLJ binary does after customization).

Expected shape: customized <= prepared-once << dynamic; the gap to
dynamic grows with statement complexity and M, and is largest for cheap
queries where parse time dominates.
"""

import itertools
import time

import pytest

from benchmarks.common import fresh_name, make_emps_db, report
from repro.engine.plancache import CAPACITY
from repro.profiles.customization import ConnectedProfile
from repro.profiles.customizer import customize_profile
from repro.profiles.model import EntryInfo, Profile

POINT_QUERY = (
    "SELECT name, sales FROM emps WHERE id = ? AND sales IS NOT NULL"
)
COMPLEX_QUERY = (
    "SELECT state, COUNT(*) AS n, SUM(sales) AS total FROM emps "
    "WHERE sales > ? GROUP BY state HAVING COUNT(*) > 1 "
    "ORDER BY total DESC LIMIT 5"
)


def make_profile(sql):
    profile = Profile(
        name=fresh_name("e3_profile"), context_type="Default"
    )
    profile.data.add(EntryInfo(index=0, sql=sql, role="QUERY"))
    return profile


def respelled(sql):
    """A function returning never-seen spellings of ``sql``.

    The dynamic path must pay parse + plan on every call, which is the
    cost pre-compilation is measured against; repeated text would hit
    the engine's plan cache and skip both.  The cache keys on the
    byte-exact text, so trailing spaces — cycling through twice as many
    spellings as the cache holds — make every call a miss.
    """
    spellings = itertools.cycle(
        [sql + " " * n for n in range(1, 2 * CAPACITY + 1)]
    )
    return lambda: next(spellings)


@pytest.fixture(scope="module")
def engine():
    return make_emps_db(2000, name="e3")


def run_paths(session, sql, params, executions, repeats=3):
    """Wall times for dynamic / prepared-once / customized.

    Each path runs ``repeats`` times and keeps the fastest run, which
    suppresses scheduler noise for the scan-bound configurations.
    """
    prepared = session.prepare(sql)
    spelling = respelled(sql)
    profile = make_profile(sql)
    customize_profile(profile, session.dialect.name)
    connected = ConnectedProfile(profile, session)
    statement = connected.get_statement(0)  # plan built here, once

    def time_path(fn):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(executions):
                fn()
            best = min(best, time.perf_counter() - start)
        return best

    return {
        "dynamic": time_path(lambda: session.execute(spelling(), params)),
        "prepared": time_path(lambda: prepared.execute(params)),
        "customized": time_path(lambda: statement.execute(params)),
    }


class TestPrecompilationShape:
    def test_shape_across_queries_and_volumes(self, engine):
        _database, session = engine
        rows = []
        shapes_hold = []
        for label, sql, params in [
            ("point", POINT_QUERY, ["E0001"]),
            ("complex", COMPLEX_QUERY, [100]),
        ]:
            for executions in (50, 200):
                timings = run_paths(session, sql, params, executions)
                rows.append(
                    (
                        label,
                        executions,
                        f"{timings['dynamic'] * 1000:.1f}ms",
                        f"{timings['prepared'] * 1000:.1f}ms",
                        f"{timings['customized'] * 1000:.1f}ms",
                        f"{timings['dynamic'] / timings['customized']:.2f}x",
                    )
                )
                # 10% tolerance: on scan-bound configurations the parse
                # saving is small relative to execution, so noise can
                # nudge individual runs.
                shapes_hold.append(
                    timings["customized"] <= timings["dynamic"] * 1.10
                    and timings["prepared"] <= timings["dynamic"] * 1.10
                )
        report(
            "E3: execution paths (N=2000 rows)",
            rows,
            ("query", "execs", "dynamic", "prepared-once",
             "customized", "dyn/custom"),
        )
        # who wins: precompiled never loses to per-call parsing.
        assert all(shapes_hold)

    def test_parse_avoidance_grows_with_cheap_queries(self, engine):
        _database, session = engine
        cheap = run_paths(session, "SELECT 1 + ?", [1], 200)
        scan = run_paths(session, POINT_QUERY, ["E0001"], 200)
        cheap_ratio = cheap["dynamic"] / cheap["customized"]
        scan_ratio = scan["dynamic"] / scan["customized"]
        # Parse cost dominates the cheap statement, so skipping it
        # helps relatively more there.
        assert cheap_ratio > scan_ratio * 0.8  # allow noise margin
        assert cheap_ratio > 1.5


@pytest.mark.benchmark(group="e3-point-query")
def test_dynamic_execution(benchmark, engine):
    _database, session = engine
    spelling = respelled(POINT_QUERY)
    benchmark(lambda: session.execute(spelling(), ["E0001"]))


@pytest.mark.benchmark(group="e3-point-query")
def test_prepared_once_execution(benchmark, engine):
    _database, session = engine
    prepared = session.prepare(POINT_QUERY)
    benchmark(prepared.execute, ["E0001"])


@pytest.mark.benchmark(group="e3-point-query")
def test_customized_profile_execution(benchmark, engine):
    _database, session = engine
    profile = make_profile(POINT_QUERY)
    customize_profile(profile, "standard")
    statement = ConnectedProfile(profile, session).get_statement(0)
    benchmark(statement.execute, ["E0001"])


@pytest.mark.benchmark(group="e3-complex-query")
def test_dynamic_complex(benchmark, engine):
    _database, session = engine
    spelling = respelled(COMPLEX_QUERY)
    benchmark(lambda: session.execute(spelling(), [100]))


@pytest.mark.benchmark(group="e3-complex-query")
def test_customized_complex(benchmark, engine):
    _database, session = engine
    profile = make_profile(COMPLEX_QUERY)
    customize_profile(profile, "standard")
    statement = ConnectedProfile(profile, session).get_statement(0)
    benchmark(statement.execute, [100])
