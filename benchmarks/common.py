"""Shared workload builders for the benchmark harness.

Every experiment (see DESIGN.md's experiment index) builds on the
paper's payroll schema.  The helpers here create engines of a given
size, install the paper's routines, register the Address types, and
translate small SQLJ programs on the fly.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import tempfile
import time
from typing import Callable, List, Optional, Tuple

from repro import observability
from repro import Database
from repro.procedures import build_par_bytes
from repro.procedures.archives import build_par
from repro.profiles.serialization import save_profile
from repro import ConnectionContext
from repro.translator import TranslationOptions, Translator

#: States used to synthesise employee rows; mix of mapped and unmapped.
STATES = ["CA", "MN", "NV", "FL", "VT", "GA", "AZ", "TX", "WA", "NH"]

ROUTINES1_SOURCE = '''
from repro import DriverManager


def region(s):
    if s in ("MN", "VT", "NH"):
        return 1
    if s in ("FL", "GA", "AL"):
        return 2
    if s in ("CA", "AZ", "NV"):
        return 3
    return 4


def correct_states(old_spelling, new_spelling):
    conn = DriverManager.get_connection("JDBC:DEFAULT:CONNECTION")
    stmt = conn.prepare_statement(
        "UPDATE emps SET state = ? WHERE state = ?")
    stmt.set_string(1, new_spelling)
    stmt.set_string(2, old_spelling)
    stmt.execute_update()
'''

ROUTINES2_SOURCE = '''
from repro import DriverManager


def best_two_emps(n1, id1, r1, s1, n2, id2, r2, s2, region_parm):
    conn = DriverManager.get_connection("DBAPI:DEFAULT:CONNECTION")
    stmt = conn.prepare_statement(
        "SELECT name, id, region_of(state) as region, sales FROM emps "
        "WHERE region_of(state) > ? AND sales IS NOT NULL "
        "ORDER BY sales DESC")
    stmt.set_int(1, region_parm)
    r = stmt.execute_query()
    if r.next():
        n1[0] = r.get_string("name")
        id1[0] = r.get_string("id")
        r1[0] = r.get_int("region")
        s1[0] = r.get_decimal("sales")
    else:
        n1[0] = "****"
        return
    if r.next():
        n2[0] = r.get_string("name")
        id2[0] = r.get_string("id")
        r2[0] = r.get_int("region")
        s2[0] = r.get_decimal("sales")
    else:
        n2[0] = "****"
'''

ROUTINES3_SOURCE = '''
from repro import DriverManager


def ordered_emps(region_parm, rs):
    conn = DriverManager.get_connection("DBAPI:DEFAULT:CONNECTION")
    stmt = conn.prepare_statement(
        "SELECT name, region_of(state) as region, sales FROM emps "
        "WHERE region_of(state) > ? AND sales IS NOT NULL "
        "ORDER BY sales DESC")
    stmt.set_int(1, region_parm)
    rs[0] = stmt.execute_query()
'''

ADDRESS_SOURCE = '''
class Address:
    recommended_width = 25

    def __init__(self, street="Unknown", zip="None"):
        self.street = street
        self.zip = zip

    def to_string(self):
        return "Street= " + self.street + " ZIP= " + self.zip

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.street == other.street
                and self.zip == other.zip)

    def __hash__(self):
        return hash((self.street, self.zip))


class Address2Line(Address):
    def __init__(self, street="Unknown", line2=" ", zip="None"):
        super().__init__(street, zip)
        self.line2 = line2

    def to_string(self):
        return ("Street= " + self.street + " Line2= " + self.line2
                + " ZIP= " + self.zip)
'''

_COUNTER = itertools.count()


def fresh_name(prefix: str) -> str:
    """Unique database name (pytest-benchmark repeats fixtures)."""
    return f"{prefix}_{next(_COUNTER)}"


def make_emps_db(
    rows: int, dialect: str = "standard", name: Optional[str] = None
) -> Tuple[Database, "object"]:
    """Engine with the paper's emps table holding ``rows`` rows."""
    database = Database(
        name=name or fresh_name("bench"), dialect=dialect
    )
    session = database.create_session(autocommit=True)
    session.execute(
        "create table emps (name varchar(50), id char(5), "
        "state char(20), sales decimal(8,2))"
    )
    table = database.catalog.get_table("emps")
    from decimal import Decimal

    # Insert straight into storage (the rows setter seeds committed
    # versions): benchmark setup, not the thing being measured.
    table.rows = [
        [
            f"Emp{i:06d}",
            f"E{i % 100000:05d}"[:5].ljust(5),
            STATES[i % len(STATES)].ljust(20),
            Decimal(i % 50000) / 100,
        ]
        for i in range(rows)
    ]
    return database, session


def install_paper_routines(database: Database, session) -> None:
    """Install Routines1-3 and their SQL names into ``database``."""
    payload = build_par_bytes(
        {
            "routines1": ROUTINES1_SOURCE,
            "routines2": ROUTINES2_SOURCE,
            "routines3": ROUTINES3_SOURCE,
        }
    )
    with tempfile.NamedTemporaryFile(
        suffix=".par", delete=False
    ) as handle:
        handle.write(payload)
        par_path = handle.name
    try:
        session.execute(
            f"call sqlj.install_par('{par_path}', 'routines_par')"
        )
    finally:
        os.unlink(par_path)
    session.execute(
        "create function region_of(state char(20)) returns integer "
        "no sql external name 'routines_par:routines1.region' "
        "language python parameter style python"
    )
    session.execute(
        "create procedure correct_states(old char(20), new char(20)) "
        "modifies sql data "
        "external name 'routines_par:routines1.correct_states' "
        "language python parameter style python"
    )
    session.execute(
        "create procedure best2 ("
        "out n1 varchar(50), out id1 varchar(5), out r1 integer, "
        "out s1 decimal(8,2), out n2 varchar(50), out id2 varchar(5), "
        "out r2 integer, out s2 decimal(8,2), region integer) "
        "reads sql data "
        "external name 'routines_par:routines2.best_two_emps' "
        "language python parameter style python"
    )
    session.execute(
        "create procedure ranked_emps (region integer) "
        "dynamic result sets 1 reads sql data "
        "external name 'routines_par:routines3.ordered_emps' "
        "language python parameter style python"
    )


def install_address_types(database: Database, session) -> None:
    """Register the paper's addr / addr_2_line types."""
    import tempfile as _tempfile

    with _tempfile.TemporaryDirectory() as workdir:
        par_path = build_par(
            os.path.join(workdir, "address.par"),
            {"addressmod": ADDRESS_SOURCE},
        )
        session.execute(
            f"call sqlj.install_par('{par_path}', 'address_par')"
        )
    session.execute("""
        create type addr
        external name 'address_par:addressmod.Address' language python (
          zip_attr char(10) external name zip,
          street_attr varchar(50) external name street,
          method addr (s_parm varchar(50), z_parm char(10)) returns addr
            external name Address,
          method to_string () returns varchar(255)
            external name to_string
        )
    """)
    session.execute("""
        create type addr_2_line under addr
        external name 'address_par:addressmod.Address2Line'
        language python (
          line2_attr varchar(100) external name line2,
          method addr_2_line (s_parm varchar(50), s2_parm char(100),
            z_parm char(10)) returns addr_2_line
            external name Address2Line,
          method to_string () returns varchar(255)
            external name to_string
        )
    """)


def translate_and_import(
    source: str, module_name: str, exemplar: Database, workdir: str
):
    """Translate SQLJ source and import the generated module."""
    translator = Translator(TranslationOptions(exemplar=exemplar))
    result = translator.translate_source(source, module_name)
    module_path = os.path.join(workdir, module_name + ".py")
    with open(module_path, "w") as handle:
        handle.write(result.python_source)
    for profile in result.profiles:
        save_profile(profile, workdir)
    sys.path.insert(0, workdir)
    try:
        module = importlib.import_module(module_name)
        module = importlib.reload(module)
    finally:
        sys.path.remove(workdir)
    return module, result


def set_default_context(database: Database) -> ConnectionContext:
    context = ConnectionContext(database)
    ConnectionContext.set_default_context(context)
    return context


def metrics_summary() -> str:
    """Compact one-cell summary of the process metrics snapshot.

    Suitable as a metrics-snapshot column in :func:`report` rows (or as
    the trailing summary line ``report(metrics=True)`` prints).
    """
    counters = observability.snapshot()["counters"]
    statements = sum(
        value for name, value in counters.items()
        if name.startswith("statements.")
    )
    sql_errors = sum(
        value for name, value in counters.items()
        if name.startswith("errors.")
    )
    return (
        f"stmts={statements}"
        f" rows={counters.get('rows.returned', 0)}"
        f" scanned={counters.get('rows.scanned', 0)}"
        f" procs={counters.get('procedures.calls', 0)}"
        f" errs={sql_errors}"
    )


def report(
    title: str,
    rows: List[Tuple],
    headers: Tuple,
    metrics: bool = False,
) -> None:
    """Print a small aligned table (shows under pytest -s and in the
    captured bench output).  With ``metrics=True`` a metrics-snapshot
    summary line follows the table."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
        else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    if metrics:
        print(f"-- metrics: {metrics_summary()}")


# ---------------------------------------------------------------------------
# Tracing-overhead guard
# ---------------------------------------------------------------------------

#: Hook activations per executed statement modelled by the probe:
#: four tracer-enabled gates (SQLJ entry point, clause execution,
#: statement execution, dispatch), four counter touches (sqlj.clauses,
#: statement-cache hit, statements.<kind> with its type lookup, the
#: rowset branch that guards rows.returned), plus the complete
#: statement-statistics sequence a statement pays in the default
#: configuration (stats on, tracing off): the enabled gate, the
#: thread-context bracket, two clock reads, the per-session counter,
#: the slow-query arm check and the collector's record-accumulate.
#: The wait-event hooks contribute nothing here by design: they run on
#: the *blocked* acquisition path only, so the uncontended fast path
#: never reaches them.
HOOKS_PER_STATEMENT = 14


class _ProbeSession:
    """Stand-in for the Session attribute traffic a statement pays."""

    __slots__ = ("statements_executed", "slow_query_ms")

    def __init__(self) -> None:
        self.statements_executed = 0
        self.slow_query_ms = None


def measure_noop_hook_cost(
    samples: int = 20_000, repeats: int = 5
) -> float:
    """Seconds of per-statement observability work, default config.

    Each probe iteration performs the activations a statement pays with
    tracing off and statement statistics on.  The statistics share is
    not simulated: the loop calls the real ``stats.begin()`` and
    ``StatementStats.record()`` on a warmed collector, brackets them
    with the same two ``perf_counter`` reads the engine makes, bumps
    the session statement counter and peeks the slow-query arm exactly
    as ``Session._record_statement`` does.  An empty-loop baseline is
    subtracted (the workload pays its own loop bookkeeping, so the
    probe must not bill it to the hooks) and the best of ``repeats``
    runs is taken, mirroring the best-of-runs workload measurement in
    :func:`assert_tracing_overhead`.
    """
    from time import perf_counter  # bound, as the engine binds it

    from repro.observability import slowlog, stats, tracing

    previous = tracing.get_tracer()
    tracing.disable_tracing()
    try:
        counter = observability.registry.counter("bench.noop_hook_probe")
        counters = {int: counter}
        collector = stats.StatementStats()
        session = _ProbeSession()
        sql = "SELECT 1"
        collector.record(sql, 0.0)  # warm the entry + raw-text alias
        best = None
        for _ in range(max(1, repeats)):
            begin = time.perf_counter()
            for _ in range(samples):
                pass
            baseline = time.perf_counter() - begin
            begin = time.perf_counter()
            for _ in range(samples):
                if tracing.current.enabled:  # SQLJ entry-point gate
                    pass
                if tracing.current.enabled:  # clause-execution gate
                    pass
                if tracing.current.enabled:  # statement-envelope gate
                    pass
                if tracing.current.enabled:  # dispatch gate
                    pass
                counter.value += 1  # sqlj.clauses
                counter.value += 1  # statement-cache hit
                by_type = counters.get(int)  # statements.<kind> lookup
                by_type.value += 1
                if counter is None:  # rows.returned rowset branch
                    counter.value += 1
                # --- statement statistics: the real calls ------------
                if stats.enabled:  # collector gate
                    context = stats.begin()
                    t0 = perf_counter()  # statement start clock
                    elapsed = perf_counter() - t0  # end clock
                    session.statements_executed += 1
                    if (  # slow-query arm peek
                        session.slow_query_ms is not None
                        or slowlog._threshold_ms is not None
                    ):
                        pass
                    collector.record(sql, elapsed, 0, context, None, False)
            elapsed = time.perf_counter() - begin - baseline
            best = elapsed if best is None else min(best, elapsed)
    finally:
        tracing.set_tracer(
            previous if previous.enabled else None
        )
    return best / samples


def assert_tracing_overhead(
    workload: Callable[[], None],
    statements_per_run: int,
    repeats: int = 3,
    budget: float = 0.05,
) -> Tuple[float, float]:
    """Assert per-statement observability costs < ``budget`` of a workload.

    Runs ``workload`` ``repeats`` times (tracing disabled, statement
    statistics on — the normal configuration), takes the best time, then
    estimates the share of it spent in observability hooks from the
    measured per-statement hook cost and ``statements_per_run``.
    Returns ``(overhead_seconds, workload_seconds)`` for reporting.
    """
    best = min(
        _timed(workload) for _ in range(max(1, repeats))
    )
    hook_cost = measure_noop_hook_cost()
    overhead = hook_cost * statements_per_run
    assert overhead < budget * best, (
        f"no-op tracing hooks cost {overhead * 1e6:.1f}us, which exceeds "
        f"{budget:.0%} of the {best * 1e6:.1f}us workload"
    )
    return overhead, best


def _timed(workload: Callable[[], None]) -> float:
    start = time.perf_counter()
    workload()
    return time.perf_counter() - start


class BenchAddress:
    """Picklable address class for the E8 storage comparison.

    Defined at module level (rather than inside a par archive) because
    the BLOB baseline pickles instances, and pickle requires an
    importable defining module.
    """

    def __init__(self, street="Unknown", zip="None"):
        self.street = street
        self.zip = zip

    def to_string(self):
        return "Street= " + self.street + " ZIP= " + self.zip

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.street == other.street
                and self.zip == other.zip)

    def __hash__(self):
        return hash((self.street, self.zip))


def install_bench_address_type(session) -> None:
    """Register BenchAddress as SQL type ``addr`` via direct import."""
    session.execute("""
        create type addr
        external name 'benchmarks.common.BenchAddress' language python (
          zip_attr char(10) external name zip,
          street_attr varchar(50) external name street,
          method addr (s_parm varchar(50), z_parm char(10)) returns addr
            external name BenchAddress,
          method to_string () returns varchar(255)
            external name to_string
        )
    """)
