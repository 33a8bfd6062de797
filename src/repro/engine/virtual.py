"""Virtual system tables: live statistics served through plain SQL.

A :class:`VirtualTable` is a catalog-registered, read-only table whose
rows are *produced* at scan time by a Python callable instead of being
stored in a heap.  The planner pairs it with :class:`VirtualScan`, a
leaf operator that invokes the producer per execution — so a cached
plan over a virtual table always returns fresh rows.  Because the
tables live in the ordinary catalog under dotted names
(``repro_stats.statements`` and friends), a plain ``SELECT`` against
them works identically in-process, through dbapi connections and
pools, from translated SQLJ programs, and over the repro:// server
— the paper's location transparency, extended to observability itself.

Registered views (see ``docs/OBSERVABILITY.md`` for column meanings):

* ``repro_stats.statements`` — per-normalized-statement profile
  (calls, errors by SQLSTATE, total/mean/p99 time, rows, plan-cache
  hits, wait breakdown),
* ``repro_stats.sessions`` — live sessions of this database (whether
  a transaction is open, with its MVCC id and snapshot once taken),
* ``repro_stats.transactions`` — live MVCC transactions: snapshot,
  write-set sizes, pristine flag,
* ``repro_stats.locks`` — reader-writer-lock and WAL wait attribution,
* ``repro_stats.statistics`` — ANALYZE statistics per table column
  (row count, NDV, null fraction, min/max, histogram bounds, stats
  version and the analyzing transaction),
* ``repro_stats.metrics`` — the process-wide metrics registry,
* ``repro_stats.pool`` — connection pools of this process,
* ``repro_stats.server`` — network-server counters and timings.

Virtual tables are system-owned and SELECT is granted to ``public``;
DML and DDL against them are rejected by the respective executors
(:mod:`repro.engine.dml`, :mod:`repro.engine.ddl`).  They are never
included in persistence images — bootstrap re-registers them on every
open, exactly like the SQLJ system routines.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List

from repro import errors
from repro.engine.catalog import Column, Table
from repro.engine.executor import Operator, RuntimeContext
from repro.engine.mvcc import CLAIM, INSERT
from repro.observability import metrics as _metrics
from repro.sqltypes import parse_type

__all__ = [
    "VirtualTable",
    "VirtualScan",
    "register_stats_views",
    "STATS_VIEW_NAMES",
]

#: Producer signature: session -> materialised rows.
Producer = Callable[[Any], List[List[Any]]]


class VirtualTable(Table):
    """A read-only table whose rows come from a producer callable."""

    def __init__(
        self,
        name: str,
        columns: List[Column],
        owner: str,
        producer: Producer,
    ) -> None:
        super().__init__(name, columns, owner)
        self.producer = producer

    def readonly_error(self, action: str) -> errors.SQLException:
        return errors.FeatureNotSupportedError(
            f"cannot {action} {self.name!r}: system statistics views "
            "are read-only"
        )


class VirtualScan(Operator):
    """Leaf operator producing a virtual table's rows.

    Rows are materialised per execution, so statistics are read at
    query time even when the plan itself came from the plan cache.
    Deliberately does not bump ``rows.scanned`` — reading statistics
    must not perturb the statistics being read.
    """

    def __init__(self, table: VirtualTable) -> None:
        self.table = table

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        return iter(self.table.producer(ctx.session))


# ---------------------------------------------------------------------------
# the repro_stats schema
# ---------------------------------------------------------------------------


def _columns(*specs: Any) -> List[Column]:
    return [Column(name, parse_type(spelling)) for name, spelling in specs]


def _statements_rows(session: Any) -> List[List[Any]]:
    return session.database.statement_stats.statement_rows()


def _sessions_rows(session: Any) -> List[List[Any]]:
    rows: List[List[Any]] = []
    for other in list(session.database.sessions):
        if other.closed:
            continue
        txn = other.transaction
        rows.append([
            other.user,
            bool(other.autocommit),
            other.in_transaction,
            other.statements_executed,
            txn.id if txn is not None else None,
            txn.snapshot_seq if txn is not None else None,
        ])
    return rows


def _transactions_rows(session: Any) -> List[List[Any]]:
    manager = session.database.transactions
    rows: List[List[Any]] = []
    for txn in manager.active_transactions():
        writes = list(txn.writes)
        rows.append([
            txn.id,
            txn.snapshot_seq,
            sum(len(versions) for kind, _table, versions in writes
                if kind == INSERT),
            sum(kind == CLAIM for kind, _table, _version in writes),
            bool(txn.pristine),
        ])
    rows.sort(key=lambda row: row[0])
    return rows


def _locks_rows(session: Any) -> List[List[Any]]:
    database = session.database
    lock = database.lock
    rows: List[List[Any]] = [[
        "(database)",
        lock.shared_wait_count,
        lock.exclusive_wait_count,
        lock.shared_wait_seconds * 1000.0,
        lock.exclusive_wait_seconds * 1000.0,
        None,
    ]]
    rows.extend(database.statement_stats.lock_rows())
    return rows


def _metrics_rows(session: Any) -> List[List[Any]]:
    snapshot = _metrics.snapshot()
    rows: List[List[Any]] = []
    for name in sorted(snapshot["counters"]):
        rows.append([
            name, "counter", float(snapshot["counters"][name]),
            None, None, None, None, None,
        ])
    for name in sorted(snapshot["histograms"]):
        summary = snapshot["histograms"][name]
        rows.append([
            name, "histogram", None,
            summary["count"], summary["sum"], summary["min"],
            summary["max"], summary["mean"],
        ])
    return rows


def _statistics_rows(session: Any) -> List[List[Any]]:
    import json

    catalog = session.database.catalog
    rows: List[List[Any]] = []
    for table_name in sorted(catalog.statistics):
        stats = catalog.statistics[table_name]
        if not stats.columns:
            rows.append([
                table_name, None, stats.row_count, None, None,
                None, None, None, stats.version, stats.analyzed_txn,
            ])
            continue
        for column_name in sorted(stats.columns):
            column = stats.columns[column_name]
            bounds = (
                json.dumps(column.histogram_bounds)
                if column.histogram_bounds else None
            )
            rows.append([
                table_name,
                column_name,
                stats.row_count,
                column.ndv,
                column.null_fraction,
                None if column.min_value is None else repr(column.min_value),
                None if column.max_value is None else repr(column.max_value),
                bounds,
                stats.version,
                stats.analyzed_txn,
            ])
    return rows


def _pool_rows(session: Any) -> List[List[Any]]:
    from repro.dbapi.driver import DriverManager

    rows: List[List[Any]] = []
    with DriverManager._pools_lock:
        pools = list(DriverManager._pools.items())
    for (_url, user), pool in pools:
        rows.append([
            pool.name,
            pool.url,
            user,
            pool._in_use + len(pool._idle),
            pool._in_use,
            len(pool._idle),
            pool.max_size,
        ])
    return rows


def _server_rows(session: Any) -> List[List[Any]]:
    snapshot = _metrics.snapshot()
    rows: List[List[Any]] = []
    for name in sorted(snapshot["counters"]):
        if name.startswith("server."):
            rows.append([
                name, float(snapshot["counters"][name]), None, None,
            ])
    for name in sorted(snapshot["histograms"]):
        if name.startswith("server."):
            summary = snapshot["histograms"][name]
            rows.append([
                name, None, summary["count"], summary["sum"],
            ])
    return rows


#: (table name, column spec, producer) for every repro_stats view.
_VIEW_SPECS = [
    (
        "repro_stats.statements",
        (
            ("statement", "VARCHAR"),
            ("calls", "INT"),
            ("errors", "INT"),
            ("error_sqlstates", "VARCHAR"),
            ("total_ms", "DOUBLE PRECISION"),
            ("mean_ms", "DOUBLE PRECISION"),
            ("p99_ms", "DOUBLE PRECISION"),
            ("rows_returned", "INT"),
            ("rows_scanned", "INT"),
            ("plan_cache_hits", "INT"),
            ("shared_wait_ms", "DOUBLE PRECISION"),
            ("exclusive_wait_ms", "DOUBLE PRECISION"),
            ("wal_wait_ms", "DOUBLE PRECISION"),
        ),
        _statements_rows,
    ),
    (
        "repro_stats.sessions",
        (
            ("user_name", "VARCHAR"),
            ("autocommit", "BOOLEAN"),
            ("in_txn", "BOOLEAN"),
            ("statements", "INT"),
            ("txn_id", "INT"),
            ("snapshot_seq", "INT"),
        ),
        _sessions_rows,
    ),
    (
        "repro_stats.transactions",
        (
            ("txn_id", "INT"),
            ("snapshot_seq", "INT"),
            ("rows_created", "INT"),
            ("rows_claimed", "INT"),
            ("pristine", "BOOLEAN"),
        ),
        _transactions_rows,
    ),
    (
        "repro_stats.locks",
        (
            ("statement", "VARCHAR"),
            ("shared_waits", "INT"),
            ("exclusive_waits", "INT"),
            ("shared_wait_ms", "DOUBLE PRECISION"),
            ("exclusive_wait_ms", "DOUBLE PRECISION"),
            ("wal_wait_ms", "DOUBLE PRECISION"),
        ),
        _locks_rows,
    ),
    (
        "repro_stats.metrics",
        (
            ("metric", "VARCHAR"),
            ("kind", "VARCHAR"),
            ("value", "DOUBLE PRECISION"),
            ("observations", "INT"),
            ("total", "DOUBLE PRECISION"),
            ("minimum", "DOUBLE PRECISION"),
            ("maximum", "DOUBLE PRECISION"),
            ("mean", "DOUBLE PRECISION"),
        ),
        _metrics_rows,
    ),
    (
        "repro_stats.statistics",
        (
            ("table_name", "VARCHAR"),
            ("column_name", "VARCHAR"),
            ("row_count", "INT"),
            ("ndv", "INT"),
            ("null_fraction", "DOUBLE PRECISION"),
            ("min_value", "VARCHAR"),
            ("max_value", "VARCHAR"),
            ("histogram_bounds", "VARCHAR"),
            ("stats_version", "INT"),
            ("analyzed_txn", "INT"),
        ),
        _statistics_rows,
    ),
    (
        "repro_stats.pool",
        (
            ("pool_name", "VARCHAR"),
            ("url", "VARCHAR"),
            ("user_name", "VARCHAR"),
            ("size", "INT"),
            ("in_use", "INT"),
            ("idle", "INT"),
            ("max_size", "INT"),
        ),
        _pool_rows,
    ),
    (
        "repro_stats.server",
        (
            ("metric", "VARCHAR"),
            ("value", "DOUBLE PRECISION"),
            ("observations", "INT"),
            ("total_seconds", "DOUBLE PRECISION"),
        ),
        _server_rows,
    ),
]

STATS_VIEW_NAMES = tuple(name for name, _cols, _producer in _VIEW_SPECS)


def register_stats_views(database: Any) -> None:
    """Create the ``repro_stats`` virtual tables in ``database``.

    Called from ``Database._bootstrap``; tables are owned by the admin
    user with SELECT granted to ``public`` so any session — including
    the server's default ``PUBLIC`` remote user — can read them.
    """
    admin = database.admin_user
    for name, specs, producer in _VIEW_SPECS:
        table = VirtualTable(name, _columns(*specs), admin, producer)
        database.catalog.create_table(table)
        database.privileges.grant(
            "SELECT", "TABLE", name, ["public"], grantor=admin, owner=admin
        )
