"""PySQLJ: a Python reproduction of "SQLJ: Java and Relational Databases"
(SIGMOD 1998 tutorial).

Layers (bottom-up):

* :mod:`repro.engine` — from-scratch in-memory relational engine with a
  durable storage option (WAL + checkpoints + crash recovery),
* :mod:`repro.dbapi` — JDBC-shaped connectivity (PyDBC),
* :mod:`repro.translator`, :mod:`repro.profiles`, :mod:`repro.runtime`
  — SQLJ Part 0: embedded SQL, profiles, customizers,
* :mod:`repro.procedures` — SQLJ Part 1: Python callables as SQL routines,
* :mod:`repro.datatypes` — SQLJ Part 2: Python classes as SQL types.

Everything an application needs is importable from ``repro`` itself:

.. code-block:: python

    import repro

    with repro.connect("pydbc:standard:acme") as conn:
        with conn.create_statement() as stmt:
            stmt.execute_update("CREATE TABLE t (n INT)")

    # Durable variant: WAL + checkpoints + crash recovery.
    conn = repro.connect("pydbc:standard:acme", data_dir="/var/lib/acme")

Import from ``repro`` (or the documented submodule homes such as
``repro.runtime.sqlj`` for translated programs and
``repro.engine.database`` for engine internals).  ``repro.__all__`` is
the supported surface — ``tools/check_public_api.py`` diffs it (plus
the façade signatures) against a committed snapshot in CI.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro import errors
from repro.errors import ReproError, SQLException
from repro import observability
from repro.engine.database import Database, Session
from repro.engine.dialects import DIALECTS, Dialect
from repro.engine.durability import DurabilityManager, open_database
from repro.engine.persistence import load_database, save_database
from repro.engine.wal import WriteAheadLog
from repro.dbapi.connection import Connection
from repro.dbapi.driver import DatabaseRegistry, DriverManager, registry
from repro.dbapi.pool import ConnectionPool, PooledConnection
from repro.runtime.context import ConnectionContext, ExecutionContext

__version__ = "1.1.0"

#: Environment variable consulted by :func:`connect` when ``data_dir``
#: is not passed explicitly.
DATA_DIR_ENV = "REPRO_DATA_DIR"

__all__ = [
    # the one-call entry point
    "connect",
    "open_database",
    # engine
    "Database",
    "Session",
    "Dialect",
    "DIALECTS",
    "DurabilityManager",
    "WriteAheadLog",
    "save_database",
    "load_database",
    # dbapi
    "Connection",
    "ConnectionPool",
    "PooledConnection",
    "DriverManager",
    "DatabaseRegistry",
    "registry",
    # SQLJ runtime
    "ConnectionContext",
    "ExecutionContext",
    # errors and observability
    "errors",
    "ReproError",
    "SQLException",
    "observability",
    # metadata
    "DATA_DIR_ENV",
    "__version__",
]


def connect(
    url: str = "pydbc:standard:db",
    *,
    user: Optional[str] = None,
    pooled: bool = False,
    durable: bool = True,
    data_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    slow_query_ms: Optional[float] = None,
    **durability_options,
) -> Connection:
    """Open a DB-API connection to an embedded database.

    ``url`` is either a PyDBC URL, ``pydbc:<dialect>:<name>`` — the
    named embedded database is created on first use and shared
    process-wide by every later ``connect`` to the same name — or a
    remote URL, ``repro://host:port/<name>``, which dials a
    :mod:`repro.server` over TCP and returns the same DB-API surface
    (see ``docs/SERVER.md``).  For remote URLs durability is the
    *server's* concern: ``data_dir`` and durability options are
    rejected client-side.

    Durability: when ``data_dir`` is given (or the ``REPRO_DATA_DIR``
    environment variable is set) and ``durable`` is true, the database
    is opened through the durable storage engine — crash recovery runs
    on first open, every committed statement is redo-logged to the
    write-ahead log under ``<data_dir>/<name>/``, and checkpoints fold
    the log into LSM runs — each flush writes only the rows changed
    since the last one (see ``docs/STORAGE.md``).  Extra keyword
    arguments (``group_window``, ``group_size``, ``checkpoint_interval``,
    ``sync``) tune it; see
    :func:`repro.engine.durability.open_database`.  ``storage`` is
    accepted and ignored (``"snapshot"`` and ``"lsm"`` open the same
    engine).  Without a data directory the database is purely
    in-memory and ``durable`` is ignored.

    ``pooled=True`` checks the connection out of the process-wide
    :class:`ConnectionPool` for ``(url, user)`` instead of opening a
    fresh session, blocking up to ``timeout`` seconds (the pool default
    when ``None``); closing the connection returns it to the pool.

    ``slow_query_ms`` sets this connection's slow-query threshold:
    statements slower than that many milliseconds are emitted to the
    structured slow-query log (see ``docs/OBSERVABILITY.md``),
    overriding the process-wide ``REPRO_SLOW_QUERY_MS`` setting.
    """
    if url.lower().startswith("repro:"):
        if data_dir is not None or durability_options:
            raise errors.ConnectionError_(
                "data_dir and durability options configure the server "
                "side of a repro:// connection; pass them to "
                "ReproServer or 'python -m repro.server' instead"
            )
        if pooled:
            connection = DriverManager.get_pool(url, user=user).checkout(
                timeout=timeout
            )
        else:
            connection = DriverManager.get_connection(url, user=user)
        if slow_query_ms is not None:
            connection.session.slow_query_ms = float(slow_query_ms)
        return connection
    if data_dir is None:
        data_dir = os.environ.get(DATA_DIR_ENV) or None
    database: Optional[Database] = None
    if durable and data_dir is not None:
        dialect, name = _parse_url(url)
        database = registry.get_or_open_durable(
            name,
            dialect,
            os.path.join(data_dir, name),
            **durability_options,
        )
    elif durability_options:
        raise errors.ConnectionError_(
            "durability options "
            f"{sorted(durability_options)} require durable=True and a "
            "data_dir (or REPRO_DATA_DIR)"
        )
    if pooled:
        connection = DriverManager.get_pool(
            url, user=user, database=database
        ).checkout(timeout=timeout)
    else:
        connection = DriverManager.get_connection(
            url, user=user, database=database
        )
    if slow_query_ms is not None:
        connection.session.slow_query_ms = float(slow_query_ms)
    return connection


def _parse_url(url: str) -> Tuple[str, str]:
    """Split ``pydbc:<dialect>:<name>`` → ``(dialect, name)``."""
    parts = url.split(":")
    if len(parts) != 3 or parts[0].lower() != "pydbc":
        raise errors.ConnectionError_(
            f"malformed PyDBC URL {url!r}; expected "
            "'pydbc:<dialect>:<name>'"
        )
    return parts[1].lower(), parts[2]
