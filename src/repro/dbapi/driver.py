"""DriverManager and the database registry.

``DriverManager.get_connection(url)`` resolves PyDBC URLs:

* ``pydbc:<dialect>:<name>`` — connect to the registered database
  ``<name>`` (creating it on first use with the given dialect, the way a
  test JDBC driver would spin up an embedded database),
* ``DBAPI:DEFAULT:CONNECTION`` / ``JDBC:DEFAULT:CONNECTION`` — inside an
  external routine, a connection sharing the invoking session (paper,
  Part 1 examples).

``get_connection(url, pooled=True)`` routes the checkout through a
process-wide :class:`repro.dbapi.pool.ConnectionPool` shared by every
pooled caller of the same ``(url, user)`` — closing such a connection
returns its session to the pool instead of discarding it.
``DriverManager.get_pool`` exposes the pool itself (for tuning and
gauges); ``DriverManager.shutdown_pools`` drains them (tests).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional, Tuple

from repro import errors
from repro.dbapi.connection import Connection
from repro.engine.database import Database

__all__ = ["DriverManager", "DatabaseRegistry", "registry"]

_DEFAULT_URLS = ("dbapi:default:connection", "jdbc:default:connection")


class DatabaseRegistry:
    """Process-wide registry of embedded databases, keyed by name."""

    def __init__(self) -> None:
        self._databases: Dict[str, Database] = {}
        self._lock = threading.Lock()

    def register(self, database: Database) -> Database:
        with self._lock:
            self._databases[database.name] = database
        return database

    def get_or_create(self, name: str, dialect: str) -> Database:
        with self._lock:
            database = self._databases.get(name)
            if database is None:
                database = Database(name=name, dialect=dialect)
                self._databases[name] = database
            elif database.dialect.name != dialect:
                raise errors.ConnectionError_(
                    f"database {name!r} runs dialect "
                    f"{database.dialect.name!r}, not {dialect!r}"
                )
            return database

    def get_or_open_durable(
        self,
        name: str,
        dialect: str,
        directory: str,
        **durability_options,
    ) -> Database:
        """Open (or share) the durable database ``name`` at ``directory``.

        The first call runs crash recovery via
        :func:`repro.engine.durability.open_database`; later calls with
        the same name share the already-open instance, so every
        ``repro.connect`` against the same data directory sees one
        engine.  Clashes are errors: a same-named in-memory database, a
        different directory for the same name, or a dialect mismatch all
        raise :class:`repro.errors.ConnectionError_`.
        """
        directory = os.path.abspath(directory)
        with self._lock:
            database = self._databases.get(name)
            if database is not None:
                manager = database.durability
                if manager is None:
                    raise errors.ConnectionError_(
                        f"database {name!r} is already open in-memory; "
                        "close it before reopening durably"
                    )
                if os.path.abspath(str(manager.directory)) != directory:
                    raise errors.ConnectionError_(
                        f"database {name!r} is already open from "
                        f"{manager.directory!r}, not {directory!r}"
                    )
                if database.dialect.name != dialect:
                    raise errors.ConnectionError_(
                        f"database {name!r} runs dialect "
                        f"{database.dialect.name!r}, not {dialect!r}"
                    )
                return database
            from repro.engine.durability import open_database

            database = open_database(
                directory,
                name=name,
                dialect=dialect,
                **durability_options,
            )
            self._databases[database.name] = database
            return database

    def lookup(self, name: str) -> Optional[Database]:
        with self._lock:
            return self._databases.get(name)

    def drop(self, name: str) -> None:
        with self._lock:
            database = self._databases.pop(name, None)
        self._close_durable(database)

    def clear(self) -> None:
        with self._lock:
            databases = list(self._databases.values())
            self._databases.clear()
        for database in databases:
            self._close_durable(database)

    @staticmethod
    def _close_durable(database: Optional[Database]) -> None:
        """Best-effort final checkpoint + WAL close for durable dbs."""
        if database is None or database.durability is None:
            return
        try:
            database.close()
        except errors.ReproError:  # pragma: no cover - best effort
            pass


#: Default process-wide registry used by DriverManager.
registry = DatabaseRegistry()


class DriverManager:
    """Entry point mirroring ``java.sql.DriverManager``."""

    _pools: Dict[Tuple[str, Optional[str]], "ConnectionPool"] = {}
    _pools_lock = threading.Lock()

    @staticmethod
    def get_connection(
        url: str,
        user: Optional[str] = None,
        database: Optional[Database] = None,
        pooled: bool = False,
    ) -> Connection:
        """Open a connection for ``url``.

        ``database`` short-circuits the registry (used by tests and by the
        SQLJ runtime when a connection context wraps an existing engine
        instance).  ``pooled`` checks the connection out of the shared
        pool for ``(url, user)`` instead of opening a fresh session.
        """
        if url.lower() in _DEFAULT_URLS:
            from repro.procedures.invocation import (
                default_connection_session,
            )

            session = default_connection_session()
            return Connection(session, url=url, owns_session=False)

        if pooled:
            return DriverManager.get_pool(
                url, user=user, database=database
            ).checkout()

        if database is not None:
            session = database.create_session(user=user, autocommit=True)
            return Connection(session, url=url)

        target = DriverManager._resolve_database(url)
        session = target.create_session(user=user, autocommit=True)
        return Connection(session, url=url)

    @staticmethod
    def get_pool(
        url: str,
        user: Optional[str] = None,
        database: Optional[Database] = None,
        **pool_options,
    ) -> "ConnectionPool":
        """Shared pool for ``(url, user)``, created on first use.

        ``pool_options`` (``min_size``, ``max_size``, ``timeout``,
        ``max_age``, ...) only take effect on the
        call that creates the pool; later callers share it as-is.
        """
        from repro.dbapi.pool import ConnectionPool

        key = (url.lower(), user)
        with DriverManager._pools_lock:
            pool = DriverManager._pools.get(key)
            if pool is None or pool.closed:
                if database is None:
                    database = DriverManager._resolve_database(url)
                pool = ConnectionPool(
                    database, user=user, url=url, **pool_options
                )
                DriverManager._pools[key] = pool
            return pool

    @staticmethod
    def shutdown_pools() -> None:
        """Close and forget every shared pool (test isolation)."""
        with DriverManager._pools_lock:
            pools = list(DriverManager._pools.values())
            DriverManager._pools.clear()
        for pool in pools:
            pool.close()

    @staticmethod
    def _resolve_database(url: str):
        """Resolve ``url`` to a session factory.

        ``pydbc:`` URLs resolve to a registered embedded
        :class:`Database`; ``repro://host:port/name`` URLs resolve to a
        :class:`repro.dbapi.remote.RemoteTarget`, whose sessions speak
        the network protocol.  Both expose ``create_session``, so every
        caller (plain connections, pools, connection contexts) is
        location-transparent.
        """
        if url.lower().startswith("repro:"):
            from repro.dbapi.remote import RemoteTarget

            return RemoteTarget.from_url(url)
        parts = url.split(":")
        if len(parts) != 3 or parts[0].lower() != "pydbc":
            raise errors.ConnectionError_(
                f"malformed PyDBC URL {url!r}; expected "
                "'pydbc:<dialect>:<name>' or 'repro://host:port/<name>'"
            )
        _scheme, dialect, name = parts
        return registry.get_or_create(name, dialect.lower())
