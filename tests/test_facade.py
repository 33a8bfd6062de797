"""Public-façade tests: ``repro.connect``, ``repro.__all__``, the
unified error hierarchy, and the one spelling of each import path and
keyword (submodule homes import silently; the façade is the only place
the application-facing names live)."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro import errors


EXPECTED_ALL = [
    "connect",
    "open_database",
    "Database",
    "Session",
    "Dialect",
    "DIALECTS",
    "DurabilityManager",
    "WriteAheadLog",
    "save_database",
    "load_database",
    "Connection",
    "ConnectionPool",
    "PooledConnection",
    "DriverManager",
    "DatabaseRegistry",
    "registry",
    "ConnectionContext",
    "ExecutionContext",
    "errors",
    "ReproError",
    "SQLException",
    "observability",
    "DATA_DIR_ENV",
    "__version__",
]


def _deprecations(caught):
    return [
        w for w in caught if issubclass(w.category, DeprecationWarning)
    ]


class TestPublicSurface:
    def test_all_matches_documented_api(self):
        assert repro.__all__ == EXPECTED_ALL

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_importing_facade_emits_no_warnings(self):
        import importlib
        import subprocess
        import sys

        # A fresh interpreter: the façade itself must not trip its own
        # deprecation shims.
        code = (
            "import warnings; warnings.simplefilter('error', "
            "DeprecationWarning); import repro; "
            "print(repro.__version__)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        importlib  # quiet linters


class TestConnect:
    def test_in_memory_roundtrip(self):
        with repro.connect("pydbc:standard:facade_mem") as conn:
            stmt = conn.create_statement()
            stmt.execute_update("CREATE TABLE t (n INT)")
            stmt.execute_update("INSERT INTO t VALUES (41)")
            rs = stmt.execute_query("SELECT n FROM t")
            assert rs.next() and rs.get_int(1) == 41

    def test_same_url_shares_database(self):
        c1 = repro.connect("pydbc:standard:facade_shared")
        c2 = repro.connect("pydbc:standard:facade_shared")
        assert c1.session.database is c2.session.database
        c1.close()
        c2.close()

    def test_durable_connect_recovers(self, tmp_path):
        d = str(tmp_path)
        conn = repro.connect("pydbc:standard:facade_dur", data_dir=d)
        assert conn.session.database.durability is not None
        stmt = conn.create_statement()
        stmt.execute_update("CREATE TABLE t (n INT)")
        stmt.execute_update("INSERT INTO t VALUES (7)")
        conn.close()
        repro.registry.drop("facade_dur")  # closes (checkpoint + WAL)

        conn2 = repro.connect("pydbc:standard:facade_dur", data_dir=d)
        stmt = conn2.create_statement()
        rs = stmt.execute_query("SELECT n FROM t")
        assert rs.next() and rs.get_int(1) == 7
        conn2.close()

    def test_durable_false_stays_in_memory(self, tmp_path):
        conn = repro.connect(
            "pydbc:standard:facade_mem2",
            data_dir=str(tmp_path),
            durable=False,
        )
        assert conn.session.database.durability is None
        conn.close()

    def test_env_var_enables_durability(self, tmp_path, monkeypatch):
        monkeypatch.setenv(repro.DATA_DIR_ENV, str(tmp_path))
        conn = repro.connect("pydbc:standard:facade_env")
        assert conn.session.database.durability is not None
        conn.close()

    def test_durability_options_require_data_dir(self):
        with pytest.raises(errors.ConnectionError_):
            repro.connect("pydbc:standard:nodir", group_size=4)

    def test_durable_name_clash_with_in_memory(self, tmp_path):
        conn = repro.connect("pydbc:standard:facade_clash")
        with pytest.raises(errors.ConnectionError_):
            repro.connect(
                "pydbc:standard:facade_clash", data_dir=str(tmp_path)
            )
        conn.close()

    def test_pooled_connect_returns_to_pool(self):
        conn = repro.connect(
            "pydbc:standard:facade_pool", pooled=True, timeout=1.0
        )
        pool = repro.DriverManager.get_pool("pydbc:standard:facade_pool")
        assert pool.stats()["in_use"] == 1
        conn.close()
        assert pool.stats()["in_use"] == 0
        assert pool.stats()["idle"] == 1

    def test_malformed_url_rejected(self, tmp_path):
        with pytest.raises(errors.ConnectionError_):
            repro.connect("jdbc:odbc:acme", data_dir=str(tmp_path))


class TestErrorHierarchy:
    def test_every_public_error_derives_from_reproerror(self):
        for name in errors.__all__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_every_public_error_carries_sqlstate(self):
        for name in errors.__all__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(
                obj, errors.ReproError
            ):
                exc = obj("probe")
                assert isinstance(exc.sqlstate, str) and exc.sqlstate

    def test_facade_reexports_are_identical(self):
        assert repro.ReproError is errors.ReproError
        assert repro.SQLException is errors.SQLException


class TestImportPathsAndSpellings:
    def test_submodule_imports_stay_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from repro.engine import ast  # noqa: F401
            from repro.engine.database import Database  # noqa: F401
            from repro.dbapi.driver import DriverManager  # noqa: F401
            from repro.dbapi import Statement  # noqa: F401
            from repro.runtime import sqlj, SQLJIterator  # noqa: F401
            from repro.runtime.context import (  # noqa: F401
                ConnectionContext,
            )
        assert not _deprecations(caught)

    def test_unknown_attribute_still_raises(self):
        import repro.engine

        with pytest.raises(AttributeError):
            repro.engine.NoSuchThing
        with pytest.raises(AttributeError):
            repro.dbapi.NoSuchThing

    def test_pool_timeout_kwarg_is_silent(self, db):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pool = repro.ConnectionPool(db, timeout=1.5)
        assert not _deprecations(caught)
        assert pool.timeout == 1.5
        pool.close()

    def test_context_url_positional_is_silent(self, db):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ctx = repro.ConnectionContext(db)
        assert not _deprecations(caught)
        ctx.close()

    def test_context_timeout_threads_to_pool(self, db):
        ctx = repro.ConnectionContext(db, pooled=True, timeout=0.5)
        assert ctx.timeout == 0.5
        assert ctx.execution_context.timeout == 0.5
        ctx.close()

    def test_execution_context_timeout_kwarg(self):
        ec = repro.ExecutionContext(timeout=3.0)
        assert ec.timeout == 3.0
        assert ec.update_count == -1
