"""PyDBC: the JDBC-shaped connectivity layer.

SQLJ is specified *against* the JDBC interface ("Leverages JDBC
technology"); this package is that interface over :mod:`repro.engine`.
It mirrors the JDBC classes the paper uses — ``DriverManager``,
``Connection``, ``Statement`` / ``PreparedStatement`` /
``CallableStatement``, ``ResultSet``, ``DatabaseMetaData`` — including
the JDBC 2.0 features the paper highlights: objects-by-value through
``get_object``/``set_object``, UDT metadata via ``get_udts``, and the
``PY_OBJECT`` (the paper's ``JAVA_OBJECT``) type code.

URLs take the form ``pydbc:<dialect>:<database-name>`` (mirroring
``jdbc:odbc:acme.cs``); ``DBAPI:DEFAULT:CONNECTION`` (also spelled
``JDBC:DEFAULT:CONNECTION``) works inside external routine bodies as the
paper prescribes.

The connectivity entry points (``DriverManager``, ``Connection``,
``ConnectionPool``, ...) live on the top-level :mod:`repro` façade.  The
statement/result classes (``Statement``, ``ResultSet``,
``DatabaseMetaData``, ...) are normally obtained from a connection
rather than imported, and are importable here.
"""

from __future__ import annotations

from repro.dbapi.cursor import Cursor, apilevel, paramstyle
from repro.dbapi.metadata import DatabaseMetaData
from repro.dbapi.resultset import ResultSet
from repro.dbapi.statement import (
    BatchUpdateError,
    CallableStatement,
    PreparedStatement,
    Statement,
)

__all__ = [
    "Statement",
    "PreparedStatement",
    "CallableStatement",
    "BatchUpdateError",
    "ResultSet",
    "Cursor",
    "DatabaseMetaData",
    "apilevel",
    "paramstyle",
]
