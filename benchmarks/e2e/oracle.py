"""The sqlite3 oracle every workload is checked against.

Statements are replayed on the standard library's ``sqlite3`` — never
on PySQLJ — so a wrong answer cannot agree with itself.  Rows are
compared as sorted tuples (none of the checked queries depends on
order beyond its own ``ORDER BY`` + ``LIMIT``), tables as a row count
plus a digest of the sorted rows.
"""

from __future__ import annotations

import hashlib
import sqlite3
from typing import Any, Iterable, List, Sequence, Tuple

__all__ = ["Oracle", "normalize", "digest"]


def normalize(rows: Iterable[Sequence[Any]]) -> List[Tuple[Any, ...]]:
    """Rows from either engine as a sorted list of tuples."""
    return sorted(tuple(row) for row in rows)


def digest(rows: Iterable[Sequence[Any]]) -> Tuple[int, str]:
    """(row count, sha256 of the sorted rows) of one table's content."""
    ordered = normalize(rows)
    sha = hashlib.sha256()
    for row in ordered:
        sha.update(repr(row).encode("utf-8"))
    return len(ordered), sha.hexdigest()


class Oracle:
    """One in-memory sqlite3 database holding the expected state."""

    def __init__(self, ddl: Sequence[str]) -> None:
        self.db = sqlite3.connect(":memory:", isolation_level=None)
        for statement in ddl:
            self.db.execute(statement)

    def load(self, sql: str, rows: Iterable[Sequence[Any]]) -> None:
        self.db.execute("begin")
        self.db.executemany(sql, rows)
        self.db.execute("commit")

    def apply(self, sql: str, params: Sequence[Any] = ()) -> int:
        """Run one DML statement; returns the affected-row count."""
        return self.db.execute(sql, params).rowcount

    def query(
        self, sql: str, params: Sequence[Any] = ()
    ) -> List[Tuple[Any, ...]]:
        return normalize(self.db.execute(sql, params).fetchall())

    def table_digest(self, table: str) -> Tuple[int, str]:
        return digest(self.db.execute(f"select * from {table}"))

    def close(self) -> None:
        self.db.close()
