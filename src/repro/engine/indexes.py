"""Secondary index structures.

An :class:`Index` shadows one table with a hash map from normalised key
tuples to the row *versions* holding them, plus a sorted key list for
range probes.  Keys are built with
:func:`repro.sqltypes.values.sort_key`, so an index probe equates
exactly what ``=`` equates: ``1``, ``1.0`` and ``Decimal("1")`` share a
bucket, CHAR values ignore trailing pad spaces, and SQL NULL never
matches an equality probe (it compares UNKNOWN, not TRUE).

Buckets hold :class:`repro.engine.mvcc.RowVersion` objects (the same
instances stored in ``Table.versions``), matched by identity on
removal.  The index mirrors the heap *including* provisional and dead
versions — probes return candidates, and the executor filters them
through the reading transaction's snapshot exactly as a sequential
scan would.  Every DML append (:mod:`repro.engine.storage`) keeps
indexes synchronised, and undoing its write-list entries takes the
versions out again, so a rolled-back statement leaves its indexes
exactly as they were; vacuum removes the entries of reclaimed versions.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sqltypes.values import sort_key

__all__ = ["Index"]

#: sort_key() output for SQL NULL; any key tuple containing it is kept
#: in the structure (so rebuilds stay cheap) but equality probes skip
#: NULL keys and range probes stop before them.
_NULL_KEY = sort_key(None)


class Index:
    """A secondary index over one or more columns of a table."""

    def __init__(self, name: str, table: Any,
                 column_names: List[str]) -> None:
        self.name = name
        self.table = table
        self.column_names = list(column_names)
        #: column positions in the owning table; refreshed by rebuild()
        #: because ALTER TABLE shifts positions.
        self.positions: List[int] = []
        self._buckets: Dict[tuple, List[Any]] = {}
        self._ordered: List[tuple] = []  # sorted bucket keys
        self.rebuild()

    # ------------------------------------------------------------------
    # key construction
    # ------------------------------------------------------------------
    def key_of_row(self, row: List[Any]) -> tuple:
        return tuple(map(sort_key, map(row.__getitem__, self.positions)))

    @staticmethod
    def key_of_values(values: Tuple[Any, ...]) -> tuple:
        return tuple(map(sort_key, values))

    @staticmethod
    def _has_null(key: tuple) -> bool:
        return any(part == _NULL_KEY for part in key)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Re-derive the whole structure from the table's heap.

        Used at CREATE INDEX time (versions may predate the index) and
        after ALTER TABLE ADD/DROP COLUMN (positions shift).  Every
        version is indexed, whatever its visibility — probes are
        snapshot-filtered downstream.
        """
        self.positions = [
            self.table.column_position(name)
            for name in self.column_names
        ]
        self._buckets = {}
        for version in self.table.versions:
            self._buckets.setdefault(
                self.key_of_row(version.row), []
            ).append(version)
        self._ordered = sorted(self._buckets)

    def add(self, version: Any) -> None:
        key = self.key_of_row(version.row)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [version]
            bisect.insort(self._ordered, key)
        else:
            bucket.append(version)

    def remove(self, version: Any) -> None:
        key = self.key_of_row(version.row)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        for position, candidate in enumerate(bucket):
            if candidate is version:
                del bucket[position]
                break
        if not bucket:
            del self._buckets[key]
            ordered_at = bisect.bisect_left(self._ordered, key)
            if ordered_at < len(self._ordered) and \
                    self._ordered[ordered_at] == key:
                del self._ordered[ordered_at]

    def covers_column(self, column_name: str) -> bool:
        return column_name in self.column_names

    def verify_against_heap(self) -> None:
        """Assert the index agrees exactly with the table heap.

        Used by crash recovery (:mod:`repro.engine.durability`) after
        replaying the write-ahead log: replay maintains indexes through
        the ordinary DML path, and this check proves it — as many
        entries as heap versions, and every heap version filed (by
        identity) under its own key, so no entry is a phantom.  One
        pass over the entries and one over the heap.  Raises
        :class:`repro.errors.DataError` on any divergence.
        """
        from repro import errors

        entries = len(self)
        heap = len(self.table.versions)
        if entries != heap:
            raise errors.DataError(
                f"index {self.name!r} on {self.table.name!r} holds "
                f"{entries} entries for {heap} heap versions"
            )
        filed = {  # version (hashed by identity) -> its bucket's key
            version: key
            for key, bucket in self._buckets.items()
            for version in bucket
        }
        for version in self.table.versions:
            key = self.key_of_row(version.row)
            found = filed.get(version)
            if found is None:
                raise errors.DataError(
                    f"index {self.name!r} on {self.table.name!r} is "
                    f"missing a heap version (key {key!r})"
                )
            if found != key:
                raise errors.DataError(
                    f"index {self.name!r} on {self.table.name!r} files "
                    f"a heap version of key {key!r} under {found!r}"
                )

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def lookup(self, values: Tuple[Any, ...]) -> List[Any]:
        """Versions whose key columns equal ``values`` (SQL equality).

        Candidate :class:`RowVersion` objects across all snapshots, in
        the order they were added; the caller filters for visibility.
        The list is the index's own: read it under the table's mutation
        lock, and copy it to keep it.
        """
        for value in values:
            if value is None:
                return []  # NULL = anything is UNKNOWN
        return self._buckets.get(tuple(map(sort_key, values)), [])

    def range(self, lower: Optional[Any], upper: Optional[Any],
              lower_inclusive: bool = True,
              upper_inclusive: bool = True) -> Iterator[Any]:
        """Versions of a single-column index within [lower, upper].

        ``None`` bounds mean unbounded on that side; NULL-keyed entries
        are never yielded (no SQL comparison is TRUE for NULL).  Yields
        candidate versions; the caller filters for visibility.
        """
        lo = 0
        if lower is not None:
            probe = (sort_key(lower),)
            lo = (bisect.bisect_left(self._ordered, probe)
                  if lower_inclusive
                  else bisect.bisect_right(self._ordered, probe))
        hi = len(self._ordered)
        if upper is not None:
            probe = (sort_key(upper),)
            hi = (bisect.bisect_right(self._ordered, probe)
                  if upper_inclusive
                  else bisect.bisect_left(self._ordered, probe))
        for key in self._ordered[lo:hi]:
            if self._has_null(key):
                continue
            for version in self._buckets[key]:
                yield version

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cols = ", ".join(self.column_names)
        return (f"<Index {self.name} on {self.table.name}({cols}) "
                f"{len(self)} entries>")
