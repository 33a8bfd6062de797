"""Immutable sorted-run (SSTable) files for the LSM storage engine.

A run holds one flush (or one compaction merge) of a single table as a
sequence of *entries* sorted by row id:

* ``("d", rid, begin, row)`` — a committed row image with its MVCC
  ``begin`` stamp.  Each rid's data entry exists in exactly one live
  run.
* ``("t", rid, end)`` — a tombstone: the row named by ``rid`` was
  deleted (or replaced) at commit stamp ``end``.  A tombstone is always
  written to a run at least as new as its data entry, so a newest-first
  merge that unions tombstones *before* scanning a run's data entries
  never resurrects a deleted row.

On-disk layout (frames are :func:`repro.engine.diskfile.frame`'s,
CRC-checked on every read)::

    magic                 b"RLSM1\\0"
    block*                [u32 len][u32 crc32][pickle([entry, ...])]
    footer                [u32 len][u32 crc32][pickle(footer dict)]
    trailer               [u64 footer offset][b"LSMFOOT\\0"]

The footer carries the entry counts, the tombstoned rids and a *sparse
index* — ``(first rid, file offset)`` per block — which is what scans
and compaction walk.  Runs are a checkpoint format, not a read path:
queries read the in-memory heap, and nothing looks a single rid up in a
run.  (Runs written before the point-read path was removed carry two
extra footer keys for its membership filter; the reader never looks at
them — docs/STORAGE.md names them.)

Writes are crash-atomic the same way checkpoints are
(:func:`repro.engine.diskfile.install`); the manifest
(:mod:`repro.engine.lsm.manifest`) only ever references completed
files, and orphaned temp files are swept at open.
"""

from __future__ import annotations

import os
import struct
from typing import Any, Iterator, List, Tuple

from repro import errors
from repro.engine import diskfile

__all__ = ["write_sstable", "SSTableReader", "Entry"]

#: One entry: ("d", rid, begin, row) or ("t", rid, end).
Entry = Tuple[Any, ...]

MAGIC = b"RLSM1\x00"
FOOTER_MAGIC = b"LSMFOOT\x00"
_TRAILER = struct.Struct("<Q8s")

#: Entries per block: small enough that the sparse index is worth
#: having, large enough that it stays tiny.
BLOCK_ENTRIES = 256


def _run_parts(entries: List[Entry], table: str) -> Iterator[bytes]:
    """The run file's bytes, block by block, in file order."""
    yield MAGIC
    offset = len(MAGIC)
    index: List[Tuple[int, int]] = []
    for start in range(0, len(entries), BLOCK_ENTRIES):
        block = entries[start:start + BLOCK_ENTRIES]
        index.append((block[0][1], offset))
        framed = diskfile.frame(diskfile.dumps(block, "table rows"))
        offset += len(framed)
        yield framed
    footer = {
        "table": table,
        "count": len(entries),
        "data_count": sum(1 for e in entries if e[0] == "d"),
        "index": index,
        "tombstones": [e[1] for e in entries if e[0] == "t"],
    }
    yield diskfile.frame(diskfile.dumps(footer, "run footer"))
    yield _TRAILER.pack(offset, FOOTER_MAGIC)


def write_sstable(path: str, entries: List[Entry], *, table: str = "") -> str:
    """Write ``entries`` (pre-sorted by rid) as a run file at ``path``.

    Crash-atomic: ``path`` appears complete or not at all, and a write
    that fails (an unpicklable row, a full disk) leaves no temp file
    behind.  Returns ``path``.
    """
    diskfile.install(path, _run_parts(entries, table))
    return path


class SSTableReader:
    """Read access to one immutable run file.

    The footer (sparse index, tombstone list) is read once at
    construction and cached.  The file stays open for the reader's
    lifetime: block reads are positioned reads on the held descriptor,
    so they carry no seek state (safe under concurrent scans) and POSIX
    unlink semantics keep in-flight reads working after compaction
    unlinks a victim run out from under them.  The
    descriptor is released when the last reference to the reader is
    dropped — the store never closes a reader explicitly, because a
    concurrent scan may still hold it.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.size = os.path.getsize(path)
        self._handle = open(path, "rb")
        try:
            handle = self._handle
            if handle.read(len(MAGIC)) != MAGIC:
                raise errors.DataError(
                    f"{path!r} is not an LSM run file"
                )
            handle.seek(self.size - _TRAILER.size)
            trailer = handle.read(_TRAILER.size)
            if len(trailer) < _TRAILER.size:
                raise errors.DataError(f"truncated run file {path!r}")
            footer_offset, magic = _TRAILER.unpack(trailer)
            if magic != FOOTER_MAGIC:
                raise errors.DataError(
                    f"run file {path!r} has no footer "
                    "(torn write?)"
                )
            footer = diskfile.loads(
                diskfile.read_frame(
                    handle.fileno(), footer_offset, f"run file {path!r}"
                ),
                f"footer of run file {path!r}",
            )
        except BaseException:
            self._handle.close()
            raise
        self.table: str = footer.get("table", "")
        self.count: int = footer["count"]
        self.data_count: int = footer["data_count"]
        self._index: List[Tuple[int, int]] = footer["index"]
        self.tombstone_rids: frozenset = frozenset(footer["tombstones"])

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Entry]:
        """All entries in rid order, one CRC-checked block at a time."""
        what = f"run file {self.path!r}"
        fd = self._handle.fileno()
        for _, offset in self._index:
            yield from diskfile.loads(
                diskfile.read_frame(fd, offset, what), what
            )

    def data_entries(self) -> Iterator[Entry]:
        """Data entries only, in rid order."""
        for entry in self.entries():
            if entry[0] == "d":
                yield entry

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SSTableReader {os.path.basename(self.path)} "
            f"table={self.table!r} entries={self.count}>"
        )
