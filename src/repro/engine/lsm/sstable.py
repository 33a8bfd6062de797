"""Immutable sorted-run (SSTable) files for the LSM storage engine.

A run holds one flush (or one compaction merge) of a single table:

* **rows** — committed row images in row-id order, each with its rid
  and MVCC ``begin`` stamp.  Each rid's row lives in exactly one live
  run.
* **tombstones** — ``{rid: end}``: the row named by ``rid`` was deleted
  (or replaced) at commit stamp ``end``.  A tombstone is always written
  to a run at least as new as its row, so a newest-first merge that
  unions tombstones *before* scanning a run's rows never resurrects a
  deleted row.

On-disk layout (frames are :func:`repro.engine.diskfile.frame`'s,
CRC-checked on every read)::

    magic                 b"RLSM2\\0"
    block*                [u32 len][u32 crc32][pickle([rids, begins, rows])]
    footer                [u32 len][u32 crc32][pickle(footer dict)]
    trailer               [u64 footer offset][b"LSMFOOT\\0"]

A block carries up to :data:`BLOCK_ROWS` rows as three lists: ``rids``
is the block's first rid when its rids are consecutive (every block a
flush writes) and the rid list otherwise; ``begins`` run-length encodes
the stamps as ``[stamp, count, stamp, count, ...]``; ``rows`` are the
row value lists themselves.  The footer carries the table name, the row
count, a *sparse index* — ``(first rid, file offset)`` per block, which
is what scans and compaction walk — and the tombstones.  Runs are a
checkpoint format, not a read path: queries read the in-memory heap,
and nothing looks a single rid up in a run.

Runs written before this layout (magic ``RLSM1``) hold 256 entry
tuples per block — ``("d", rid, begin, row)`` and ``("t", rid, end)`` —
and list only the tombstoned rids in the footer.  They still open;
compaction rewrites them in the current layout.  (Some of them also
carry two Bloom-filter footer keys; the reader never looks at them —
docs/STORAGE.md names them.)

Writes are crash-atomic the same way checkpoints are
(:func:`repro.engine.diskfile.install`); the manifest
(:mod:`repro.engine.lsm.manifest`) only ever references completed
files, and orphaned temp files are swept at open.
"""

from __future__ import annotations

import itertools
import os
import struct
from typing import (
    Any, BinaryIO, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro import errors
from repro.engine import diskfile

__all__ = ["write_sstable", "SSTableReader"]

MAGIC = b"RLSM2\x00"
#: The entry-tuple layout; read, never written.
MAGIC_V1 = b"RLSM1\x00"
FOOTER_MAGIC = b"LSMFOOT\x00"
_TRAILER = struct.Struct("<Q8s")

#: Rows per block: small enough that the sparse index is worth having,
#: large enough that it stays tiny.
BLOCK_ROWS = 256


def _run_lengths(stamps: Sequence[int]) -> List[int]:
    """``[stamp, count, ...]`` for each run of equal adjacent stamps."""
    out: List[int] = []
    previous = None
    for stamp in stamps:
        if stamp == previous:
            out[-1] += 1
        else:
            out += (stamp, 1)
            previous = stamp
    return out


def _run_parts(
    rids: Sequence[int],
    begins: Sequence[int],
    rows: Sequence[List[Any]],
    tombstones: Optional[Mapping[int, int]],
    table: str,
) -> Iterator[bytes]:
    """The run file's bytes, block by block, in file order."""
    yield MAGIC
    offset = len(MAGIC)
    index: List[Tuple[int, int]] = []
    for start in range(0, len(rows), BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        block_rids = rids[start:stop]
        first = block_rids[0]
        consecutive = block_rids[-1] - first == len(block_rids) - 1
        index.append((first, offset))
        framed = diskfile.frame(diskfile.dumps(
            [first if consecutive else list(block_rids),
             _run_lengths(begins[start:stop]), rows[start:stop]],
            "table rows",
        ))
        offset += len(framed)
        yield framed
    footer = {
        "table": table,
        "data_count": len(rows),
        "index": index,
        "tombstones": dict(tombstones or {}),
    }
    yield diskfile.frame(diskfile.dumps(footer, "run footer"))
    yield _TRAILER.pack(offset, FOOTER_MAGIC)


def write_sstable(
    path: str,
    rids: Sequence[int],
    begins: Sequence[int],
    rows: Sequence[List[Any]],
    tombstones: Optional[Mapping[int, int]] = None,
    *,
    table: str = "",
) -> str:
    """Write a run file at ``path``: ``rows[i]`` is row ``rids[i]``,
    born at stamp ``begins[i]`` (rids ascending), plus ``tombstones``.

    The row lists are serialised as they are, without a copy; the
    caller guarantees nothing mutates them meanwhile.  Crash-atomic:
    ``path`` appears complete or not at all, and a write that fails (an
    unpicklable row, a full disk) leaves no temp file behind.  Returns
    ``path``.
    """
    diskfile.install(
        path, _run_parts(rids, begins, rows, tombstones, table)
    )
    return path


class SSTableReader:
    """Read access to one immutable run file.

    The footer (sparse index, tombstones) is read once at construction
    and cached.  The file stays open for the reader's lifetime: block
    reads are positioned reads on the held descriptor, so they carry no
    seek state (safe under concurrent scans) and POSIX unlink semantics
    keep in-flight reads working after compaction unlinks a victim run
    out from under them.  A reader dropped from the live runs (a
    compaction victim, a retired run) releases its descriptor with its
    last reference, because a concurrent scan may still hold it; the
    store closes its live readers at :meth:`LsmStore.close`.
    """

    _handle: Optional[BinaryIO] = None

    def __init__(self, path: str) -> None:
        self.path = path
        self.size = os.path.getsize(path)
        self._handle = open(path, "rb")
        try:
            handle = self._handle
            magic = handle.read(len(MAGIC))
            if magic not in (MAGIC, MAGIC_V1):
                raise errors.DataError(
                    f"{path!r} is not an LSM run file"
                )
            handle.seek(self.size - _TRAILER.size)
            trailer = handle.read(_TRAILER.size)
            if len(trailer) < _TRAILER.size:
                raise errors.DataError(f"truncated run file {path!r}")
            footer_offset, footer_magic = _TRAILER.unpack(trailer)
            if footer_magic != FOOTER_MAGIC:
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
        self._entry_tuples = magic == MAGIC_V1
        self.table: str = footer.get("table", "")
        self.data_count: int = footer["data_count"]
        self._index: List[Tuple[int, int]] = footer["index"]
        self.tombstone_rids: frozenset = frozenset(footer["tombstones"])
        self._tombstones = footer["tombstones"]

    def close(self) -> None:
        """Release the run file's descriptor (idempotent)."""
        if self._handle is not None:
            self._handle.close()

    __del__ = close

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def _blocks(self) -> Iterator[Any]:
        """Each block's payload in rid order, CRC-checked."""
        what = f"run file {self.path!r}"
        fd = self._handle.fileno()
        for _, offset in self._index:
            yield diskfile.loads(diskfile.read_frame(fd, offset, what), what)

    def rows(self) -> Iterator[Tuple[int, int, List[Any]]]:
        """``(rid, begin, row)`` for every row, in rid order."""
        for block in self._blocks():
            if self._entry_tuples:
                yield from (
                    (e[1], e[2], e[3]) for e in block if e[0] == "d"
                )
                continue
            rids, begins, rows = block
            if isinstance(rids, int):
                rids = range(rids, rids + len(rows))
            stamps = itertools.chain.from_iterable(
                itertools.repeat(stamp, count)
                for stamp, count in zip(begins[::2], begins[1::2])
            )
            yield from zip(rids, stamps, rows)

    def tombstones(self) -> Dict[int, int]:
        """``{rid: end stamp}`` of every tombstone in the run."""
        if not self._entry_tuples:
            return dict(self._tombstones)
        # The entry-tuple layout keeps the end stamps in the blocks.
        return {
            e[1]: e[2]
            for block in self._blocks() for e in block if e[0] == "t"
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SSTableReader {os.path.basename(self.path)} "
            f"table={self.table!r} rows={self.data_count}>"
        )
