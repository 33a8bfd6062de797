"""The one disk-file discipline of the durable tier.

Every file the engine makes durable — WAL records, the checkpoint
image, the LSM manifest, run blocks and footers, ``save_database``
images — does the same three things, and does them here and nowhere
else in :mod:`repro.engine`:

* **serialise** with :func:`dumps` / :func:`loads` (pickle today; the
  planned swap to the wire's data-only codec is a change to this module
  alone), failing with the single "only instances of importable
  classes" :class:`~repro.errors.DataError`;
* **frame** a payload as ``[u32LE length][u32LE crc32][payload]`` with
  :func:`frame`, and check one back out of a buffer or a file with
  :func:`unframe` / :func:`read_frame` — a short header, a length past
  the end, a zero length or a CRC mismatch is a torn or corrupt frame,
  reported as ``DataError`` (the WAL scan treats it as the crash tail);
* **install** a whole file atomically with :func:`install`: written to
  ``<path>.tmp``, flushed, fsynced, ``os.replace``d over ``path``, the
  directory fsynced — a crash leaves the old file or the new one, never
  a blend, and a failed write removes its temp file.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Iterable, Tuple

from repro import errors

__all__ = [
    "dumps",
    "loads",
    "frame",
    "unframe",
    "read_frame",
    "install",
]

_FRAME = struct.Struct("<II")  # payload length, payload crc32


def dumps(value: Any, what: str) -> bytes:
    """Serialise ``value``; ``what`` names it in the error."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise errors.DataError(
            f"{what} cannot be made durable — rows, parameters and "
            "defaults may only hold instances of importable classes "
            f"(archive-defined classes cannot be pickled): {exc}"
        ) from exc


def loads(data: bytes, what: str) -> Any:
    """Inverse of :func:`dumps`.  Only ever fed bytes this engine
    wrote: unpickling can run arbitrary code."""
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise errors.DataError(f"cannot load {what}: {exc}") from exc


def frame(payload: bytes) -> bytes:
    """``payload`` behind its length + CRC header."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def unframe(data: bytes, offset: int, what: str) -> Tuple[bytes, int]:
    """Check the frame at ``data[offset:]``; returns ``(payload, end)``
    where ``end`` is the offset just past it."""
    start = offset + _FRAME.size
    if start > len(data):
        raise errors.DataError(f"truncated frame in {what}")
    length, crc = _FRAME.unpack_from(data, offset)
    payload = data[start:start + length]
    # No writer emits an empty payload, so length 0 is a zero-filled
    # tail, not a frame.
    if length == 0 or len(payload) < length or zlib.crc32(payload) != crc:
        raise errors.DataError(f"corrupt frame in {what}")
    return payload, start + length


def read_frame(fd: int, offset: int, what: str) -> bytes:
    """Payload of the frame at byte ``offset`` of the open file ``fd``.
    Positioned reads: no seek state, so concurrent readers of one
    descriptor do not disturb each other."""
    data = os.pread(fd, _FRAME.size, offset)
    if len(data) == _FRAME.size:
        data += os.pread(fd, _FRAME.unpack(data)[0], offset + _FRAME.size)
    return unframe(data, 0, what)[0]


def install(path: str | os.PathLike[str], parts: Iterable[bytes]) -> None:
    """Atomically replace ``path`` with the concatenation of ``parts``.

    ``parts`` may be a generator that serialises as it goes; whatever
    it (or the disk) raises, the temp file is removed before the error
    propagates, and ``path`` still holds its previous content.
    """
    path = os.fspath(path)
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as handle:
            for part in parts:
                handle.write(part)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
