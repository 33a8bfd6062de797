"""The LSM manifest: the single source of truth for live runs.

The manifest is one small CRC-framed pickle naming, for every table,
the ordered list of live run files (oldest first), plus the catalog
schema (a row-less :class:`~repro.engine.persistence.DatabaseImage`)
and the durable watermarks — the MVCC commit stamp and WAL sequence
number covered by the runs, and the next row id / run file number to
allocate.

It is replaced the same way checkpoints are installed
(:func:`repro.engine.diskfile.install`): a crash at any point leaves
either the old or the new manifest — never a blend — and run files are
themselves written crash-atomically before the manifest references
them, so recovery can always trust the manifest: files it names exist
and are complete; files it does not name are garbage to sweep.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro import errors
from repro.engine import diskfile

__all__ = [
    "MANIFEST_FILENAME",
    "MANIFEST_VERSION",
    "read_manifest",
    "write_manifest",
]

MANIFEST_FILENAME = "MANIFEST"
MANIFEST_VERSION = 1

_MAGIC = b"RLSMMAN\x00"


def write_manifest(directory: str, payload: Dict[str, Any]) -> None:
    """Atomically install ``payload``, stamped with the format
    version, as the directory's manifest."""
    payload = {"version": MANIFEST_VERSION, **payload}
    diskfile.install(
        os.path.join(directory, MANIFEST_FILENAME),
        [_MAGIC, diskfile.frame(diskfile.dumps(payload, "LSM manifest"))],
    )


def read_manifest(directory: str) -> Optional[Dict[str, Any]]:
    """Read and verify the manifest; None when no manifest exists.

    A torn or corrupt manifest raises :class:`repro.errors.DataError`
    rather than silently opening an empty database — the atomic install
    means this only happens on genuine file damage, never on a crash.
    """
    path = os.path.join(directory, MANIFEST_FILENAME)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(_MAGIC):
        raise errors.DataError(
            f"{path!r} is not an LSM manifest (torn or foreign file)"
        )
    what = f"LSM manifest {path!r}"
    payload = diskfile.loads(
        diskfile.unframe(blob, len(_MAGIC), what)[0], what
    )
    if (
        not isinstance(payload, dict)
        or payload.get("version") != MANIFEST_VERSION
    ):
        raise errors.DataError(
            f"unsupported LSM manifest version in {path!r}"
        )
    return payload
