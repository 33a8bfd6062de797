"""LSM-backed table storage: memtable + SSTable runs + manifest.

Selected per database directory with
``repro.connect(url, durable=True, storage="lsm")`` (or
``repro.open_database(directory, storage="lsm")``); the default
remains the snapshot engine.  See docs/STORAGE.md for the full
walkthrough and the tradeoff table, and the module docstrings here for
the layer-by-layer contracts:

* :mod:`repro.engine.lsm.sstable` — immutable sorted run files with
  sparse block indexes;
* :mod:`repro.engine.lsm.manifest` — the atomically-replaced file
  naming the live runs;
* :mod:`repro.engine.lsm.store` — the checkpoint store: flush, merged
  scans, vacuum/DDL hooks and background size-tiered compaction.
"""

from repro.engine.lsm.manifest import MANIFEST_FILENAME
from repro.engine.lsm.sstable import SSTableReader, write_sstable
from repro.engine.lsm.store import LsmStore

__all__ = [
    "LsmStore",
    "MANIFEST_FILENAME",
    "SSTableReader",
    "write_sstable",
]
