"""LSM-backed table storage: memtable + SSTable runs + manifest.

The one durable format: every ``repro.open_database(directory)`` (and
every ``repro.connect(url, data_dir=...)``) checkpoints through an
:class:`LsmStore`.  See docs/STORAGE.md for the full walkthrough, and
the module docstrings here for the layer-by-layer contracts:

* :mod:`repro.engine.lsm.sstable` — immutable sorted run files with
  sparse block indexes;
* :mod:`repro.engine.lsm.manifest` — the atomically-replaced file
  naming the live runs;
* :mod:`repro.engine.lsm.store` — the checkpoint store: flush, merged
  scans, vacuum/DDL hooks, background size-tiered compaction and the
  migration of ``snapshot.db`` directories.
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
