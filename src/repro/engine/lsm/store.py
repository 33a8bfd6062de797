"""The LSM store: memtable flushes, run bookkeeping, compaction.

One :class:`LsmStore` owns a durable database directory's run files
and manifest, and is that directory's *checkpoint store* (the protocol
shared with :class:`repro.engine.persistence.SnapshotStore`).  Runs are
a checkpoint format, not a read path: queries read the in-memory heap,
and the only readers of run files are the merged scan that rebuilds the
heap at open, and compaction.  The *memtable* is the un-flushed portion
of the live MVCC heap — versions whose ``rid`` is still None, made
durable by the existing WAL exactly as under the snapshot engine.  What
changes is the checkpoint: instead of pickling the whole database
(O(database)), a flush writes only the delta since the previous flush
(O(new data)) as one immutable SSTable run per table:

* a **data entry** per committed-live version not yet on disk (the
  version's ``rid`` is staged during collection and assigned only once
  the manifest install succeeds, so a failed flush leaves the heap
  re-flushable);
* a **tombstone** per flushed version whose ``end`` stamp landed since
  the last flush (plus tombstones handed over by vacuum for versions it
  physically reclaimed before they could be flushed).

Versions born *and* deleted between two flushes never touch disk at
all.  After the runs are written the manifest is atomically installed
and the WAL truncated — same crash discipline as the snapshot
checkpoint, same recovery contract: the manifest covers everything with
``seq <= last_seq``; the WAL replays the rest.

Background **size-tiered compaction** merges adjacent similarly-sized
runs of a table once enough accumulate, annihilating (data, tombstone)
pairs whose ``end`` stamp is at or below the MVCC vacuum horizon
(:meth:`~repro.engine.mvcc.TransactionManager.oldest_visible_seq`) —
the same bound vacuum uses for heap versions, so no live snapshot can
lose a row it could still see.  Compaction never blocks the engine:
run files are immutable, the merge happens off-lock, and only the
manifest install takes the store lock.

Fault-injection sites: ``lsm.flush`` (before a flush writes anything),
``lsm.manifest`` (runs written, manifest not yet installed),
``lsm.flush.install`` (manifest installed, WAL not yet truncated),
``lsm.compact`` (before the merged run is written) and
``lsm.compact.install`` (merged manifest installed, victim runs not yet
unlinked).  Every window is recovery-neutral by construction.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro import errors, faultpoints
from repro.engine import diskfile
from repro.engine.database import Database
from repro.engine.mvcc import TXN_BOOTSTRAP, RowVersion
from repro.engine.persistence import image_of, restore_database
from repro.engine.virtual import VirtualTable
from repro.observability import metrics as _metrics
from repro.engine.lsm.manifest import (
    MANIFEST_FILENAME,
    read_manifest,
    write_manifest,
)
from repro.engine.lsm.sstable import Entry, SSTableReader, write_sstable

__all__ = ["LsmStore", "MANIFEST_FILENAME"]

_FLUSHES = _metrics.registry.counter("lsm.flushes")
_COMPACTIONS = _metrics.registry.counter("lsm.compactions")
_STALL_MS = _metrics.registry.histogram("lsm.stall_ms")
_RUNS_WRITTEN = _metrics.registry.counter("lsm.runs_written")
_TOMBSTONES_GCED = _metrics.registry.counter("lsm.tombstones_gced")
_COMPACT_CORRUPTION = _metrics.registry.counter("lsm.compact.corruption")

_RUN_PREFIX = "run-"
_RUN_SUFFIX = ".run"


def _unlink_quietly(paths: Iterable[str]) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - already gone
            pass


class LsmStore:
    """Run files + manifest for one durable database directory.

    Thread-safety: ``_lock`` guards the run lists, watermarks, rid
    allocation and manifest writes.  :meth:`flush` is only ever called
    under the exclusive engine lock (by the durability manager's
    checkpoint), vacuum's tombstone handoff runs under the same engine
    lock, and compaction touches only immutable files outside the store
    lock — so the lock is held for bookkeeping, never for I/O-sized
    work except the manifest install itself.
    """

    #: Checkpoint-store protocol constants (spelled out on
    #: :class:`repro.engine.persistence.SnapshotStore`).
    storage = "lsm"
    MARKER = MANIFEST_FILENAME
    FLUSH_SITE = "lsm.flush"
    INSTALLED_SITE = "lsm.flush.install"

    def __init__(self, directory: str, *, compact_threshold: int = 4) -> None:
        self.directory = directory
        #: Merge once this many similarly-sized adjacent runs accumulate.
        self.compact_threshold = compact_threshold
        self._lock = threading.RLock()
        #: Live runs per table, oldest first (newest-first merges
        #: iterate in reverse).
        self.runs: Dict[str, List[SSTableReader]] = {}
        #: Commit stamps <= this are fully covered by the runs.
        self.flushed_stamp = 0
        #: Highest WAL seq folded into the runs at the last flush.
        self.last_seq = 0
        self.next_rid = 1
        self._next_file = 1
        #: Vacuum handoff: tombstones for flushed versions the heap no
        #: longer holds (table -> {rid: end stamp}).
        self._pending: Dict[str, Dict[int, int]] = {}
        #: Tables whose runs must be rewritten wholesale at the next
        #: flush (a column add/drop rewrote every row image in place).
        self._doomed: Set[str] = set()
        #: Serialised row-less schema image of the installed manifest
        #: (None on a fresh store); compaction re-installs it verbatim.
        self._image_blob: Optional[bytes] = None
        self._compact_gate = threading.Lock()
        self._compact_thread: Optional[threading.Thread] = None
        #: First DataError a background compaction hit (CRC mismatch in
        #: a run frame = real on-disk corruption).  Non-None disables
        #: further background passes; surfaced by ``lsm.compact.corruption``.
        self.corruption_error: Optional[BaseException] = None
        self.closed = False

    # ------------------------------------------------------------------
    # open / recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory: str) -> "LsmStore":
        """Load the manifest (if any) and sweep orphaned files.

        Files the manifest does not reference — runs from a crashed
        flush or compaction, ``.tmp`` leftovers — are deleted: the
        atomic manifest install means they were never part of the
        durable state.
        """
        store = cls(directory)
        payload = read_manifest(directory)
        referenced: Set[str] = set()
        if payload is not None:
            store._image_blob = payload["image_blob"]
            store.flushed_stamp = int(payload["commit_seq"])
            store.last_seq = int(payload["last_seq"])
            store.next_rid = int(payload["next_rid"])
            store._next_file = int(payload["next_file"])
            for name, filenames in payload["runs"].items():
                readers = []
                for filename in filenames:
                    path = os.path.join(directory, filename)
                    if not os.path.exists(path):
                        raise errors.DataError(
                            f"LSM manifest references missing run "
                            f"file {filename!r}"
                        )
                    readers.append(SSTableReader(path))
                    referenced.add(filename)
                store.runs[name] = readers
        for filename in os.listdir(directory):
            if filename in referenced:
                continue
            is_orphan_run = (
                filename.startswith(_RUN_PREFIX)
                and filename.endswith(_RUN_SUFFIX)
            )
            is_tmp = filename.endswith(".tmp") and (
                filename.startswith(_RUN_PREFIX)
                or filename.startswith(MANIFEST_FILENAME)
            )
            if is_orphan_run or is_tmp:
                _unlink_quietly([os.path.join(directory, filename)])
        return store

    def build_database(
        self, *, plan_cache_size: int, **identity: Any
    ) -> Database:
        """Reconstruct the database the manifest + runs describe.

        The catalog comes from the manifest's schema image; every
        table's heap is rebuilt by the newest-first merged run scan,
        preserving each row's ``rid`` and original MVCC ``begin`` stamp
        (so post-recovery snapshots see exactly the committed history).
        Secondary indexes are rebuilt from the loaded heaps.  WAL
        replay — run by :func:`repro.engine.durability.open_database`
        afterwards — then refills the memtable.

        The database gets this store as ``database.lsm_store`` (its
        vacuum and DDL hooks must fire during replay too).  On a
        brand-new directory (``identity`` — name, dialect, admin user
        — only applies then) the creation-time manifest is installed
        here: the manifest is what marks a directory as LSM-format on
        reopen, so it must exist from the moment the database does —
        otherwise a crash before the first flush would reopen the
        directory under the snapshot engine.  Empty run set,
        ``last_seq`` 0: the WAL replays everything.
        """
        if self._image_blob is None:
            database = Database(
                plan_cache_size=plan_cache_size, **identity
            )
            database.lsm_store = self
            with self._lock:
                self._install_manifest(
                    database, {},
                    commit_seq=0, last_seq=0, next_rid=self.next_rid,
                )
            return database
        database = restore_database(
            diskfile.loads(self._image_blob, "LSM manifest schema"),
            plan_cache_size=plan_cache_size,
        )
        database.lsm_store = self
        for table in database.catalog.tables.values():
            if isinstance(table, VirtualTable):
                continue
            versions = []
            for rid, begin, row in self.scan_table(table.name):
                version = RowVersion(row, xmin=TXN_BOOTSTRAP, begin=begin)
                version.rid = rid
                versions.append(version)
            table.versions = versions
            for index in table.indexes:
                index.rebuild()
        return database

    # ------------------------------------------------------------------
    # flush (the LSM checkpoint)
    # ------------------------------------------------------------------
    def flush(self, database: Database, *, last_seq: int) -> int:
        """Flush the memtable delta to one new run per dirty table.

        Called by the durability manager under the exclusive engine
        lock with no durable transaction in flight, so every stamp in
        the heap is <= the current commit counter.  Returns the number
        of runs written.  Crash-safe at every step: runs are written
        before the manifest references them, the manifest is installed
        atomically, and the WAL is truncated by the *caller* only after
        the manifest install succeeded.
        """
        cutoff = database.transactions.commit_seq
        with self._lock:
            tables = [
                t for t in database.catalog.tables.values()
                if not isinstance(t, VirtualTable)
            ]
            live_names = {t.name for t in tables}
            doomed_files: List[str] = []
            new_runs: Dict[str, List[SSTableReader]] = {}
            # Heap mutations are STAGED until the manifest install
            # succeeds: a version's rid marks it "durable in a run", so
            # assigning rids eagerly and then failing (unpicklable row,
            # ENOSPC) would make the next flush skip those versions and
            # truncate the WAL over them — silent loss of committed
            # data.  On failure the heap is untouched and this
            # attempt's run files are unlinked, so a retry re-emits the
            # identical delta.
            staged_rids: List[Tuple[Any, int]] = []
            staged_paths: List[str] = []
            next_rid = self.next_rid
            try:
                for table in tables:
                    entries: List[Entry] = []
                    with table.mutation_lock:
                        for version in table.versions:
                            if version.rid is None:
                                # Born since the last flush.  Dead-on-
                                # arrival versions (end already stamped)
                                # never reach disk at all.
                                if (
                                    version.begin is not None
                                    and version.end is None
                                ):
                                    rid = next_rid
                                    next_rid += 1
                                    staged_rids.append((version, rid))
                                    entries.append((
                                        "d", rid, version.begin,
                                        list(version.row),
                                    ))
                            elif (
                                version.end is not None
                                and version.end > self.flushed_stamp
                            ):
                                # Flushed earlier, deleted since:
                                # tombstone.
                                entries.append(
                                    ("t", version.rid, version.end)
                                )
                    for rid, end in self._pending.get(
                        table.name, {}
                    ).items():
                        entries.append(("t", rid, end))
                    if table.name in self._doomed:
                        # Every row image was rewritten in place (ALTER
                        # ADD/DROP COLUMN): the old runs hold stale
                        # images, so they are dropped wholesale and the
                        # loop above re-emitted the full table (rids
                        # were reset).
                        base: List[SSTableReader] = []
                        doomed_files.extend(
                            r.path for r in self.runs.get(table.name, ())
                        )
                    else:
                        base = list(self.runs.get(table.name, ()))
                    if entries:
                        entries.sort(key=lambda e: e[1])
                        path = self._allocate_run_path()
                        write_sstable(path, entries, table=table.name)
                        staged_paths.append(path)
                        base.append(SSTableReader(path))
                    if base:
                        new_runs[table.name] = base
                # Runs of tables dropped from the catalog die with them.
                for name, readers in self.runs.items():
                    if name not in live_names:
                        doomed_files.extend(r.path for r in readers)
                faultpoints.trigger("lsm.manifest")
                self._install_manifest(
                    database, new_runs,
                    commit_seq=cutoff, last_seq=last_seq,
                    next_rid=next_rid,
                )
            except BaseException:
                _unlink_quietly(staged_paths)
                raise
            # The manifest is durable — now (and only now) mark the
            # flushed versions and advance the watermarks.
            for version, rid in staged_rids:
                version.rid = rid
            self.next_rid = next_rid
            self.runs = new_runs
            self.flushed_stamp = cutoff
            self.last_seq = last_seq
            self._pending.clear()
            self._doomed.clear()
            _unlink_quietly(doomed_files)
        _FLUSHES.increment()
        if staged_paths:
            _RUNS_WRITTEN.increment(len(staged_paths))
        return len(staged_paths)

    def _install_manifest(
        self,
        database: Database,
        runs: Dict[str, List[SSTableReader]],
        *,
        commit_seq: int,
        last_seq: int,
        next_rid: int,
    ) -> None:
        blob = diskfile.dumps(
            image_of(database, include_rows=False), "catalog"
        )
        self._write_manifest(
            blob, runs,
            commit_seq=commit_seq, last_seq=last_seq, next_rid=next_rid,
        )
        # Cache the image only once it is durable, so a failed install
        # cannot leave compaction's manifest rewrites holding a schema
        # newer than the watermarks say.
        self._image_blob = blob

    def _write_manifest(
        self,
        image_blob: bytes,
        runs: Dict[str, List[SSTableReader]],
        *,
        commit_seq: int,
        last_seq: int,
        next_rid: int,
    ) -> None:
        write_manifest(self.directory, {
            "image_blob": image_blob,
            "commit_seq": commit_seq,
            "last_seq": last_seq,
            "next_rid": next_rid,
            "next_file": self._next_file,
            "runs": {
                name: [os.path.basename(r.path) for r in readers]
                for name, readers in runs.items()
            },
        })

    def _allocate_run_path(self) -> str:
        number = self._next_file
        self._next_file += 1
        return os.path.join(
            self.directory, f"{_RUN_PREFIX}{number:08d}{_RUN_SUFFIX}"
        )

    def after_flush(self, database: Database, seconds: float) -> None:
        """Post-checkpoint hook, called with no engine lock held:
        record the write pause (``lsm.stall_ms`` covers only the delta
        since the last flush; compare the snapshot engine's
        ``wal.checkpoint.seconds``) and offer a compaction — which
        therefore never contributes to the stall."""
        _STALL_MS.observe(seconds * 1000.0)
        self.maybe_compact(database)

    # ------------------------------------------------------------------
    # merged scan
    # ------------------------------------------------------------------
    def scan_table(
        self, name: str
    ) -> Iterator[Tuple[int, int, List[Any]]]:
        """Merged scan of a table's flushed state, runs newest-first.

        Yields ``(rid, begin, row)`` triples.  Tombstones — from the
        vacuum-handoff buffer and from each run — shadow older data
        entries; a run's own tombstones are unioned *before* its data
        entries are read, so a (data, tombstone) pair kept together by
        compaction still annihilates at read time.
        """
        with self._lock:
            runs = list(self.runs.get(name, ()))
            shadowed: Set[int] = set(self._pending.get(name, ()))
        for run in reversed(runs):
            shadowed |= run.tombstone_rids
            for entry in run.data_entries():
                rid = entry[1]
                if rid not in shadowed:
                    shadowed.add(rid)  # never yield a rid twice
                    yield (rid, entry[2], entry[3])

    # ------------------------------------------------------------------
    # engine hooks (vacuum / DDL)
    # ------------------------------------------------------------------
    def note_vacuumed(self, table_name: str, version: Any) -> None:
        """Vacuum handoff: the heap physically reclaimed a flushed
        version whose deletion is not on disk yet — remember the
        tombstone so the next flush writes it.  (Crash before that
        flush is safe: the WAL still holds the deleting statement.)"""
        rid = version.rid
        end = version.end
        if rid is None or end is None:
            return
        with self._lock:
            if end <= self.flushed_stamp:
                return  # deletion already durable in a run
            if table_name in self._doomed:
                return  # whole run set is being rewritten anyway
            self._pending.setdefault(table_name, {})[rid] = end

    def invalidate_table(self, table: Any) -> None:
        """A DDL change rewrote every row image in place (column
        add/drop): on-disk entries are stale, so reset every version's
        rid and doom the table's runs — the next flush rewrites it
        wholesale under the new schema."""
        with self._lock:
            with table.mutation_lock:
                for version in table.versions:
                    version.rid = None
            self._doomed.add(table.name)
            self._pending.pop(table.name, None)

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def maybe_compact(self, database: Database) -> bool:
        """Kick off a background compaction if any table has
        accumulated enough runs.  At most one compaction thread runs at
        a time; it is a daemon and never holds the engine lock."""
        if self.closed or self.corruption_error is not None:
            return False
        with self._lock:
            due = any(
                len(readers) >= self.compact_threshold
                for readers in self.runs.values()
            )
        if not due:
            return False
        with self._compact_gate:
            thread = self._compact_thread
            if thread is not None and thread.is_alive():
                return False
            thread = threading.Thread(
                target=self._compact_quietly,
                args=(database,),
                name=f"repro-lsm-compact-{os.path.basename(self.directory)}",
                daemon=True,
            )
            self._compact_thread = thread
            thread.start()
        return True

    def _compact_quietly(self, database: Database) -> None:
        try:
            self.compact(database)
        except errors.DataError as exc:
            # A corrupt frame in a run file is not a transient
            # condition: record it (counter + attribute) and stop
            # retrying, instead of silently grinding over the damage
            # forever.  A foreground compact() still raises it.
            _COMPACT_CORRUPTION.increment()
            self.corruption_error = exc
        except errors.ReproError:
            pass  # injected faults target the foreground compaction tests
        except OSError:
            # The directory vanished underneath us (an abandoned
            # database in tests, an unmounted volume): background
            # maintenance must never take the process down, and the
            # manifest install is atomic, so the durable state is
            # either the old or the new run set — both consistent.
            pass

    def compact(self, database: Database) -> int:
        """One foreground compaction pass over every table; returns the
        number of merges performed."""
        horizon = database.transactions.oldest_visible_seq()
        merged = 0
        for name in list(self.runs):
            merged += self._compact_table(name, horizon)
        return merged

    def _compact_table(self, name: str, horizon: int) -> int:
        with self._lock:
            readers = list(self.runs.get(name, ()))
            span = self._pick_span(readers)
            if span is None:
                return 0
            lo, hi = span
            victims = readers[lo:hi]
        # Merge off-lock: run files are immutable.  Newer entries win
        # (each rid's data entry exists once, so this is really a union
        # plus tombstone resolution).
        data: Dict[int, Entry] = {}
        tombstones: Dict[int, Entry] = {}
        for reader in victims:
            for entry in reader.entries():
                if entry[0] == "d":
                    data[entry[1]] = entry
                else:
                    tombstones[entry[1]] = entry
        merged: List[Entry] = []
        annihilated: Set[int] = set()
        for rid, entry in data.items():
            tomb = tombstones.get(rid)
            if tomb is not None and tomb[2] <= horizon:
                # Dead below the vacuum horizon: no live snapshot can
                # see the row — data and tombstone annihilate.
                annihilated.add(rid)
            else:
                merged.append(entry)
        for rid, tomb in tombstones.items():
            if rid not in annihilated:
                # Either its data entry lives in an older (unmerged)
                # run, or the horizon still protects a reader — keep it.
                merged.append(tomb)
        merged.sort(key=lambda e: e[1])
        faultpoints.trigger("lsm.compact")
        replacement: List[SSTableReader] = []
        if merged:
            with self._lock:
                path = self._allocate_run_path()
            replacement = [
                SSTableReader(write_sstable(path, merged, table=name))
            ]
        with self._lock:
            current = list(self.runs.get(name, ()))
            try:
                start = current.index(victims[0])
            except ValueError:
                start = -1
            if (
                start < 0
                or current[start:start + len(victims)] != victims
            ):
                # The table was rewritten (ALTER/DROP) while we merged;
                # our input no longer exists.  Discard the output.
                _unlink_quietly(r.path for r in replacement)
                return 0
            self.runs[name] = (
                current[:start]
                + replacement
                + current[start + len(victims):]
            )
            # Same schema and watermarks as the last flush: compaction
            # changes which files hold the durable state, never what
            # that state is.
            assert self._image_blob is not None
            self._write_manifest(
                self._image_blob, self.runs,
                commit_seq=self.flushed_stamp, last_seq=self.last_seq,
                next_rid=self.next_rid,
            )
            faultpoints.trigger("lsm.compact.install")
        _unlink_quietly(r.path for r in victims)
        _COMPACTIONS.increment()
        if annihilated:
            _TOMBSTONES_GCED.increment(len(annihilated))
        return 1

    def _pick_span(
        self, readers: List[SSTableReader]
    ) -> Optional[Tuple[int, int]]:
        """Size-tiered victim selection: walking from the newest run
        backwards, find the first contiguous group of at least
        ``compact_threshold`` runs in the same size tier (tiers are
        ~4x size buckets).  Contiguity preserves the newest-first
        ordering invariant tombstone resolution depends on."""
        count = len(readers)
        if count < self.compact_threshold:
            return None
        hi = count
        while hi > 0:
            tier = self._tier(readers[hi - 1].size)
            lo = hi - 1
            while lo > 0 and self._tier(readers[lo - 1].size) == tier:
                lo -= 1
            if hi - lo >= self.compact_threshold:
                return (lo, hi)
            hi = lo
        return None

    @staticmethod
    def _tier(size: int) -> int:
        return max(1, size).bit_length() // 2

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def run_count(self, name: Optional[str] = None) -> int:
        with self._lock:
            if name is not None:
                return len(self.runs.get(name, ()))
            return sum(len(r) for r in self.runs.values())

    def close(self) -> None:
        """Stop accepting compactions and wait for an in-flight one."""
        self.closed = True
        thread = self._compact_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
