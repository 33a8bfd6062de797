"""The LSM store: memtable flushes, run bookkeeping, compaction.

One :class:`LsmStore` owns a durable database directory's run files
and manifest, and is the *checkpoint store* every durable database
folds its WAL into.  Runs are a checkpoint format, not a read path:
queries read the in-memory heap, and the only readers of run files are
the merged scan that rebuilds the heap at open, and compaction.  The
*memtable* is the un-flushed portion of the live MVCC heap — versions
whose ``rid`` is still None, made durable by the WAL until they are
flushed.  A flush writes only the delta since the previous flush
(O(new data)) as one immutable SSTable run per table:

* a **row** per committed-live version not yet on disk (the version's
  ``rid`` is staged during collection and assigned only once the
  manifest install succeeds, so a failed flush leaves the heap
  re-flushable);
* a **tombstone** per flushed version whose ``end`` stamp landed since
  the last flush (plus tombstones handed over by vacuum for versions it
  physically reclaimed before they could be flushed).

Versions born *and* deleted between two flushes never touch disk at
all.  After the runs are written the manifest is atomically installed
and the WAL truncated: the manifest covers everything with
``seq <= last_seq``; the WAL replays the rest.  A directory without a
manifest is an empty store whose WAL replays everything — unless it
holds a ``snapshot.db`` whole-database image (the format directories
were checkpointed in before runs were the only one): its rows are then
loaded once, unflushed, and the first checkpoint writes them as each
table's first run (see :func:`repro.engine.durability.open_database`).

Background **size-tiered compaction** merges adjacent similarly-sized
runs of a table once enough accumulate, annihilating (row, tombstone)
pairs whose ``end`` stamp is at or below the MVCC vacuum horizon
(:meth:`~repro.engine.mvcc.TransactionManager.oldest_visible_seq`) —
the same bound vacuum uses for heap versions, so no live snapshot can
lose a row it could still see.  Compaction never blocks the engine:
run files are immutable, the merge happens off-lock, and only the
manifest install takes the store lock.

Fault-injection sites: ``lsm.flush`` (before a flush writes anything)
and ``lsm.flush.install`` (manifest installed, WAL not yet truncated)
are fired by the durability manager around :meth:`LsmStore.flush`;
``lsm.manifest`` (runs written, manifest not yet installed),
``lsm.compact`` (before the merged run is written) and
``lsm.compact.install`` (merged manifest installed, victim runs not yet
unlinked) fire here.  Every window is recovery-neutral by construction.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro import errors, faultpoints
from repro.engine import diskfile
from repro.engine.database import Database
from repro.engine.mvcc import TXN_BOOTSTRAP, RowVersion
from repro.engine.persistence import (
    SNAPSHOT_FILENAME,
    image_of,
    read_snapshot,
    restore_database,
)
from repro.engine.virtual import VirtualTable
from repro.observability import metrics as _metrics
from repro.engine.lsm.manifest import (
    MANIFEST_FILENAME,
    read_manifest,
    write_manifest,
)
from repro.engine.lsm.sstable import SSTableReader, write_sstable

__all__ = ["LsmStore", "MANIFEST_FILENAME"]

_FLUSHES = _metrics.registry.counter("lsm.flushes")
_COMPACTIONS = _metrics.registry.counter("lsm.compactions")
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

    The durability manager drives it as ``open`` → ``build_database``
    → ``flush`` (under the exclusive engine lock, no transaction in
    flight) → ``maybe_compact`` (lock released) → ``close``, and reads
    the watermarks ``last_seq`` (replay skips WAL records at or below
    it) and ``flushed_stamp`` (the MVCC commit counter resumes above
    it).
    """

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
        #: ``snapshot.db`` of a directory being migrated (no manifest
        #: yet); unlinked by ``open_database`` after the first flush.
        self.legacy_path: Optional[str] = None
        #: That file's image, held only from open() to build_database().
        self._legacy_image: Any = None
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
        flush or compaction, ``.tmp`` leftovers, a ``snapshot.db`` a
        migration already folded into runs — are deleted: the atomic
        manifest install means they were never (or are no longer) part
        of the durable state.  Without a manifest, a ``snapshot.db`` is
        the state: it is read here and migrated by the first flush.
        """
        store = cls(directory)
        payload = read_manifest(directory)
        referenced: Set[str] = set()
        legacy = os.path.join(directory, SNAPSHOT_FILENAME)
        if payload is None:
            if os.path.exists(legacy):
                (store._legacy_image, store.last_seq,
                 store.flushed_stamp) = read_snapshot(legacy)
                store.legacy_path = legacy
                referenced.add(SNAPSHOT_FILENAME)
        else:
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
                or filename.startswith(SNAPSHOT_FILENAME)
            )
            if is_orphan_run or is_tmp or filename == SNAPSHOT_FILENAME:
                _unlink_quietly([os.path.join(directory, filename)])
        return store

    def build_database(self, **identity: Any) -> Database:
        """Reconstruct the database the manifest + runs describe.

        The catalog comes from the manifest's schema image; every
        table's heap is rebuilt by the newest-first merged run scan,
        preserving each row's ``rid`` and original MVCC ``begin`` stamp
        (so post-recovery snapshots see exactly the committed history).
        Secondary indexes are rebuilt from the loaded heaps.  WAL
        replay — run by :func:`repro.engine.durability.open_database`
        afterwards — then refills the memtable.

        The database gets this store as ``database.lsm_store`` (its
        vacuum and DDL hooks must fire during replay too).  ``identity``
        — name, dialect, admin user — only applies to an empty
        directory.  A migrating directory's image is restored with
        every row unflushed (``rid`` None), so the next flush writes
        it as each table's first run.
        """
        image, self._legacy_image = self._legacy_image, None
        if image is not None:
            database = restore_database(image)
        elif self._image_blob is None:
            database = Database(**identity)
        else:
            database = restore_database(
                diskfile.loads(self._image_blob, "LSM manifest schema")
            )
            self._load_heaps(database)
        database.lsm_store = self
        return database

    def _load_heaps(self, database: Database) -> None:
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
            staged: List[Tuple[List[Any], int]] = []
            staged_paths: List[str] = []
            next_rid = self.next_rid
            try:
                for table in tables:
                    fresh: List[Any] = []
                    tombstones = dict(self._pending.get(table.name, {}))
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
                                    fresh.append(version)
                            elif (
                                version.end is not None
                                and version.end > self.flushed_stamp
                            ):
                                # Flushed earlier, deleted since:
                                # tombstone.
                                tombstones[version.rid] = version.end
                    if table.name in self._doomed:
                        # Every row image was rewritten in place (ALTER
                        # ADD/DROP COLUMN) or the name now belongs to a
                        # new table (DROP + CREATE): the old runs are
                        # stale, so they are dropped wholesale and the
                        # loop above re-emitted the full table (rids
                        # were reset).
                        base: List[SSTableReader] = []
                        doomed_files.extend(
                            r.path for r in self.runs.get(table.name, ())
                        )
                    else:
                        base = list(self.runs.get(table.name, ()))
                    if fresh or tombstones:
                        # The exclusive engine lock keeps every row
                        # list still: they are written without a copy.
                        path = self._allocate_run_path()
                        write_sstable(
                            path,
                            range(next_rid, next_rid + len(fresh)),
                            [v.begin for v in fresh],
                            [v.row for v in fresh],
                            tombstones,
                            table=table.name,
                        )
                        staged_paths.append(path)
                        staged.append((fresh, next_rid))
                        next_rid += len(fresh)
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
            for versions, first in staged:
                for rid, version in enumerate(versions, first):
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

    # ------------------------------------------------------------------
    # merged scan
    # ------------------------------------------------------------------
    def scan_table(
        self, name: str
    ) -> Iterator[Tuple[int, int, List[Any]]]:
        """Merged scan of a table's flushed state, runs newest-first.

        Yields ``(rid, begin, row)`` triples.  Tombstones — from the
        vacuum-handoff buffer and from each run — shadow older rows; a
        run's own tombstones are unioned *before* its rows are read, so
        a (row, tombstone) pair kept together by compaction still
        annihilates at read time.  Each rid's row lives in exactly one
        live run, so no rid is yielded twice.
        """
        with self._lock:
            runs = list(self.runs.get(name, ()))
            shadowed: Set[int] = set(self._pending.get(name, ()))
        for run in reversed(runs):
            shadowed |= run.tombstone_rids
            for rid, begin, row in run.rows():
                if rid not in shadowed:
                    yield (rid, begin, row)

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
        """A DDL change made the runs filed under ``table``'s name
        stale: every row image was rewritten in place (column add/drop)
        or the table was dropped, and a later table may take the name.
        Reset every version's rid, forget pending tombstones and doom
        the runs — the next flush rewrites whatever table then holds
        the name wholesale, and retires the runs if none does."""
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
            if self.closed or (thread is not None and thread.is_alive()):
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
        # Merge off-lock: run files are immutable.  Each rid's row
        # exists once, so this is a union plus tombstone resolution, and
        # every flush allocates rids above all earlier ones, so the
        # victims' rows, oldest run first, are already in rid order.
        tombstones: Dict[int, int] = {}
        for reader in victims:
            tombstones.update(reader.tombstones())
        # Dead below the vacuum horizon: no live snapshot can see the
        # row — row and tombstone annihilate.  Any other tombstone is
        # kept: its row lives in an older (unmerged) run, or the horizon
        # still protects a reader.
        dead = {rid for rid, end in tombstones.items() if end <= horizon}
        annihilated: Set[int] = set()
        rids: List[int] = []
        begins: List[int] = []
        rows: List[List[Any]] = []
        for reader in victims:
            for rid, begin, row in reader.rows():
                if rid in dead:
                    annihilated.add(rid)
                else:
                    rids.append(rid)
                    begins.append(begin)
                    rows.append(row)
        for rid in annihilated:
            del tombstones[rid]
        faultpoints.trigger("lsm.compact")
        replacement: List[SSTableReader] = []
        if rows or tombstones:
            with self._lock:
                path = self._allocate_run_path()
            replacement = [SSTableReader(write_sstable(
                path, rids, begins, rows, tombstones, table=name
            ))]
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
        """Stop accepting compactions, wait for an in-flight one, then
        close the live run files.  A compaction still running after the
        wait keeps its readers, which close with their last reference."""
        with self._compact_gate:
            self.closed = True
            thread = self._compact_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
            if thread.is_alive():
                return
        with self._lock:
            for readers in self.runs.values():
                for reader in readers:
                    reader.close()
