"""Process-wide counters and histograms.

The registry is the measurement substrate the ROADMAP's performance work
builds on: every layer of the pipeline (engine, dbapi, SQLJ runtime,
procedures) increments named counters as it executes, and
``repro.observability.snapshot()`` returns one consolidated view.

Counters are always on — a disabled tracer silences *span* output, but
counting stays active because a dict lookup plus an integer add is
negligible next to parsing or executing a statement.  Registry mutation
(creating a counter the first time a name is seen) is guarded by the
registry lock, and every counter/histogram mutation takes the
instrument's own lock, so totals are **exact** under concurrency: a
16-thread workload reports precisely as many statements as it ran
(``value += n`` compiles to a read-modify-write that can interleave
even under the GIL).  The per-instrument lock is uncontended in the
common case and costs well under a microsecond next to parsing or
executing a statement.

Well-known names used across the codebase:

==============================  ============================================
name                            meaning
==============================  ============================================
``statements.<kind>``           statements executed, by AST node kind
``rows.returned``               rows materialised for rowset results
``rows.scanned``                rows read by SeqScan/IndexScan from tables
                                (and by an index join's probes)
``index.lookups``               IndexScan probes (point or range), and one
                                per outer row of an index join
``mvcc.blocks_frozen``          heap blocks ANALYZE or vacuum froze: scans
                                skip the snapshot test on them
``mvcc.blocks_thawed``          frozen blocks a claim (UPDATE/DELETE)
                                unfroze
``plan_cache.*``                engine plan cache ``hits`` / ``misses`` /
                                ``evictions`` (capacity or stale schema)
``rows.fetched``                rows pulled through SQLJ ``FETCH``
``sqlj.clauses``                profile entries executed (``#sql`` clauses)
``dbapi.executions``            Statement / PreparedStatement executions
``procedures.calls``            external procedure invocations
``functions.calls``             external function invocations
``profile.statement_cache.*``   RTStatement cache ``hits`` / ``misses``
``errors.<sqlstate>``           SQLExceptions raised, by SQLSTATE
``statement.seconds``           histogram of per-statement wall time
``waits.lock.shared``           histogram of blocked shared (reader)
                                acquisitions of the database lock, seconds
``waits.lock.exclusive``        histogram of blocked exclusive (writer)
                                acquisitions, seconds
``waits.wal.sync``              histogram of time spent waiting for a WAL
                                fsync (group commit included), seconds
``slow_query.count``            slow-query log records emitted
``stats.evictions``             statement-statistics entries evicted at
                                capacity (see observability/stats.py)
``lsm.flushes``                 LSM memtable flushes (one per checkpoint)
``lsm.runs_written``            SSTable run files written by flushes
``lsm.compactions``             background run merges completed
``lsm.tombstones_gced``         data/tombstone pairs annihilated below
                                the MVCC horizon during compaction
``lsm.compact.corruption``      background compactions aborted by a
                                corrupt run frame (CRC mismatch); the
                                store stops background passes until
                                reopened
==============================  ============================================
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "increment",
    "observe",
    "snapshot",
    "reset",
]


class Counter:
    """A monotonically increasing integer.

    Mutate through :meth:`increment` (locked, exact under threads);
    ``value`` stays public for reads and for gauge-style assignment
    (e.g. pool occupancy), where the writer provides its own ordering.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        # acquire/release instead of ``with``: several counters sit on
        # the per-statement path, and the context-manager protocol
        # costs more than the uncontended acquire itself (try/finally
        # is free on 3.11, so the unlock guarantee stays).
        self._lock.acquire()
        try:
            self.value += amount
        finally:
            self._lock.release()


class Histogram:
    """Streaming summary of observed values (count/sum/min/max/mean).

    Full bucketed histograms are overkill for an in-process engine; the
    four running aggregates answer the questions the benchmarks ask
    (how many, how much in total, best and worst case).
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        self._lock.acquire()  # see Counter.increment
        try:
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
        finally:
            self._lock.release()

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def summary(self) -> Dict[str, Any]:
        # Under the instrument lock so a concurrent observe() cannot
        # produce a summary whose count and sum disagree.
        with self._lock:
            count = self.count
            total = self.total
            return {
                "count": count,
                "sum": total,
                "min": self.minimum,
                "max": self.maximum,
                "mean": (total / count) if count else None,
            }


class MetricsRegistry:
    """Named counters and histograms, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter())
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(name, Histogram())
        return histogram

    # ------------------------------------------------------------------
    # hot-path convenience
    # ------------------------------------------------------------------
    def increment(self, name: str, amount: int = 1) -> None:
        self.counter(name).increment(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # inspection / lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time copy: plain dicts, safe to mutate or serialise.

        Each value is read under its instrument's own lock — the same
        lock ``increment``/``observe``/``reset`` take — so a snapshot
        racing a reset never sees a counter that was read mid-update,
        and each histogram's count and sum always agree.  (The snapshot
        is per-instrument consistent, not a global atomic cut; a cut
        would require stopping every writer.)
        """
        with self._lock:
            counters = {}
            for name, counter in self._counters.items():
                with counter._lock:
                    counters[name] = counter.value
            histograms = {
                name: histogram.summary()
                for name, histogram in self._histograms.items()
            }
        return {"counters": counters, "histograms": histograms}

    def reset(self) -> None:
        """Zero all recorded values (tests and benchmark reruns).

        Resets in place rather than dropping the objects: hot paths
        cache :class:`Counter` instances at import time, and those
        cached handles must keep pointing at live registry entries.
        """
        with self._lock:
            for counter in self._counters.values():
                with counter._lock:
                    counter.value = 0
            for histogram in self._histograms.values():
                with histogram._lock:
                    histogram.count = 0
                    histogram.total = 0.0
                    histogram.minimum = None
                    histogram.maximum = None


#: The process-wide registry every layer reports into.
registry = MetricsRegistry()


def increment(name: str, amount: int = 1) -> None:
    registry.increment(name, amount)


def observe(name: str, value: float) -> None:
    registry.observe(name, value)


def snapshot() -> Dict[str, Any]:
    return registry.snapshot()


def reset() -> None:
    registry.reset()
