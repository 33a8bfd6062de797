"""Per-statement statistics: a ``pg_stat_statements`` for the engine.

The collector keys on the *normalized* statement text — literals
replaced by ``?`` so ``INSERT INTO t VALUES (1)`` and
``INSERT INTO t VALUES (2)`` share one row — and accumulates, per key:

* calls, errors (total and by SQLSTATE),
* total wall time plus a ring of recent samples for mean/p99,
* rows returned and rows scanned,
* plan-cache hits,
* wait time attributed to the database reader-writer lock (shared vs
  exclusive acquisition) and to the WAL fsync/group-commit barrier.

Attribution works through one persistent per-thread
:class:`StatementContext` accumulator: the engine brackets each
statement with :func:`begin` / :meth:`StatementStats.record` (or
:func:`abandon` on an unrecorded unwind), and the wait hooks
(:func:`note_lock_wait`, :func:`note_wal_wait`, :func:`note_scan`)
charge the accumulator of the thread that paid the wait.  Nested
statements (a routine body executing SQL inside a CALL) spill the
outer statement's accrued waits on entry and restore them on exit, so
waits land on the innermost statement that paid them while the
fast path — no nesting, no waits — allocates nothing and moves no
data.  The same hooks also feed the process-wide metrics registry
(``waits.lock.shared`` / ``waits.lock.exclusive`` / ``waits.wal.sync``
histograms), so wait totals are visible even with no statement active
(e.g. ``Session.commit()`` called directly).

Collection is on by default; set ``REPRO_STATEMENT_STATS=0`` to turn
every hook into a no-op.  The fast path is deliberately cheap — the
lock-wait hooks only run on the *blocked* path, and the per-statement
cost (two clock reads, a depth bump on the reused thread-local
accumulator, one locked accumulate keyed by raw statement text) is
covered by the <5% overhead guard in ``benchmarks/common.py``.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

from repro.observability import metrics as _metrics

__all__ = [
    "StatementContext",
    "StatementStats",
    "normalize_statement",
    "normalize_tokens",
    "note_tokens",
    "wait_breakdown",
    "begin",
    "abandon",
    "active",
    "note_lock_wait",
    "note_wal_wait",
    "note_scan",
    "stats_enabled",
    "set_enabled",
    "ENV_VAR",
]

ENV_VAR = "REPRO_STATEMENT_STATS"

#: Module-level gate, read by the engine before every push.  Mutable at
#: runtime through :func:`set_enabled` (tests, benchmarks).
enabled = os.environ.get(ENV_VAR, "1").strip().lower() not in (
    "0", "false", "off",
)

#: Recent per-statement durations kept for the p99 estimate.
RECENT_SAMPLES = 128

#: Maximum distinct normalized statements tracked per database.  On
#: overflow the least-called entry is evicted (pg_stat_statements'
#: ``deallocation`` policy) and ``stats.evictions`` counts it.
DEFAULT_CAPACITY = 500

_WAIT_SHARED = _metrics.registry.histogram("waits.lock.shared")
_WAIT_EXCLUSIVE = _metrics.registry.histogram("waits.lock.exclusive")
_WAIT_WAL = _metrics.registry.histogram("waits.wal.sync")
_EVICTIONS = _metrics.registry.counter("stats.evictions")


def stats_enabled() -> bool:
    return enabled


def set_enabled(value: bool) -> None:
    """Flip statement-stats collection process-wide (tests/benchmarks)."""
    global enabled
    enabled = bool(value)


# ---------------------------------------------------------------------------
# per-thread attribution context
# ---------------------------------------------------------------------------


#: Index layout of a :class:`StatementContext` (a ``list`` subclass —
#: hot writers use the indexes; the named properties below serve the
#: cold readers).  The first six slots are the wait/scan accumulators;
#: the last three are the bracket bookkeeping.
_SHARED_WAIT = 0
_EXCLUSIVE_WAIT = 1
_WAL_WAIT = 2
_SHARED_WAITS = 3
_EXCLUSIVE_WAITS = 4
_ROWS_SCANNED = 5
_DIRTY = 6
_DEPTH = 7
_SPILL = 8

_NEW_STATE = (0.0, 0.0, 0.0, 0, 0, 0, 0, 0, None)

#: The per-thread accumulator charging waits and scans to the thread's
#: innermost statement — a *plain* nine-slot list (see the index
#: constants above).  Plain deliberately: a ``list`` subclass would
#: defeat CPython's exact-list subscript specialization, and the hot
#: path indexes this object several times per statement.  One instance
#: lives per thread, forever, and is reused across statements:
#: :func:`begin` bumps the ``_DEPTH`` slot,
#: :meth:`StatementStats.record` (or :func:`abandon`) consumes the
#: accumulated slots and decrements it, so the fast path allocates
#: nothing.  ``_DIRTY`` marks that a wait hook fired since the last
#: consume: the fast path (no waits, no scans) tests one slot instead
#: of six.  Nesting (a CALL statement's routine body running its own
#: SQL) spills the outer statement's accrued-but-unconsumed slots to
#: the ``_SPILL`` list on :func:`begin` and restores them when the
#: depth returns, so the innermost statement never steals an outer
#: statement's waits.  Cold readers (the slow-query log) go through
#: :func:`wait_breakdown`, which is only meaningful *inside* the
#: bracket, before the consume.
StatementContext = list


def wait_breakdown(context: StatementContext) -> dict:
    """The in-flight statement's waits (ms) and scan count, for cold
    readers like the slow-query log.  Read before the consume in
    :meth:`StatementStats.record` resets the accumulator."""
    return {
        "lock_shared_ms": context[_SHARED_WAIT] * 1000.0,
        "lock_exclusive_ms": context[_EXCLUSIVE_WAIT] * 1000.0,
        "wal_sync_ms": context[_WAL_WAIT] * 1000.0,
        "rows_scanned": context[_ROWS_SCANNED],
    }


_local = threading.local()


def begin() -> StatementContext:
    """Open the statement bracket for this thread; returns its context."""
    try:
        state = _local.state
    except AttributeError:
        state = _local.state = list(_NEW_STATE)
    if state[_DIRTY]:
        # An enclosing statement accrued waits before we started (a
        # CALL that blocked on the write lock, then ran its body): set
        # them aside so this inner statement consumes only its own.
        spill = state[_SPILL]
        if spill is None:
            spill = state[_SPILL] = []
        spill.append((
            state[_DEPTH],
            state[_SHARED_WAIT],
            state[_EXCLUSIVE_WAIT],
            state[_WAL_WAIT],
            state[_SHARED_WAITS],
            state[_EXCLUSIVE_WAITS],
            state[_ROWS_SCANNED],
        ))
        _reset(state)
    state[_DEPTH] += 1
    return state


def _reset(state: StatementContext) -> None:
    state[_SHARED_WAIT] = state[_EXCLUSIVE_WAIT] = 0.0
    state[_WAL_WAIT] = 0.0
    state[_SHARED_WAITS] = state[_EXCLUSIVE_WAITS] = 0
    state[_ROWS_SCANNED] = 0
    state[_DIRTY] = 0


def _close(state: StatementContext) -> None:
    """Depth bookkeeping shared by the consume paths; restores any
    spilled outer-statement accruals once their depth is current again."""
    depth = state[_DEPTH] - 1
    if depth < 0:  # tolerate a mispaired exit, like the tracer does
        depth = 0
    state[_DEPTH] = depth
    spill = state[_SPILL]
    if spill and spill[-1][0] == depth:
        _restore(state, spill, depth)


def _restore(state: StatementContext, spill: list, depth: int) -> None:
    """Merge the spill entry for ``depth`` back into the accumulator:
    the enclosing statement is innermost again and its pre-nesting
    waits are live once more."""
    _, sw, ew, ww, swc, ewc, rs = spill.pop()
    state[_SHARED_WAIT] += sw
    state[_EXCLUSIVE_WAIT] += ew
    state[_WAL_WAIT] += ww
    state[_SHARED_WAITS] += swc
    state[_EXCLUSIVE_WAITS] += ewc
    state[_ROWS_SCANNED] += rs
    state[_DIRTY] = 1


def abandon(state: StatementContext) -> None:
    """Close a bracket without recording (non-SQL exception unwind):
    the statement's accruals are discarded, not misattributed to
    whatever runs next on this thread."""
    if state[_DIRTY]:
        _reset(state)
    _close(state)


def active() -> Optional[StatementContext]:
    """The accumulator charging this thread's statement, if one runs."""
    state = getattr(_local, "state", None)
    if state is not None and state[_DEPTH]:
        return state
    return None


# ---------------------------------------------------------------------------
# wait hooks (called from engine.locks / engine.durability / executor)
# ---------------------------------------------------------------------------


def note_lock_wait(exclusive: bool, seconds: float) -> None:
    """Record a *blocked* reader-writer-lock acquisition.

    Called only when the acquiring thread actually waited; uncontended
    acquisitions never reach here, which is what keeps the fast path
    free of clock reads.
    """
    if exclusive:
        _WAIT_EXCLUSIVE.observe(seconds)
    else:
        _WAIT_SHARED.observe(seconds)
    context = active()
    if context is not None:
        if exclusive:
            context[_EXCLUSIVE_WAIT] += seconds
            context[_EXCLUSIVE_WAITS] += 1
        else:
            context[_SHARED_WAIT] += seconds
            context[_SHARED_WAITS] += 1
        context[_DIRTY] = 1


def note_wal_wait(seconds: float) -> None:
    """Record time spent in the WAL fsync/group-commit barrier."""
    _WAIT_WAL.observe(seconds)
    context = active()
    if context is not None:
        context[_WAL_WAIT] += seconds
        context[_DIRTY] = 1


def note_scan(rows: int) -> None:
    """Charge ``rows`` heap/index reads to the active statement."""
    # active(), inlined: every scan of every statement lands here.
    context = getattr(_local, "state", None)
    if context is not None and context[_DEPTH]:
        context[_ROWS_SCANNED] += rows
        context[_DIRTY] = 1


# ---------------------------------------------------------------------------
# statement normalization
# ---------------------------------------------------------------------------

_NORMALIZE_CACHE: Dict[str, str] = {}
_NORMALIZE_CACHE_LIMIT = 1024


def normalize_statement(sql: str) -> str:
    """Literals → ``?`` so parameter values do not explode the key space.

    Lexer-based, so string contents containing digits or quotes are
    handled exactly; an unlexable statement falls back to its raw text
    (it will fail to parse anyway, and the error should still be
    attributable).  Results are memoized by raw text, which also makes
    the per-execution cost of a repeated statement one dict hit; a text
    the engine parsed is memoized from the parser's tokens
    (:func:`note_tokens`) and never lexed again here.
    """
    cached = _NORMALIZE_CACHE.get(sql)
    if cached is not None:
        return cached
    from repro.engine.lexer import tokenize

    try:
        normalized = normalize_tokens(tokenize(sql))
    except Exception:
        normalized = sql.strip()
    _memo(sql, normalized)
    return normalized


def normalize_tokens(tokens: Iterable[Any]) -> str:
    """:func:`normalize_statement`'s key from the text's lexer tokens."""
    parts: List[str] = []
    for token in tokens:
        if token.kind == token.EOF:
            break
        if token.kind in (token.NUMBER, token.STRING):
            parts.append("?")
        elif token.value == "." and parts:
            # Keep qualified names (repro_stats.statements) intact.
            parts[-1] += "."
        elif parts and parts[-1].endswith("."):
            parts[-1] += token.value
        else:
            parts.append(token.value)
    return " ".join(parts)


def note_tokens(sql: str, tokens: Iterable[Any]) -> None:
    """Memoize ``sql``'s key from the tokens the parser already lexed,
    so recording a never-seen text does not lex it a second time."""
    if sql not in _NORMALIZE_CACHE:
        _memo(sql, normalize_tokens(tokens))


def _memo(sql: str, normalized: str) -> None:
    if len(_NORMALIZE_CACHE) >= _NORMALIZE_CACHE_LIMIT:
        _NORMALIZE_CACHE.clear()
    _NORMALIZE_CACHE[sql] = normalized


# ---------------------------------------------------------------------------
# the collector
# ---------------------------------------------------------------------------


class _Entry:
    __slots__ = (
        "key",
        "calls",
        "errors",
        "error_states",
        "total_seconds",
        "recent",
        "rows_returned",
        "rows_scanned",
        "plan_cache_hits",
        "shared_wait",
        "exclusive_wait",
        "wal_wait",
        "shared_waits",
        "exclusive_waits",
    )

    def __init__(self, key: str) -> None:
        self.key = key
        self.calls = 0
        self.errors = 0
        self.error_states: Dict[str, int] = {}
        self.total_seconds = 0.0
        self.recent: deque = deque(maxlen=RECENT_SAMPLES)
        self.rows_returned = 0
        self.rows_scanned = 0
        self.plan_cache_hits = 0
        self.shared_wait = 0.0
        self.exclusive_wait = 0.0
        self.wal_wait = 0.0
        self.shared_waits = 0
        self.exclusive_waits = 0


def _p99(samples: deque) -> Optional[float]:
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(len(ordered) * 0.99))
    return ordered[index]


class StatementStats:
    """One database's accumulated per-statement statistics."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}
        # Raw-text → entry aliases, so a repeated statement resolves
        # its entry with ONE dict probe instead of two (normalize memo,
        # then entries-by-key).  Purely a memo: cleared wholesale at
        # the same limit as the normalize cache, rebuilt on demand, and
        # purged of a victim's aliases when capacity evicts its entry.
        self._by_raw: Dict[str, _Entry] = {}

    def record(
        self,
        sql: str,
        seconds: float,
        rows_returned: int = 0,
        context: Optional[StatementContext] = None,
        error_sqlstate: Optional[str] = None,
        cache_hit: bool = False,
    ) -> str:
        """Fold one finished execution into its entry; returns the key.

        When ``context`` is this thread's accumulator (the engine's
        case) this call also *closes* the statement bracket opened by
        :func:`begin`: the accrued waits are consumed into the entry
        and the context is reset for the next statement.
        """
        dirty = context is not None and context[_DIRTY]
        # acquire/release instead of ``with``: the context-manager
        # protocol costs more than the uncontended acquire itself, and
        # this is the per-statement hot path (3.11's zero-cost
        # try/finally keeps the unlock guarantee free).
        self._lock.acquire()
        try:
            entry = self._by_raw.get(sql)
            if entry is None:
                entry = self._entry_for_locked(sql)
            entry.calls += 1
            entry.total_seconds += seconds
            entry.recent.append(seconds)
            if rows_returned:
                entry.rows_returned += rows_returned
            if cache_hit:
                entry.plan_cache_hits += 1
            if error_sqlstate is not None:
                entry.errors += 1
                entry.error_states[error_sqlstate] = (
                    entry.error_states.get(error_sqlstate, 0) + 1
                )
            if dirty:
                # The common statement neither waited nor scanned: one
                # flag test above instead of twelve accumulates here.
                entry.rows_scanned += context[_ROWS_SCANNED]
                entry.shared_wait += context[_SHARED_WAIT]
                entry.exclusive_wait += context[_EXCLUSIVE_WAIT]
                entry.wal_wait += context[_WAL_WAIT]
                entry.shared_waits += context[_SHARED_WAITS]
                entry.exclusive_waits += context[_EXCLUSIVE_WAITS]
        finally:
            self._lock.release()
        if context is not None:
            if dirty:
                # _reset(), inlined: a statement that scanned is dirty.
                context[_SHARED_WAIT] = context[_EXCLUSIVE_WAIT] = 0.0
                context[_WAL_WAIT] = 0.0
                context[_SHARED_WAITS] = context[_EXCLUSIVE_WAITS] = 0
                context[_ROWS_SCANNED] = 0
                context[_DIRTY] = 0
            # _close(), inlined: the call frame is measurable here.
            depth = context[_DEPTH] - 1
            if depth < 0:
                depth = 0
            context[_DEPTH] = depth
            spill = context[_SPILL]
            if spill and spill[-1][0] == depth:
                _restore(context, spill, depth)
        return entry.key

    def _entry_for_locked(self, sql: str) -> _Entry:
        """Cold path of :meth:`record`, under ``self._lock``: normalize,
        find or create the entry, and memoize the raw-text alias."""
        key = normalize_statement(sql)
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= self.capacity:
                victim = min(
                    self._entries.values(), key=lambda e: e.calls
                )
                del self._entries[victim.key]
                for raw in [
                    raw
                    for raw, aliased in self._by_raw.items()
                    if aliased is victim
                ]:
                    del self._by_raw[raw]
                _EVICTIONS.increment()
            entry = self._entries[key] = _Entry(key)
        if len(self._by_raw) >= _NORMALIZE_CACHE_LIMIT:
            self._by_raw.clear()
        self._by_raw[sql] = entry
        return entry

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_raw.clear()

    # -- view producers ---------------------------------------------------
    def statement_rows(self) -> List[List[Any]]:
        """Rows for ``repro_stats.statements`` (see engine.virtual)."""
        with self._lock:
            entries = list(self._entries.values())
        rows: List[List[Any]] = []
        for entry in entries:
            mean = (
                entry.total_seconds / entry.calls if entry.calls else None
            )
            p99 = _p99(entry.recent)
            rows.append([
                entry.key,
                entry.calls,
                entry.errors,
                ",".join(
                    f"{state}:{count}"
                    for state, count in sorted(entry.error_states.items())
                ) or None,
                entry.total_seconds * 1000.0,
                None if mean is None else mean * 1000.0,
                None if p99 is None else p99 * 1000.0,
                entry.rows_returned,
                entry.rows_scanned,
                entry.plan_cache_hits,
                entry.shared_wait * 1000.0,
                entry.exclusive_wait * 1000.0,
                entry.wal_wait * 1000.0,
            ])
        return rows

    def lock_rows(self) -> List[List[Any]]:
        """Per-statement wait attribution for ``repro_stats.locks``."""
        with self._lock:
            entries = list(self._entries.values())
        rows: List[List[Any]] = []
        for entry in entries:
            if (
                entry.shared_wait == 0.0
                and entry.exclusive_wait == 0.0
                and entry.wal_wait == 0.0
            ):
                continue
            rows.append([
                entry.key,
                entry.shared_waits,
                entry.exclusive_waits,
                entry.shared_wait * 1000.0,
                entry.exclusive_wait * 1000.0,
                entry.wal_wait * 1000.0,
            ])
        return rows
