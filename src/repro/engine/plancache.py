"""Engine-level LRU plan cache.

Parsing and compiling dominate the cost of small statements (the
per-row work of a point lookup or a keyed UPDATE is a couple of dict
probes), so this cache keys compiled plans — queries and
INSERT/UPDATE/DELETE alike — by ``(sql, dialect, user)`` and tags each
entry with the catalog version *and statistics version* it was compiled
under:

* **sql** — byte-exact statement text (no normalisation; two spellings
  of the same statement are two entries);
* **dialect** — dialect name, since it changes how the text parses;
* **user** — privilege checks run at compile time, so a plan is only
  valid for the user it was compiled for;
* **catalog version** — :class:`repro.engine.catalog.Catalog` bumps a
  monotonic counter on every DDL/GRANT/REVOKE mutation; an entry whose
  version is stale is evicted on lookup and the statement recompiles.
* **stats version** — ANALYZE bumps the catalog's separate
  ``stats_version`` counter; a plan chosen under old statistics may be
  the wrong plan now (seqscan-vs-index crossover, join order), so
  stale-stats entries are evicted and re-costed the same way.

A plan keeps nothing of the session that compiled it (compiled
expressions read the executing one from their ``Env``), so one entry
serves every session of its user.  Commands — DDL, CALL, EXPLAIN,
transaction control — are never cached.

Thread safety: lookups and inserts take a private lock; the *plans*
themselves are only executed under the database's reader-writer lock,
and the session layer re-validates the catalog version after acquiring
it, so a plan can never run against a schema it was not built for.

Metrics: ``plan_cache.hits`` / ``plan_cache.misses`` /
``plan_cache.evictions`` (both capacity and staleness evictions).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional, Tuple

from repro.observability import metrics as _metrics

__all__ = ["CachedPlan", "PlanCache"]

_HITS = _metrics.registry.counter("plan_cache.hits")
_MISSES = _metrics.registry.counter("plan_cache.misses")
_EVICTIONS = _metrics.registry.counter("plan_cache.evictions")

#: (sql text, dialect name, user)
CacheKey = Tuple[str, str, str]

#: Entries a database's cache holds (``benchmarks/e2e``'s
#: ``analytic_scan`` sizes its distinct texts against it).
CAPACITY = 128


class CachedPlan:
    """One compiled statement: parsed AST, plan, output shape (None for
    DML, whose plan is a :class:`~repro.engine.dml.DmlPlan`)."""

    __slots__ = (
        "statement", "plan", "shape", "catalog_version", "stats_version"
    )

    def __init__(
        self,
        statement: Any,
        plan: Any,
        shape: Any,
        catalog_version: int,
        stats_version: int = 0,
    ) -> None:
        self.statement = statement
        self.plan = plan
        self.shape = shape
        self.catalog_version = catalog_version
        self.stats_version = stats_version


class PlanCache:
    """LRU cache of :class:`CachedPlan` entries."""

    def __init__(self, capacity: int = CAPACITY) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, CachedPlan]" = OrderedDict()
        self._lock = threading.Lock()

    def get(
        self,
        key: CacheKey,
        catalog_version: int,
        stats_version: int = 0,
    ) -> Optional[CachedPlan]:
        """Return a fresh entry for ``key``, or None (counting a miss).

        An entry planned under an older catalog version is evicted here
        (schema, index set, or privileges changed since it was built),
        as is one planned under older ANALYZE statistics.
        """
        entry = self.peek(key, catalog_version, stats_version)
        if entry is None:
            _MISSES.increment()
        return entry

    def peek(
        self,
        key: CacheKey,
        catalog_version: int,
        stats_version: int = 0,
    ) -> Optional[CachedPlan]:
        """Like :meth:`get`, but absence is not counted as a miss.

        The session layer probes the cache *before parsing*, when the
        statement may turn out to be a command, which is never cached;
        counting those probes as misses would make the hit rate
        meaningless.  The caller reports the miss through :meth:`miss`
        once it knows the statement was plannable.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if (
                entry.catalog_version != catalog_version
                or entry.stats_version != stats_version
            ):
                del self._entries[key]
                _EVICTIONS.increment()
                return None
            self._entries.move_to_end(key)
            _HITS.increment()
            return entry

    def miss(self) -> None:
        """Record a miss for a cacheable statement (see :meth:`peek`)."""
        _MISSES.increment()

    def put(self, key: CacheKey, entry: CachedPlan) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                _EVICTIONS.increment()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
