"""Iterator-model query operators.

Each operator exposes ``rows(ctx)`` returning an iterator of value lists.
``ctx`` carries the executing session, the statement's dynamic parameters
and (for correlated subqueries) the enclosing row environment.  Plans are
fully compiled — operators hold closures produced by
:class:`repro.engine.expressions.ExpressionCompiler`, so per-row work is
plain Python calls.
"""

from __future__ import annotations

import functools
import time
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, \
    Sequence, Tuple

from repro import errors, faultpoints
from repro.engine.catalog import Table
from repro.engine.expressions import Env, RowShape
from repro.observability import metrics as _metrics
from repro.observability import stats as _stats
from repro.sqltypes import compare_values
from repro.sqltypes.values import key_image, sort_key

_ROWS_SCANNED = _metrics.registry.counter("rows.scanned")
_INDEX_LOOKUPS = _metrics.registry.counter("index.lookups")

#: sort_key() image of SQL NULL (see HashJoin key handling).
_NULL_SORT_KEY = sort_key(None)

__all__ = [
    "RuntimeContext",
    "Operator",
    "SingleRow",
    "SeqScan",
    "IndexScan",
    "Filter",
    "Project",
    "NestedLoopJoin",
    "HashJoin",
    "Sort",
    "Limit",
    "Distinct",
    "GroupAggregate",
    "UnionOp",
    "QueryPlan",
    "AGGREGATE_FACTORIES",
    "OperatorStats",
    "PlanInstrumentation",
    "instrument_plan",
    "operator_children",
]


class RuntimeContext:
    """Execution-time state shared by all operators of one run."""

    __slots__ = ("session", "params", "outer_env")

    def __init__(
        self,
        session: Any,
        params: Sequence[Any],
        outer_env: Optional[Env] = None,
    ) -> None:
        self.session = session
        self.params = params
        self.outer_env = outer_env

    def env(self, row: Sequence[Any]) -> Env:
        return Env(row, self.params, self.outer_env, self.session)


class Operator:
    """Base operator; subclasses implement :meth:`rows`."""

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        raise NotImplementedError


class SingleRow(Operator):
    """Produces exactly one empty row (``SELECT 1`` with no FROM)."""

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        yield []


def _visible(txn: Any, candidates: Sequence[Any]) -> List[Any]:
    """The ``candidates`` versions ``txn``'s snapshot sees, charged to
    the statement as rows scanned.

    Callers take the snapshot (``session.mvcc_txn`` begins the
    transaction on first use) *before* collecting candidates: a commit
    landing between the two would otherwise end versions the snapshot
    must not see while its replacements are missing from the copy.
    """
    visible = [version for version in candidates if txn.sees(version)]
    _ROWS_SCANNED.increment(len(visible))
    _stats.note_scan(len(visible))
    return visible


_ROW = attrgetter("row")


class SeqScan(Operator):
    """Full scan over a base table's heap.

    :meth:`versions` is the scan itself — the visible
    :class:`~repro.engine.mvcc.RowVersion` objects, which an UPDATE or
    DELETE claims — and :meth:`rows` their value lists.
    """

    def __init__(self, table: Table) -> None:
        self.table = table

    def versions(self, ctx: RuntimeContext) -> List[Any]:
        # Iterate over a list() copy so DML statements reading their own
        # target table (e.g. INSERT INTO t SELECT ... FROM t) terminate,
        # and so concurrent appends by other transactions cannot disturb
        # the iteration (the heap is append-only; claimed/dead versions
        # are filtered by the snapshot, never removed mid-scan).
        txn = ctx.session.mvcc_txn
        return _visible(txn, list(self.table.versions))

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        return map(_ROW, self.versions(ctx))


class IndexScan(Operator):
    """Probe a secondary index instead of scanning the heap.

    Either an equality probe over the index's full key (``equal`` holds
    one compiled closure per key column, evaluated against the empty
    row — they may reference parameters but no columns) or a range
    probe on a single-column index (``lower``/``upper`` bound closures,
    either may be absent).  A bound or probe value evaluating to NULL
    yields no rows: no SQL comparison against NULL is TRUE.
    """

    def __init__(
        self,
        index: Any,
        table: Table,
        equal: Optional[List[Callable[[Env], Any]]] = None,
        lower: Optional[Callable[[Env], Any]] = None,
        upper: Optional[Callable[[Env], Any]] = None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
        description: Optional[str] = None,
    ) -> None:
        self.index = index
        self.table = table
        self.equal = equal
        self.lower = lower
        self.upper = upper
        self.lower_inclusive = lower_inclusive
        self.upper_inclusive = upper_inclusive
        #: SQL rendering of the probe predicate, for EXPLAIN output.
        self.description = description

    def versions(self, ctx: RuntimeContext) -> List[Any]:
        """The probed versions the reading snapshot sees (see SeqScan)."""
        _INDEX_LOOKUPS.increment()
        txn = ctx.session.mvcc_txn
        env = ctx.env([])
        if self.equal is not None:
            values = tuple(fn(env) for fn in self.equal)
            probe = functools.partial(self.index.lookup, values)
        else:
            lower = upper = None
            if self.lower is not None:
                lower = self.lower(env)
                if lower is None:
                    return []
            if self.upper is not None:
                upper = self.upper(env)
                if upper is None:
                    return []
            probe = functools.partial(
                self.index.range, lower, upper,
                self.lower_inclusive, self.upper_inclusive,
            )
        # Writers change the index under the mutation lock (a rolled
        # back insert empties a bucket), so the probe holds it too.
        with self.table.mutation_lock:
            candidates = list(probe())
        # Index buckets hold every version regardless of visibility;
        # apply the reading snapshot exactly as SeqScan does.
        return _visible(txn, candidates)

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        return map(_ROW, self.versions(ctx))


class Filter(Operator):
    def __init__(
        self,
        child: Operator,
        predicate: Callable[[Env], bool],
        description: Optional[str] = None,
    ) -> None:
        self.child = child
        self.predicate = predicate
        #: Optional SQL rendering of the predicate, for EXPLAIN output.
        self.description = description

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        predicate = self.predicate
        for row in self.child.rows(ctx):
            if predicate(ctx.env(row)):
                yield row


class Project(Operator):
    def __init__(
        self, child: Operator, items: List[Callable[[Env], Any]]
    ) -> None:
        self.child = child
        self.items = items

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        items = self.items
        for row in self.child.rows(ctx):
            env = ctx.env(row)
            yield [item(env) for item in items]


class NestedLoopJoin(Operator):
    """Nested-loop join supporting INNER/LEFT/RIGHT/FULL/CROSS."""

    def __init__(
        self,
        kind: str,
        left: Operator,
        right: Operator,
        predicate: Optional[Callable[[Env], bool]],
        left_width: int,
        right_width: int,
    ) -> None:
        self.kind = kind
        self.left = left
        self.right = right
        self.predicate = predicate
        self.left_width = left_width
        self.right_width = right_width

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        right_rows = list(self.right.rows(ctx))
        right_matched = [False] * len(right_rows)
        null_right = [None] * self.right_width
        null_left = [None] * self.left_width
        predicate = self.predicate
        kind = self.kind

        for left_row in self.left.rows(ctx):
            matched = False
            for index, right_row in enumerate(right_rows):
                combined = list(left_row) + list(right_row)
                if predicate is None or predicate(ctx.env(combined)):
                    matched = True
                    right_matched[index] = True
                    yield combined
            if not matched and kind in ("LEFT", "FULL"):
                yield list(left_row) + null_right

        if kind in ("RIGHT", "FULL"):
            for index, right_row in enumerate(right_rows):
                if not right_matched[index]:
                    yield null_left + list(right_row)


class HashJoin(Operator):
    """Hash join on equality keys, for INNER/LEFT/RIGHT/FULL joins.

    ``left_keys`` / ``right_keys`` are compiled against the *merged*
    row shape but reference only their own side's columns, so each side
    is evaluated with the other side padded with NULLs.  Keys are
    normalised with :func:`sort_key` (``1 = 1.0 = DECIMAL '1'``, CHAR
    pad spaces insignificant), matching SQL ``=``.

    The hash table is strictly a *candidate* filter: every candidate
    pair is re-checked with ``predicate`` — the full compiled ON
    condition (equalities plus any residual conjuncts) — so semantics
    are identical to :class:`NestedLoopJoin` with the same predicate.
    That also gives graceful degradation: a build row whose key cannot
    be hashed (exotic Part 2 object, normally rejected at plan time)
    joins the ``loose`` list and is linearly probed; a probe row whose
    key cannot be hashed falls back to scanning all build rows.

    ``build`` selects which child is materialised into the hash table:
    ``"right"`` (the historical default) buckets the right child and
    streams the left; ``"left"`` buckets the left child and streams the
    right.  The cost-based planner picks the side with the smaller
    estimated cardinality.  Output columns are always ``left + right``
    regardless of build side; only row order differs.
    """

    def __init__(
        self,
        kind: str,
        left: Operator,
        right: Operator,
        left_keys: List[Callable[[Env], Any]],
        right_keys: List[Callable[[Env], Any]],
        predicate: Optional[Callable[[Env], bool]],
        left_width: int,
        right_width: int,
        description: Optional[str] = None,
        build: str = "right",
    ) -> None:
        self.kind = kind
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.predicate = predicate
        self.left_width = left_width
        self.right_width = right_width
        #: SQL rendering of the join keys, for EXPLAIN output.
        self.description = description
        #: which child is hashed: ``"right"`` or ``"left"``.
        self.build = build

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        if self.build == "left":
            yield from self._rows_build_left(ctx)
            return
        yield from self._rows_build_right(ctx)

    def _rows_build_left(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        """Mirror image of the default path: hash left, stream right."""
        left_rows = list(self.left.rows(ctx))
        left_matched = [False] * len(left_rows)
        null_right = [None] * self.right_width
        null_left = [None] * self.left_width
        predicate = self.predicate
        kind = self.kind

        buckets: Dict[tuple, List[Tuple[int, List[Any]]]] = {}
        loose: List[Tuple[int, List[Any]]] = []
        for index, left_row in enumerate(left_rows):
            env = ctx.env(list(left_row) + null_right)
            try:
                key = tuple(
                    sort_key(fn(env)) for fn in self.left_keys
                )
                if _NULL_SORT_KEY in key:
                    continue
                buckets.setdefault(key, []).append((index, left_row))
            except TypeError:
                loose.append((index, left_row))

        for right_row in self.right.rows(ctx):
            env = ctx.env(null_left + list(right_row))
            try:
                key = tuple(sort_key(fn(env)) for fn in self.right_keys)
                if _NULL_SORT_KEY in key:
                    candidates = loose
                else:
                    candidates = buckets.get(key, [])
                    if loose:
                        candidates = candidates + loose
            except TypeError:
                candidates = list(enumerate(left_rows))
            matched = False
            for index, left_row in candidates:
                combined = list(left_row) + list(right_row)
                if predicate is None or predicate(ctx.env(combined)):
                    matched = True
                    left_matched[index] = True
                    yield combined
            if not matched and kind in ("RIGHT", "FULL"):
                yield null_left + list(right_row)

        if kind in ("LEFT", "FULL"):
            for index, left_row in enumerate(left_rows):
                if not left_matched[index]:
                    yield list(left_row) + null_right

    def _rows_build_right(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        right_rows = list(self.right.rows(ctx))
        right_matched = [False] * len(right_rows)
        null_right = [None] * self.right_width
        null_left = [None] * self.left_width
        predicate = self.predicate
        kind = self.kind

        # Build: bucket right rows by normalised key.  NULL keys can
        # never satisfy an equality, so those rows are left unbucketed
        # (they surface only through RIGHT/FULL null extension).
        buckets: Dict[tuple, List[Tuple[int, List[Any]]]] = {}
        loose: List[Tuple[int, List[Any]]] = []
        for index, right_row in enumerate(right_rows):
            env = ctx.env(null_left + list(right_row))
            try:
                key = tuple(
                    sort_key(fn(env)) for fn in self.right_keys
                )
                if _NULL_SORT_KEY in key:
                    continue
                buckets.setdefault(key, []).append((index, right_row))
            except TypeError:
                loose.append((index, right_row))

        # Probe with left rows.
        for left_row in self.left.rows(ctx):
            env = ctx.env(list(left_row) + null_right)
            try:
                key = tuple(sort_key(fn(env)) for fn in self.left_keys)
                if _NULL_SORT_KEY in key:
                    candidates = loose
                else:
                    candidates = buckets.get(key, [])
                    if loose:
                        candidates = candidates + loose
            except TypeError:
                candidates = list(enumerate(right_rows))
            matched = False
            for index, right_row in candidates:
                combined = list(left_row) + list(right_row)
                if predicate is None or predicate(ctx.env(combined)):
                    matched = True
                    right_matched[index] = True
                    yield combined
            if not matched and kind in ("LEFT", "FULL"):
                yield list(left_row) + null_right

        if kind in ("RIGHT", "FULL"):
            for index, right_row in enumerate(right_rows):
                if not right_matched[index]:
                    yield null_left + list(right_row)


class Sort(Operator):
    def __init__(
        self,
        child: Operator,
        keys: List[Tuple[Callable[[Env], Any], bool]],
    ) -> None:
        self.child = child
        self.keys = keys

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        materialised = list(self.child.rows(ctx))
        # Stable multi-key sort: apply keys right-to-left.
        for key_fn, ascending in reversed(self.keys):
            materialised.sort(
                key=lambda row, fn=key_fn: sort_key(fn(ctx.env(row))),
                reverse=not ascending,
            )
        return iter(materialised)


class Limit(Operator):
    def __init__(
        self,
        child: Operator,
        limit: Optional[Callable[[Env], Any]],
        offset: Optional[Callable[[Env], Any]],
    ) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        empty_env = ctx.env([])
        remaining = None
        if self.limit is not None:
            remaining = int(self.limit(empty_env))
            if remaining < 0:
                raise errors.DataError("LIMIT must be non-negative")
        to_skip = 0
        if self.offset is not None:
            to_skip = int(self.offset(empty_env))
            if to_skip < 0:
                raise errors.DataError("OFFSET must be non-negative")
        for row in self.child.rows(ctx):
            if to_skip > 0:
                to_skip -= 1
                continue
            if remaining is not None:
                if remaining == 0:
                    return
                remaining -= 1
            yield row


#: Skeleton placeholder for a value whose sort_key cannot be hashed.
_UNKEYABLE = object()


def _row_skeleton(key: tuple) -> Tuple[tuple, Tuple[int, ...]]:
    """Hashable skeleton of a row key that itself failed to hash.

    Each element becomes its :func:`sort_key` image (hashable for every
    scalar, and normalising ``1``/``1.0``/``Decimal('1')`` to one key);
    elements whose sort_key is unhashable too (exotic Part 2 objects)
    become a sentinel, and their positions are returned so callers
    linear-probe *only those positions* within a skeleton bucket —
    turning the old O(n²) whole-row fallback into a hash lookup plus a
    comparison over the truly incomparable values.
    """
    skeleton: List[Any] = []
    loose: List[int] = []
    for position, value in enumerate(key):
        try:
            image = sort_key(value)
            hash(image)
        except Exception:
            image = _UNKEYABLE
            loose.append(position)
        skeleton.append(image)
    return tuple(skeleton), tuple(loose)


class _RowSet:
    """Duplicate detector tolerating unhashable (Part 2 object) values."""

    def __init__(self) -> None:
        self._hashed: set = set()
        self._buckets: Dict[tuple, List[tuple]] = {}

    @staticmethod
    def _values_equal(left: Any, right: Any) -> bool:
        """NULL-as-a-value equality used for DISTINCT/GROUP BY."""
        if left is None or right is None:
            return left is None and right is None
        return compare_values(left, right) == 0

    def add(self, row: Sequence[Any]) -> bool:
        """Add the row; returns True if it was new."""
        key = tuple(key_image(v) for v in row)
        try:
            if key in self._hashed:
                return False
            self._hashed.add(key)
            return True
        except TypeError:
            skeleton, loose = _row_skeleton(key)
            bucket = self._buckets.setdefault(skeleton, [])
            for seen in bucket:
                if all(
                    self._values_equal(seen[p], key[p]) for p in loose
                ):
                    return False
            bucket.append(key)
            return True


class Distinct(Operator):
    def __init__(self, child: Operator) -> None:
        self.child = child

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        seen = _RowSet()
        for row in self.child.rows(ctx):
            if seen.add(row):
                yield row


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class _Accumulator:
    """Base aggregate accumulator."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class _CountStar(_Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def result(self) -> int:
        return self.count


class _Count(_Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def result(self) -> int:
        return self.count


class _Sum(_Accumulator):
    def __init__(self) -> None:
        self.total: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def result(self) -> Any:
        return self.total


class _Avg(_Accumulator):
    def __init__(self) -> None:
        self.total: Any = None
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value
        self.count += 1

    def result(self) -> Any:
        if self.count == 0:
            return None
        if isinstance(self.total, float):
            return self.total / self.count
        import decimal

        return decimal.Decimal(self.total) / decimal.Decimal(self.count)


class _MinMax(_Accumulator):
    def __init__(self, want_max: bool) -> None:
        self.want_max = want_max
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None:
            self.best = value
            return
        comparison = compare_values(value, self.best)
        if comparison is None:
            return
        if (comparison > 0) == self.want_max and comparison != 0:
            self.best = value

    def result(self) -> Any:
        return self.best


class _DistinctWrapper(_Accumulator):
    """Feeds only first occurrences of each value into ``inner``."""

    def __init__(self, inner: _Accumulator) -> None:
        self.inner = inner
        self.seen = _RowSet()

    def add(self, value: Any) -> None:
        if value is None or self.seen.add([value]):
            self.inner.add(value)

    def result(self) -> Any:
        return self.inner.result()


AGGREGATE_FACTORIES = {
    "COUNT*": _CountStar,
    "COUNT": _Count,
    "SUM": _Sum,
    "AVG": _Avg,
    "MIN": functools.partial(_MinMax, want_max=False),
    "MAX": functools.partial(_MinMax, want_max=True),
}


class AggregateSpec:
    """One aggregate to compute: factory + optional argument closure."""

    def __init__(
        self,
        name: str,
        argument: Optional[Callable[[Env], Any]],
        distinct: bool,
    ) -> None:
        self.name = name
        self.argument = argument
        self.distinct = distinct
        key = "COUNT*" if name == "COUNT" and argument is None else name
        self.factory = AGGREGATE_FACTORIES[key]

    def new_accumulator(self) -> _Accumulator:
        accumulator = self.factory()
        if self.distinct:
            accumulator = _DistinctWrapper(accumulator)
        return accumulator


class GroupAggregate(Operator):
    """Hash aggregation.

    Output rows are ``group-key values ++ aggregate results``.  With no
    GROUP BY keys the whole input forms one group, and an empty input
    still yields that single group (COUNT = 0, SUM = NULL) per SQL.
    """

    def __init__(
        self,
        child: Operator,
        keys: List[Callable[[Env], Any]],
        aggregates: List[AggregateSpec],
    ) -> None:
        self.child = child
        self.keys = keys
        self.aggregates = aggregates

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        groups: dict = {}
        order: List[Any] = []
        # Unhashable keys bucket by their _row_skeleton; within a
        # bucket only the truly incomparable positions are probed
        # linearly (see _row_skeleton).
        unhashable_buckets: Dict[tuple, List[Tuple[tuple, tuple]]] = {}
        unhashable_order: List[Tuple[list, list]] = []

        for row in self.child.rows(ctx):
            env = ctx.env(row)
            key_values = [key(env) for key in self.keys]
            key = tuple(key_image(v) for v in key_values)
            try:
                state = groups.get(key)
                if state is None:
                    state = (
                        key_values,
                        [spec.new_accumulator() for spec in self.aggregates],
                    )
                    groups[key] = state
                    order.append(key)
            except TypeError:
                skeleton, loose = _row_skeleton(key)
                bucket = unhashable_buckets.setdefault(skeleton, [])
                state = None
                for existing_key, existing_state in bucket:
                    if all(
                        _RowSet._values_equal(existing_key[p], key[p])
                        for p in loose
                    ):
                        state = existing_state
                        break
                if state is None:
                    state = (
                        key_values,
                        [spec.new_accumulator() for spec in self.aggregates],
                    )
                    bucket.append((key, state))
                    unhashable_order.append(state)
            for spec, accumulator in zip(self.aggregates, state[1]):
                accumulator.add(
                    spec.argument(env) if spec.argument is not None else 0
                )

        if not groups and not unhashable_order and not self.keys:
            yield [acc.result() for acc in (
                spec.new_accumulator() for spec in self.aggregates
            )]
            return

        for key in order:
            key_values, accumulators = groups[key]
            yield list(key_values) + [a.result() for a in accumulators]
        for key_values, accumulators in unhashable_order:
            yield list(key_values) + [a.result() for a in accumulators]


class UnionOp(Operator):
    """UNION / INTERSECT / EXCEPT, with or without ALL.

    Bag semantics for the ALL variants follow the SQL standard:
    INTERSECT ALL keeps min(m, n) duplicates, EXCEPT ALL keeps
    max(m - n, 0).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        all_rows: bool,
        op: str = "UNION",
    ):
        self.left = left
        self.right = right
        self.all_rows = all_rows
        self.op = op

    @staticmethod
    def _key(row: Sequence[Any]) -> tuple:
        return tuple(key_image(v) for v in row)

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        if self.op == "UNION":
            yield from self._union(ctx)
        elif self.op == "INTERSECT":
            yield from self._intersect(ctx)
        else:
            yield from self._except(ctx)

    def _union(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        if self.all_rows:
            yield from self.left.rows(ctx)
            yield from self.right.rows(ctx)
            return
        seen = _RowSet()
        for source in (self.left, self.right):
            for row in source.rows(ctx):
                if seen.add(row):
                    yield row

    def _intersect(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        counts: dict = {}
        for row in self.right.rows(ctx):
            key = self._key(row)
            counts[key] = counts.get(key, 0) + 1
        emitted = set()
        for row in self.left.rows(ctx):
            key = self._key(row)
            if counts.get(key, 0) > 0:
                if self.all_rows:
                    counts[key] -= 1
                    yield row
                elif key not in emitted:
                    emitted.add(key)
                    yield row

    def _except(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        counts: dict = {}
        for row in self.right.rows(ctx):
            key = self._key(row)
            counts[key] = counts.get(key, 0) + 1
        emitted = set()
        for row in self.left.rows(ctx):
            key = self._key(row)
            if self.all_rows:
                if counts.get(key, 0) > 0:
                    counts[key] -= 1
                else:
                    yield row
            else:
                if counts.get(key, 0) == 0 and key not in emitted:
                    emitted.add(key)
                    yield row


# ---------------------------------------------------------------------------
# Plan introspection and instrumentation
# ---------------------------------------------------------------------------


def operator_children(operator: Operator) -> List[Operator]:
    """The operator's input operators, in plan order."""
    if isinstance(operator, (UnionOp, NestedLoopJoin, HashJoin)):
        return [operator.left, operator.right]
    child = getattr(operator, "child", None)
    return [child] if child is not None else []


class OperatorStats:
    """Actual row count and cumulative wall time for one plan node.

    ``seconds`` is inclusive (it covers time spent pulling rows from the
    node's children, as in PostgreSQL's EXPLAIN ANALYZE actual times).
    """

    __slots__ = ("rows_out", "seconds")

    def __init__(self) -> None:
        self.rows_out = 0
        self.seconds = 0.0

    def describe(self) -> str:
        return (
            f"actual rows={self.rows_out} "
            f"time={self.seconds * 1000.0:.3f} ms"
        )


class PlanInstrumentation:
    """Per-node statistics for one instrumented plan."""

    def __init__(self) -> None:
        self._stats: Dict[int, OperatorStats] = {}

    def stats_for(self, operator: Operator) -> Optional[OperatorStats]:
        return self._stats.get(id(operator))

    def annotate(self, operator: Operator) -> Optional[str]:
        """EXPLAIN ANALYZE suffix for ``operator`` (None if unknown)."""
        stats = self.stats_for(operator)
        return None if stats is None else stats.describe()

    def _attach(self, operator: Operator) -> None:
        stats = self._stats.setdefault(id(operator), OperatorStats())
        inner = operator.rows
        timer = time.perf_counter

        def rows(ctx: RuntimeContext) -> Iterator[List[Any]]:
            begin = timer()
            iterator = iter(inner(ctx))
            stats.seconds += timer() - begin
            while True:
                begin = timer()
                try:
                    row = next(iterator)
                except StopIteration:
                    stats.seconds += timer() - begin
                    return
                stats.seconds += timer() - begin
                stats.rows_out += 1
                yield row

        # Shadow the bound method on the instance; the wrapper keeps the
        # original via closure, so instrumenting twice stacks harmlessly.
        operator.rows = rows  # type: ignore[method-assign]


def instrument_plan(root: Operator) -> PlanInstrumentation:
    """Wrap every node's ``rows`` to record rows-out and cumulative time.

    Mutates the plan in place, so only instrument plans built for one
    execution (EXPLAIN ANALYZE plans its query freshly; never instrument
    a cached prepared plan you intend to keep using untimed).
    """
    instrumentation = PlanInstrumentation()
    stack = [root]
    while stack:
        node = stack.pop()
        instrumentation._attach(node)
        stack.extend(operator_children(node))
    return instrumentation


def _wrap_operator_error(exc: Exception) -> errors.OperatorExecutionError:
    """Name the innermost operator on ``exc``'s traceback."""
    operator: Optional[Operator] = None
    traceback = exc.__traceback__
    while traceback is not None:
        candidate = traceback.tb_frame.f_locals.get("self")
        if isinstance(candidate, Operator):
            operator = candidate
        traceback = traceback.tb_next
    if operator is None:
        where = "query plan"
    elif isinstance(operator, SeqScan):
        where = f"SeqScan on {operator.table.name}"
    elif isinstance(operator, IndexScan):
        where = (
            f"IndexScan using {operator.index.name} "
            f"on {operator.table.name}"
        )
    else:
        where = type(operator).__name__
    return errors.OperatorExecutionError(
        f"{type(exc).__name__} in {where}: {exc}"
    )


class QueryPlan:
    """A compiled query: root operator plus output shape."""

    def __init__(self, root: Operator, shape: RowShape) -> None:
        self.root = root
        self.shape = shape

    def run(
        self, session: Any, params: Sequence[Any] = ()
    ) -> List[List[Any]]:
        """Execute and materialise all rows."""
        faultpoints.trigger("executor.run")
        ctx = RuntimeContext(session, params)
        try:
            return [list(row) for row in self.root.rows(ctx)]
        except errors.SQLException:
            raise
        except Exception as exc:
            raise _wrap_operator_error(exc) from exc

    def run_correlated(
        self,
        session: Any,
        outer_env: Env,
        limit: Optional[int] = None,
    ) -> List[List[Any]]:
        """Execute as a correlated subquery of ``outer_env``'s row."""
        ctx = RuntimeContext(session, outer_env.params, outer_env)
        rows: List[List[Any]] = []
        try:
            for row in self.root.rows(ctx):
                rows.append(list(row))
                if limit is not None and len(rows) >= limit:
                    break
        except errors.SQLException:
            raise
        except Exception as exc:
            raise _wrap_operator_error(exc) from exc
        return rows
