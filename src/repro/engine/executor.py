"""Iterator-model query operators with generated per-row loops.

Each operator exposes ``rows(ctx)`` returning an iterator of value lists.
``ctx`` carries the executing session, the statement's dynamic parameters
and (for correlated subqueries) the enclosing row environment.

The scans and the operators that evaluate expressions per row — Filter,
Project, the three joins, GroupAggregate and Sort — have their loop
emitted as Python source with the expressions' fragments inlined (see
:mod:`repro.engine.expressions`).  A scan's loop inlines the snapshot's
visibility test, :data:`repro.engine.mvcc.VISIBLE`, which a SeqScan
skips on frozen heap blocks (:func:`repro.engine.mvcc.settled_runs`); a
chain of Filters and Projects, and the scan below it, runs inside the
loop of the operator consuming the chain (:func:`_input`) — the chain's
top node, GroupAggregate, Sort (top-N included) or either side of a
join (an index join's probed side, fused or not).
:func:`generate_plan` compiles every loop of a plan that no consumer
runs inside its own, and the callables IndexScan and Limit evaluate, in
one ``compile()`` when the :class:`QueryPlan` is built, so a plan-cache
hit never recompiles.
Other inputs are pulled through ``child.rows(ctx)``, so early exit
(LIMIT, EXISTS) stops the scan too; :func:`instrument_plan` turns
fusion off to count rows per node.
"""

from __future__ import annotations

import collections
import decimal
import functools
import heapq
import time
from operator import itemgetter, length_hint
from typing import Any, Dict, Iterator, List, Optional, Sequence, \
    Tuple

from repro import errors, faultpoints
from repro.engine.catalog import Table
from repro.engine.expressions import RUNTIME, Compiled, Env, RowShape, \
    fresh, generate, indent, prologue
from repro.engine.mvcc import VISIBLE, settled_runs
from repro.observability import metrics as _metrics
from repro.observability import stats as _stats
from repro.sqltypes import TypeDescriptor, compare_values
from repro.sqltypes.values import key_image, sort_key

_ROWS_SCANNED = _metrics.registry.counter("rows.scanned")
_INDEX_LOOKUPS = _metrics.registry.counter("index.lookups")

__all__ = [
    "RuntimeContext", "Operator", "SingleRow", "SeqScan", "IndexScan",
    "Filter", "Project", "NestedLoopJoin", "HashJoin",
    "IndexNestedLoopJoin", "Sort", "Limit",
    "Distinct", "GroupAggregate", "AggregateSpec", "UnionOp", "QueryPlan",
    "OperatorStats", "PlanInstrumentation", "generate_plan",
    "instrument_plan", "operator_children", "target_loop", "LOOP_RUNTIME",
]

#: Execution-time state shared by all operators of one run: an
#: :class:`Env` with no row (its session, parameters and outer row).
RuntimeContext = Env


class Operator:
    """Base operator; subclasses implement :meth:`rows`."""

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        raise NotImplementedError

    def expressions(self) -> List[Compiled]:
        """Compiled expressions this operator calls through ``fn``."""
        return []


class _Generated(Operator):
    """An operator whose ``rows`` is a generated function of (operator,
    context), built from :meth:`source` by :func:`generate_plan`."""

    loop: Any = None
    #: Whether the loop runs a Filter/Project/scan input inside itself
    #: (:func:`_input`); :func:`instrument_plan` turns it off.
    fuse = True

    def source(self, name: str) -> Tuple[str, Dict[str, Any]]:
        """``def name(self, c)`` and the bindings it names."""
        raise NotImplementedError

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        if self.loop is None:
            generate_plan(self)
        return self.loop(self, ctx)


def _function(name: str, body: str, fragments: Sequence[Compiled],
              bindings: Optional[Dict[str, Any]] = None
              ) -> Tuple[str, Dict[str, Any]]:
    """A generated operator function: ``body`` (indented four spaces,
    reading ``self``, the context ``c`` and parameters ``p``) and the
    bindings of the ``fragments`` it inlines."""
    names = dict(bindings or {})
    for fragment in fragments:
        names.update(fragment.bindings)
    return f"def {name}(self, c):\n{prologue(body)}{body}", names


def _join_image(value: Any) -> Any:
    """Hash-join key image of one value: None for NULL, else its
    :func:`sort_key` image (``1 = 1.0 = DECIMAL '1'``, CHAR pad spaces
    insignificant), matching SQL ``=``."""
    return None if value is None else sort_key(value)[1]


#: Skeleton placeholder for a value whose sort_key cannot be hashed.
_UNKEYABLE = object()


def _canonical(buckets: Dict[tuple, list], key: tuple) -> tuple:
    """A hashable stand-in for ``key`` — a tuple of key images one of
    which cannot be hashed — shared by every key equal to it.

    ``key`` buckets by its skeleton: each value's :func:`sort_key` image
    (normalising ``1``/``1.0``/``Decimal('1')``), or a sentinel where
    that cannot be hashed either (exotic Part 2 objects); only those
    positions are compared, linearly, within the bucket.
    """
    skeleton, loose = [], []
    for position, value in enumerate(key):
        try:
            image = sort_key(value)
            hash(image)
        except Exception:
            image = _UNKEYABLE
            loose.append(position)
        skeleton.append(image)
    bucket = buckets.setdefault(tuple(skeleton), [])
    for seen, token in bucket:
        if all(compare_values(seen[p], key[p]) == 0 for p in loose):
            return token
    token = (_UNKEYABLE, tuple(skeleton), len(bucket))
    bucket.append((key, token))
    return token


def _pick(best: Any, value: Any, want_max: bool) -> Any:
    """One MIN/MAX step: ``value`` replaces ``best`` if strictly better."""
    if best is None:
        return value
    comparison = compare_values(value, best)
    return value if comparison and (comparison > 0) == want_max else best


def _aggregate(name: str, distinct: bool, values: List[Any]) -> Any:
    """AVG or a DISTINCT aggregate over the group's non-NULL argument
    values, in arrival order."""
    if distinct:
        seen = _RowSet()
        values = [value for value in values if seen.add([value])]
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    result = values[0]
    for value in values[1:]:
        if name == "MIN" or name == "MAX":
            result = _pick(result, value, name == "MAX")
        else:
            result = result + value
    if name != "AVG":
        return result
    if isinstance(result, float):
        return result / len(values)
    return decimal.Decimal(result) / decimal.Decimal(len(values))


def _scanned(rows: int) -> None:
    """Charge ``rows`` visible rows to the statement as rows scanned."""
    _ROWS_SCANNED.increment(rows)
    _stats.note_scan(rows)


def _count(value: Any, clause: str) -> int:
    """A LIMIT or OFFSET value as a row count: a non-negative integer
    (an integral DOUBLE or DECIMAL, or a numeral string, converts).  NULL
    and non-integral values raise :class:`~repro.errors.DataError`, with
    the standard's "invalid row count" SQLSTATE for the clause."""
    state = "2201W" if clause == "LIMIT" else "2201X"
    try:
        number = decimal.Decimal(value.strip()) if isinstance(value, str) \
            else value
        count = int(number)
        integral = count == number
    except (TypeError, ValueError, ArithmeticError):
        integral = False
    if not integral:
        raise errors.DataError(
            f"{clause} must be an integer, not {value!r}", sqlstate=state)
    if count < 0:
        raise errors.DataError(f"{clause} must be non-negative",
                               sqlstate=state)
    return count


# Max-heap primitives for top-N: public from Python 3.14, private before.
_heapify_max = getattr(heapq, "heapify_max", None) or heapq._heapify_max
_heapreplace_max = getattr(heapq, "heapreplace_max", None) \
    or heapq._heapreplace_max

#: Globals of every generated loop (and of the generated DML that
#: inlines :func:`target_loop`).
LOOP_RUNTIME = {**RUNTIME, "sort_key": sort_key,
            "key_image": key_image, "_canonical": _canonical,
            "_join_image": _join_image, "_pick": _pick,
            "_scanned": _scanned, "length_hint": length_hint,
            "_ROWS_SCANNED": _ROWS_SCANNED, "_note_scan": _stats.note_scan,
            "_INDEX_LOOKUPS": _INDEX_LOOKUPS,
            "settled_runs": settled_runs,
            "itemgetter": itemgetter, "_count": _count,
            "_heapify_max": _heapify_max,
            "_heapreplace_max": _heapreplace_max, "_INF": float("inf")}


def generate_plan(root: Operator, plan: Optional["QueryPlan"] = None
                  ) -> None:
    """Compile, with one ``compile()``, the loops of every operator under
    ``root`` that has none yet and does not run inside a consumer's loop
    (:func:`_fused_inputs`), and the callables their expressions need; a
    plan's operators and expressions hold the results.

    Given the ``plan`` whose root ``root`` is, and a root that is a chain
    of Filters and Projects, the chain — and a scan under it — runs
    inside ``plan.collect`` instead of a loop of its own: one function
    appending the rows to a list (:func:`_collector`).  Should anything
    pull the root's rows after all, ``rows`` generates its loop then."""
    parts: List[str] = []
    bindings: Dict[str, Any] = {}
    targets: List[Tuple[Any, str, str]] = []
    fused: set = set()  # nodes whose rows a consumer's loop produces
    if plan is not None and isinstance(root, (Filter, Project)):
        name = fresh()
        text, names, chain = _collector(name, root)
        parts.append(text)
        bindings.update(names)
        targets.append((plan, "collect", name))
        fused.update(map(id, chain))
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(operator_children(node))
        if isinstance(node, _Generated) and node.loop is None \
                and id(node) not in fused:
            name = fresh()
            text, names = node.source(name)
            parts.append(text)
            bindings.update(names)
            targets.append((node, "loop", name))
            fused.update(map(id, _fused_inputs(node)))
        for compiled in node.expressions():
            if compiled._fn is None:
                name = fresh()
                parts.append(compiled.function(name))
                bindings.update(compiled.bindings)
                targets.append((compiled, "_fn", name))
    if parts:
        values = generate("\n".join(parts), bindings, LOOP_RUNTIME)
        for target, attribute, name in targets:
            setattr(target, attribute, values[name])


def _collector(name: str, root: Operator
               ) -> Tuple[str, Dict[str, Any], List[Operator]]:
    """``def name(self, c)`` returning the list of the rows of ``root``
    (``self``), a chain of Filters and Projects, each row a list of its
    own; its bindings; and the nodes it runs inside itself (the chain,
    and a scan under it)."""
    chain: List[Operator] = []
    node, built = root, False
    while isinstance(node, (Filter, Project)):
        chain.append(node)
        built = built or isinstance(node, Project)
        node = node.child
    if isinstance(node, _Scan):
        chain.append(node)
    fragments: List[Compiled] = []
    # A Project's row is a new list; a stored row is copied.
    step = "out.append(r)\n" if built else "out.append(list(r))\n"
    text, names = _function(name, "    out = []\n" + _input(
        "self", root, step, fragments) + "    return out\n", fragments)
    return text, names, chain


def _fused_inputs(node: _Generated) -> List[Operator]:
    """The nodes ``node``'s loop runs inside itself (:func:`_input`):
    below each input, its chain of Filters and Projects and a scan under
    it — with fusion off, only an IndexNestedLoopJoin's probed input.
    Their own loops are generated only if someone pulls them."""
    fused: List[Operator] = []
    inputs = operator_children(node)
    if not node.fuse:
        inputs = [getattr(node, node.build)] \
            if isinstance(node, IndexNestedLoopJoin) else []
    for child in inputs:
        while isinstance(child, (Filter, Project)):
            fused.append(child)
            child = child.child
        if isinstance(child, _Scan):
            fused.append(child)
    return fused


class SingleRow(Operator):
    """Produces exactly one empty row (``SELECT 1`` with no FROM)."""

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        yield []


def _scan_loop(path: str, scan: "_Scan", step: str,
               fragments: List[Compiled]) -> str:
    """Body running ``step`` (source over the row ``r``) on each row the
    reading snapshot sees among the candidates of ``scan``, reached from
    ``self`` as ``path``, :data:`~repro.engine.mvcc.VISIBLE` inlined —
    except, for a SeqScan, on the frozen blocks of its heap copy, whose
    rows every snapshot sees and which are read as they are
    (:func:`~repro.engine.mvcc.settled_runs`, after the snapshot).  An
    equality index probe computes its key right here (its fragments
    added to ``fragments``); other scans call ``candidates``.

    The snapshot is taken (``session.mvcc_txn`` begins the transaction)
    *before* the candidates are read, or a commit landing in between
    would end versions whose replacements the copy lacks.  When the
    loop ends or is abandoned (LIMIT, EXISTS), the candidates consumed
    less the invisible ones are charged as rows scanned."""
    tested = (f"for v in sub:\n    if not ({VISIBLE}):\n"
              f"        hidden += 1\n        continue\n    r = v.row\n"
              + indent(step, 4))
    if scan.blocks:
        loop = ("for stop, frozen, items in settled_runs(vs):\n"
                "    sub = iter(items)\n"
                "    if frozen:\n        for r in sub:\n"
                + indent(step, 12) + "    else:\n" + indent(tested, 8))
        start = "    hidden = stop = 0\n    sub = iter(())\n"
    else:
        loop = tested
        start = "    hidden = 0\n    stop = len(vs)\n    sub = iter(vs)\n"
    return (
        "    t = c.session.mvcc_txn\n    snap = t.snapshot_seq\n"
        f"    me = t.id\n{scan.probe(path, fragments)}{start}    try:\n"
        + indent(loop, 8)
        + "    finally:\n"
        "        n = stop - length_hint(sub) - hidden\n"
        "        _ROWS_SCANNED.increment(n)\n        _note_scan(n)\n"
    )


def _input(path: str, node: Operator, step: str,
           fragments: List[Compiled], fuse: bool = True) -> str:
    """Body running ``step`` (source over the row ``r``) on each row of
    the input ``node``, reached from ``self`` as ``path``.

    Unless ``fuse`` is off, a chain of Filters and Projects is inlined
    (their fragments added to ``fragments``) and a scan below it runs
    its loop right here (:func:`_scan_loop`); any other input is pulled
    through its ``rows``."""
    while fuse and isinstance(node, (Filter, Project)):
        if isinstance(node, Filter):
            step = f"if not ({node.predicate.test}):\n    continue\n{step}"
            fragments.append(node.predicate)
        else:
            values = ", ".join(item.source for item in node.items)
            step = f"r = [{values}]\n{step}"
            fragments.extend(node.items)
        path, node = path + ".child", node.child
    if fuse and isinstance(node, _Scan):
        return _scan_loop(path, node, step, fragments)
    return f"    for r in {path}.rows(c):\n" + indent(step, 8)


def target_loop(path: str, scan: "_Scan", fragments: List[Compiled],
                residual: Optional[Compiled] = None) -> str:
    """Body setting ``ts`` to the versions among the candidates of
    ``scan`` (reached from ``self`` as ``path``) that the snapshot sees,
    in order, charged as rows scanned, then kept if ``residual`` (the
    predicate the access path leaves unenforced) holds: the rows an
    UPDATE or DELETE claims.  :data:`~repro.engine.mvcc.VISIBLE` is
    tested on every version, frozen or not: a claim needs the version,
    not its row.  Reads ``snap`` and ``me``, set by the caller after the
    snapshot is taken (see :func:`_scan_loop`)."""
    text = (scan.probe(path, fragments)
            + f"    ts = []\n    for v in vs:\n        if {VISIBLE}:\n"
            "            ts.append(v)\n"
            "    _ROWS_SCANNED.increment(len(ts))\n    _note_scan(len(ts))\n")
    if residual is None:
        return text
    fragments.append(residual)
    return text + ("    vs = ts\n    ts = []\n    for v in vs:\n"
                   f"        r = v.row\n        if {residual.test}:\n"
                   "            ts.append(v)\n")


class _Scan(_Generated):
    """A base-table scan: the versions :meth:`candidates` reads, through
    the reading snapshot (:func:`_scan_loop`).  The operator consuming
    it, through any Filters and Projects, runs this loop inside its own
    (:func:`_input`)."""

    #: Whether the candidates are a heap copy, whose frozen blocks the
    #: loop may take without the snapshot test.
    blocks = False

    def candidates(self, ctx: RuntimeContext) -> List[Any]:
        """The versions to test, copied out of the heap or index."""
        raise NotImplementedError

    def probe(self, path: str, fragments: List[Compiled]) -> str:
        """Source setting ``vs`` to the candidates, for :func:`_scan_loop`."""
        return f"    vs = {path}.candidates(c)\n"

    def source(self, name: str) -> Tuple[str, Dict[str, Any]]:
        fragments: List[Compiled] = []
        return _function(name, _scan_loop("self", self, "yield r\n",
                                          fragments), fragments)


class SeqScan(_Scan):
    """Full scan over a base table's heap."""

    blocks = True

    def __init__(self, table: Table) -> None:
        self.table = table

    def candidates(self, ctx: RuntimeContext) -> List[Any]:
        # A list() copy, so DML statements reading their own target
        # table (e.g. INSERT INTO t SELECT ... FROM t) terminate, and so
        # concurrent appends by other transactions cannot disturb the
        # iteration (the heap is append-only; claimed/dead versions are
        # filtered by the snapshot, never removed mid-scan).
        return list(self.table.versions)


class IndexScan(_Scan):
    """Probe a secondary index instead of scanning the heap.

    Either an equality probe over the index's full key (``equal`` holds
    one compiled expression per key column, evaluated against the empty
    row — they may reference parameters but no columns) or a range
    probe on a single-column index (``lower``/``upper`` bounds, either
    may be absent).  A bound or probe value evaluating to NULL yields no
    rows: no SQL comparison against NULL is TRUE.
    """

    def __init__(
        self,
        index: Any,
        table: Table,
        equal: Optional[List[Compiled]] = None,
        lower: Optional[Compiled] = None,
        upper: Optional[Compiled] = None,
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
        #: An equality probe of a single-column index on a UNIQUE or
        #: PRIMARY KEY column: its bucket is walked newest-first and
        #: cut at the first visible version another transaction wrote
        #: (:meth:`probe`).
        self.unique = equal is not None and len(index.column_names) == 1 \
            and table.columns[
                table.column_position(index.column_names[0])].unique

    def expressions(self) -> List[Compiled]:
        return [e for e in (self.lower, self.upper) if e is not None]

    def probe(self, path: str, fragments: List[Compiled]) -> str:
        """An equality probe, inlined: the key's fragments evaluated
        against an empty row, then the index lookup under the table's
        mutation lock (writers change the index under it: a rolled back
        insert empties a bucket).  A range probe calls
        :meth:`candidates`."""
        if self.equal is None:
            return super().probe(path, fragments)
        fragments.extend(self.equal)
        key = "".join(f"{item.source}, " for item in self.equal)
        text = ("    _INDEX_LOOKUPS.increment()\n    r = []\n"
                f"    pk = ({key})\n    with {path}.table.mutation_lock:\n")
        if not self.unique:
            return text + f"        vs = list({path}.index.lookup(pk))\n"
        # Of the versions of a unique key that other transactions wrote,
        # at most one is visible to a snapshot: a committed state holds
        # the key once.  The transaction's own writes come later in the
        # bucket and may add one more (it inserted the key after a
        # concurrent delete it still sees).  So the bucket is cut at the
        # newest visible version another transaction wrote; what lies
        # below it is never tested.  Scanning the cut tail keeps bucket
        # order and the rows scanned.
        return text + (
            f"        vs = {path}.index.lookup(pk)\n"
            "        i = len(vs) - 1\n        while i > 0:\n"
            "            v = vs[i]\n"
            f"            if v.xmin != me and {VISIBLE}:\n"
            "                break\n            i -= 1\n"
            "        vs = vs[i:]\n"
        )

    def candidates(self, ctx: RuntimeContext) -> List[Any]:
        """The versions a range probe finds: index buckets hold every
        version, whatever its visibility."""
        _INDEX_LOOKUPS.increment()
        env = ctx.env([])
        lower = upper = None
        if self.lower is not None:
            lower = self.lower.fn(env)
            if lower is None:
                return []
        if self.upper is not None:
            upper = self.upper.fn(env)
            if upper is None:
                return []
        with self.table.mutation_lock:
            return list(self.index.range(
                lower, upper, self.lower_inclusive, self.upper_inclusive,
            ))


class Filter(_Generated):
    """Rows of ``child`` for which ``predicate`` is TRUE.

    ``predicate`` is a compiled predicate, or any callable of the row's
    :class:`~repro.engine.expressions.Env`."""

    def __init__(self, child: Operator, predicate: Any,
                 description: Optional[str] = None) -> None:
        self.child = child
        self.predicate = predicate if isinstance(predicate, Compiled) \
            else Compiled.call(predicate)
        #: Optional SQL rendering of the predicate, for EXPLAIN output.
        self.description = description

    def source(self, name: str) -> Tuple[str, Dict[str, Any]]:
        fragments = [self.predicate]
        return _function(name, _input(
            "self.child", self.child,
            f"if {self.predicate.test}:\n    yield r\n", fragments, self.fuse
        ), fragments)


class Project(_Generated):
    def __init__(self, child: Operator, items: List[Compiled]) -> None:
        self.child = child
        self.items = items

    def source(self, name: str) -> Tuple[str, Dict[str, Any]]:
        values = ", ".join(item.source for item in self.items)
        fragments = list(self.items)
        return _function(name, _input(
            "self.child", self.child, f"yield [{values}]\n", fragments,
            self.fuse), fragments)


class _Join(_Generated):
    """One loop template for the three joins: for each row of the
    streamed input, the candidate rows of the other are paired with it
    and every pair is checked with the full predicate.

    HashJoin and NestedLoopJoin materialise the ``build`` input (and,
    given keys, hash it) by a loop of their own and stream the other;
    IndexNestedLoopJoin streams its outer input and probes an index for
    each row.  Only the kinds that keep unmatched rows pay for tracking
    matches."""

    def __init__(
        self,
        kind: str,
        left: Operator,
        right: Operator,
        predicate: Optional[Compiled],
        left_width: int,
        right_width: int,
        left_keys: Sequence[Compiled] = (),
        right_keys: Sequence[Compiled] = (),
        description: Optional[str] = None,
        build: str = "right",
    ) -> None:
        self.kind = kind
        self.left = left
        self.right = right
        self.predicate = predicate
        self.left_width = left_width
        self.right_width = right_width
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        #: SQL rendering of the join keys, for EXPLAIN output.
        self.description = description
        #: the input that is not streamed: "right" or "left".
        self.build = build

    def source(self, name: str) -> Tuple[str, Dict[str, Any]]:
        build, probe = ("left", "right") if self.build == "left" \
            else ("right", "left")
        pad = {"left": f"[None] * {self.left_width}",
               "right": f"[None] * {self.right_width}"}

        def row(build_part: str, probe_part: str) -> str:
            parts = {build: build_part, probe: probe_part}
            return f"{parts['left']} + {parts['right']}"

        keep_build = self.kind in ("FULL", build.upper())
        keep_probe = self.kind in ("FULL", probe.upper())
        test = self.predicate.test if self.predicate is not None else "True"
        fragments = self.left_keys + self.right_keys + (
            [self.predicate] if self.predicate is not None else [])
        head, candidates = self._candidates(build, probe, fragments)
        step = "q = r\n" + ("hit = False\n" if keep_probe else "") \
            + candidates + indent(
                f"r = {row('b', 'q')}\nif {test}:\n"
                + ("    hit = True\n" if keep_probe else "")
                + ("    matched[i] = True\n" if keep_build else "")
                + "    yield r\n", 4)
        if keep_probe:
            step += f"if not hit:\n    yield {row(pad[build], 'q')}\n"
        if keep_build:
            head += "    matched = [False] * len(build)\n"
        body = head + self._stream(_input(
            f"self.{probe}", getattr(self, probe), step, fragments,
            self.fuse))
        if keep_build:
            body += ("    for i, b in enumerate(build):\n"
                     "        if not matched[i]:\n"
                     f"            yield {row('b', pad[probe])}\n")
        return _function(name, body, fragments)

    def _candidates(self, build: str, probe: str,
                    fragments: List[Compiled]) -> Tuple[str, str]:
        """(body before the streamed input's loop, per-row source over
        the streamed row ``r`` ending in a loop that sets ``b`` to each
        candidate row of the other input — and ``i`` to its position
        in ``build`` — in its body, indented four spaces).

        Here the ``build`` input is materialised into ``build`` and,
        given keys, hashed."""
        keys = {"left": self.left_keys, "right": self.right_keys}
        head = "    build = []\n"
        fill = "build.append(r)\n"
        step = ""
        if self.left_keys:
            build_key, build_null = _hash_key(keys[build], keys[probe])
            probe_key, probe_null = _hash_key(keys[probe], keys[build])
        if self.left_keys and all(
                key.kind == other.kind and key.kind in ("int", "str")
                for key, other in zip(self.left_keys, self.right_keys)):
            # Int and str images always hash, and a NULL is never filed,
            # so a probe is one lookup.
            head += "    buckets = {}\n"
            fill = ("i = len(build)\nbuild.append(r)\n"
                    f"k = {build_key}\nif not ({build_null}):\n"
                    "    buckets.setdefault(k, []).append(i)\n")
            step = f"hits = buckets.get({probe_key}, ())\n"
        elif self.left_keys:
            head += "    buckets = {}\n    loose = []\n"
            fill = (
                "i = len(build)\nbuild.append(r)\n"
                f"try:\n    k = {build_key}\n"
                f"    if {build_null}:\n        continue\n"
                "    buckets.setdefault(k, []).append(i)\n"
                "except TypeError:\n    loose.append(i)\n"
            )
            step = (
                f"try:\n    k = {probe_key}\n"
                f"    hits = loose if {probe_null} else "
                "[*buckets.get(k, ()), *loose] if loose "
                "else buckets.get(k, ())\n"
                "except TypeError:\n    hits = everything\n"
            )
        else:
            step = "hits = everything\n"
        head += _input(f"self.{build}", getattr(self, build), fill,
                       fragments, self.fuse)
        head += "    everything = range(len(build))\n"
        return head, step + "for i in hits:\n    b = build[i]\n"

    def _stream(self, loop: str) -> str:
        """The streamed input's loop as the body runs it."""
        return loop


class NestedLoopJoin(_Join):
    """Nested-loop join supporting INNER/LEFT/RIGHT/FULL/CROSS."""


def _key_image(key: Compiled, kind: Optional[str],
               untyped: str) -> Tuple[str, str]:
    """(temporary, hash image) of a key read into the temporary: a
    provable int itself, a provable str without pad spaces, else
    ``untyped(value)``; the image is None exactly for NULL."""
    temp = fresh()
    read = f"({temp} := {key.source})"
    if kind == "int":
        return temp, read
    if kind == "str":
        return temp, f"({temp}.rstrip(' ') if {read} is not None else None)"
    return temp, f"{untyped}({read})"


def _hash_key(keys: Sequence[Compiled],
              others: Sequence[Compiled]) -> Tuple[str, str]:
    """Hash key of one join input's row ``r``, typed per key when both
    inputs' keys share a kind, and the test that a value of it is NULL."""
    temps, images = zip(*(
        _key_image(key, key.kind if key.kind == other.kind else None,
                   "_join_image")
        for key, other in zip(keys, others)
    ))
    if len(images) == 1:
        return images[0], "k is None"
    return (f"({', '.join(images)})",
            " or ".join(f"{temp} is None" for temp in temps))


class HashJoin(_Join):
    """Hash join on equality keys, for INNER/LEFT/RIGHT/FULL joins.

    ``left_keys`` / ``right_keys`` read their own input's row; a key is
    hashed natively when both its sides are provably int (or str, pad
    spaces stripped), else by its :func:`sort_key` image, as SQL ``=``
    compares.  The hash table only picks *candidates*: each pair is
    checked with the full ON ``predicate``, so results equal a
    :class:`NestedLoopJoin`'s; a key that cannot be hashed (an exotic
    Part 2 object) is probed linearly.  ``build`` names the hashed input
    (``"right"``, or ``"left"`` when the cost-based planner finds it
    smaller); output columns are ``left + right`` either way.
    """


class IndexNestedLoopJoin(_Join):
    """Index nested-loop join (the planner builds it for INNER joins).

    ``build`` names the probed input: Filters (its pushed conjuncts)
    over an :class:`IndexScan` that names the index and table and
    probes nothing itself.  For each row of the other, outer input, the
    loop looks ``probe_keys`` (over the outer row, one per index column)
    up in that index, copying the bucket under the table's mutation
    lock as IndexScan does, tests each version with
    :data:`~repro.engine.mvcc.VISIBLE` under the one snapshot taken
    before either input is read, applies the Filters and checks the
    pair with the full predicate: the index only picks candidates, as a
    hash table does.  The probed input runs inside this loop even when
    fusion is off, so EXPLAIN ANALYZE counts no rows for it.
    """

    def __init__(
        self,
        kind: str,
        left: Operator,
        right: Operator,
        predicate: Optional[Compiled],
        left_width: int,
        right_width: int,
        probe_keys: Sequence[Compiled],
        description: Optional[str] = None,
        build: str = "right",
    ) -> None:
        super().__init__(kind, left, right, predicate, left_width,
                         right_width, description=description, build=build)
        self.probe_keys = list(probe_keys)

    def _candidates(self, build: str, probe: str,
                    fragments: List[Compiled]) -> Tuple[str, str]:
        path, node = f"self.{build}", getattr(self, build)
        tests = ""
        while isinstance(node, Filter):
            tests = (f"    if not ({node.predicate.test}):\n"
                     "        continue\n") + tests
            fragments.append(node.predicate)
            path, node = path + ".child", node.child
        fragments.extend(self.probe_keys)
        head = ("    t = c.session.mvcc_txn\n    snap = t.snapshot_seq\n"
                f"    me = t.id\n    lookup = {path}.index.lookup\n"
                f"    lock = {path}.table.mutation_lock\n"
                "    seen = probes = 0\n")
        keys = "".join(f"{key.source}, " for key in self.probe_keys)
        step = ("probes += 1\nwith lock:\n"
                f"    found = list(lookup(({keys})))\n"
                f"for v in found:\n    if not ({VISIBLE}):\n"
                "        continue\n    seen += 1\n    r = v.row\n"
                + tests + "    b = r\n")
        return head, step

    def _stream(self, loop: str) -> str:
        return ("    try:\n" + indent(loop, 4) + "    finally:\n"
                "        _scanned(seen)\n"
                "        _INDEX_LOOKUPS.increment(probes)\n")


def _order_image(key: Compiled, ascending: bool) -> str:
    """One ORDER BY key's image, an expression over ``r`` ordering as the
    key sorts: a provable int itself (or negated for DESC), NULL as
    +inf (ASC: last) or -inf (DESC: first); a provable str without pad
    spaces, after a NULLs-last flag; anything else its sort_key."""
    temp = fresh()
    read = f"({temp} := {key.source})"
    if key.kind == "int":
        sign = "" if ascending else "-"
        return f"({sign}{temp} if {read} is not None else {sign}_INF)"
    if key.kind == "str":
        return (f"({read} is None, {temp}.rstrip(' ') if {temp} is not None "
                "else '')")
    return f"sort_key({key.source})"


class Sort(_Generated):
    """ORDER BY: ``keys`` are (compiled key, ascending) pairs.

    Keys that compose into one image — ascending, or DESC over provable
    ints (:func:`_order_image`) — sort in one stable pass over rows
    decorated inside the input's loop.  Under a LIMIT (``limit`` and
    ``offset`` set by the planner) that loop keeps only the first
    offset + limit + 1 rows, which is all the Limit above ever pulls, in
    a bounded max-heap: a row whose leading image is worse than the
    kept worst is dropped before the rest of its key is built, and
    arrival order breaks ties.  Any other key list sorts once per key,
    right to left, stably.
    """

    def __init__(self, child: Operator,
                 keys: List[Tuple[Compiled, bool]]) -> None:
        self.child = child
        self.keys = keys
        self.limit: Optional[Compiled] = None
        self.offset: Optional[Compiled] = None

    def source(self, name: str) -> Tuple[str, Dict[str, Any]]:
        fragments = [key for key, _ in self.keys]

        def rows(step: str) -> str:
            return _input("self.child", self.child, step, fragments,
                          self.fuse)

        if not all(ascending or key.kind == "int"
                   for key, ascending in self.keys):
            images = "".join(f"sort_key({key.source}), "
                             for key, _ in self.keys)
            body = "    rows = []\n" + rows(f"rows.append(({images}r))\n")
            for at, (_key, ascending) in reversed(list(enumerate(self.keys))):
                body += (f"    rows.sort(key=itemgetter({at}), "
                         f"reverse={not ascending})\n")
            body += "    for d in rows:\n        yield d[-1]\n"
            return _function(name, body, fragments)
        images = [_order_image(key, ascending)
                  for key, ascending in self.keys]
        if self.limit is None:
            key = images[0] if len(images) == 1 \
                else f"({', '.join(images)})"
            body = "    rows = []\n" + rows(f"rows.append(({key}, r))\n")
            body += ("    rows.sort(key=itemgetter(0))\n"
                     "    for d in rows:\n        yield d[1]\n")
            return _function(name, body, fragments)
        fragments += [e for e in (self.limit, self.offset) if e is not None]
        offset = f"_count({self.offset.source}, 'OFFSET')" \
            if self.offset else "0"
        if len(images) == 1:
            step, worst = f"k = {images[0]}\n", ""
        else:
            step = (f"lead = {images[0]}\nif full and lead > worst:\n"
                    f"    continue\nk = (lead, {', '.join(images[1:])})\n")
            worst = "worst = top[0]\n"
        step += (
            "if full:\n    if k >= top:\n        continue\n"
            "    _heapreplace_max(heap, (k, o, r))\n"
            "else:\n    heap.append((k, o, r))\n"
            "    if len(heap) < bound:\n        o += 1\n        continue\n"
            "    _heapify_max(heap)\n    full = True\n"
            f"top = heap[0][0]\n{worst}o += 1\n"
        )
        body = (f"    bound = _count({self.limit.source}, 'LIMIT') + {offset}"
                " + 1\n    heap = []\n    full = False\n    o = 0\n"
                + rows(step)
                + "    heap.sort()\n    for d in heap:\n        yield d[2]\n")
        return _function(name, body, fragments)


class Limit(Operator):
    def __init__(self, child: Operator, limit: Optional[Compiled],
                 offset: Optional[Compiled]) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset

    def expressions(self) -> List[Compiled]:
        return [e for e in (self.limit, self.offset) if e is not None]

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        empty_env = ctx.env([])
        remaining = None
        if self.limit is not None:
            remaining = _count(self.limit.fn(empty_env), "LIMIT")
        to_skip = 0
        if self.offset is not None:
            to_skip = _count(self.offset.fn(empty_env), "OFFSET")
        for row in self.child.rows(ctx):
            if to_skip > 0:
                to_skip -= 1
                continue
            if remaining is not None:
                if remaining == 0:
                    return
                remaining -= 1
            yield row


class _RowSet:
    """Duplicate detector tolerating unhashable (Part 2 object) values."""

    def __init__(self) -> None:
        self._seen: set = set()
        self._buckets: Dict[tuple, list] = {}

    def add(self, row: Sequence[Any]) -> bool:
        """Add the row; returns True if it was new."""
        key = tuple(key_image(v) for v in row)
        try:
            if key in self._seen:
                return False
        except TypeError:
            key = _canonical(self._buckets, key)
            if key in self._seen:
                return False
        self._seen.add(key)
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


#: One aggregate to compute: its name, compiled argument (None for
#: COUNT(*)) and DISTINCT flag.
AggregateSpec = collections.namedtuple(
    "AggregateSpec", ["name", "argument", "distinct"]
)


class GroupAggregate(_Generated):
    """Hash aggregation: one output row of ``group-key values ++
    aggregate results`` per group.  With no GROUP BY keys an empty input
    still forms one group (COUNT = 0, SUM = NULL), per SQL.

    A group's state is a list: its key values, then a slot per aggregate.
    COUNT, SUM, MIN and MAX update their slot inline (MIN/MAX natively
    over provable ints or strings); AVG and DISTINCT aggregates collect
    values for :func:`_aggregate`.
    """

    def __init__(self, child: Operator, keys: List[Compiled],
                 aggregates: List[AggregateSpec]) -> None:
        self.child = child
        self.keys = keys
        self.aggregates = aggregates

    def source(self, name: str) -> Tuple[str, Dict[str, Any]]:
        temps, images = [], []
        for key in self.keys:
            temp, image = _key_image(key, key.kind, "key_image")
            temps.append(temp)
            images.append(image)
        state, updates, finals = list(temps), [], []
        bindings: Dict[str, Any] = {}
        for spec in self.aggregates:
            slot, arg, temp = f"s[{len(state)}]", spec.argument, fresh()
            read = f"({temp} := {arg.source}) is not None" if arg else "True"
            finals.append(slot)
            if spec.distinct or spec.name == "AVG":
                state.append("[]")
                updates.append(f"if {read}: {slot}.append({temp})")
                finish = fresh()
                bindings[finish] = functools.partial(
                    _aggregate, spec.name, spec.distinct
                )
                finals[-1] = f"{finish}({slot})"
            elif spec.name == "COUNT":
                state.append("0")
                updates.append(f"if {read}: {slot} += 1")
            elif spec.name == "SUM":
                state.append("None")
                updates.append(f"if {read}: {slot} = {temp} if {slot} is None"
                               f" else {slot} + {temp}")
            elif arg.kind in ("int", "str"):  # typed MIN/MAX
                state.append("None")
                op = "<" if spec.name == "MIN" else ">"
                strip = ".rstrip(' ')" if arg.kind == "str" else ""
                updates.append(f"if {read} and ({slot} is None or {temp}"
                               f"{strip} {op} {slot}{strip}): {slot} = {temp}")
            else:
                state.append("None")
                updates.append(f"if {read}: {slot} = _pick({slot}, {temp}, "
                               f"{spec.name == 'MAX'})")
        init = f"[{', '.join(state)}]"
        single = len(images) == 1
        key = images[0] if single \
            else f"({''.join(i + ', ' for i in images)})"
        step = (
            f"k = {key}\n"
            "try:\n    s = groups.get(k)\n"
            "except TypeError:\n"
            f"    k = _canonical(loose, {'(k,)' if single else 'k'})\n"
            "    s = groups.get(k)\n"
            f"if s is None:\n    s = groups[k] = {init}\n"
            + "".join(f"{update}\n" for update in updates)
        )
        fragments = self.keys + [spec.argument for spec in self.aggregates
                                 if spec.argument is not None]
        body = "    groups = {}\n    loose = {}\n" + _input(
            "self.child", self.child, step, fragments, self.fuse)
        if not self.keys:
            body += f"    if not groups:\n        groups[()] = {init}\n"
        plain = finals == [f"s[{i}]" for i in range(len(temps), len(state))]
        output = "s" if plain else f"s[:{len(temps)}] + [{', '.join(finals)}]"
        body += f"    for s in groups.values():\n        yield {output}\n"
        return _function(name, body, fragments, bindings)


class UnionOp(Operator):
    """UNION / INTERSECT / EXCEPT, with or without ALL.

    Bag semantics for the ALL variants follow the SQL standard:
    INTERSECT ALL keeps min(m, n) duplicates, EXCEPT ALL keeps
    max(m - n, 0).  ``casts`` holds, per branch, the descriptor each
    column's values are cast to (None: already of the result type), so
    rows of both branches compare, group and deduplicate alike.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        all_rows: bool,
        op: str = "UNION",
        casts: Sequence[Optional[List[Optional[TypeDescriptor]]]]
        = (None, None),
    ):
        self.left = left
        self.right = right
        self.all_rows = all_rows
        self.op = op
        self.casts = casts

    @staticmethod
    def _key(row: Sequence[Any]) -> tuple:
        return tuple(key_image(v) for v in row)

    def _branch(self, index: int, ctx: RuntimeContext) -> Iterator[List[Any]]:
        rows = (self.left, self.right)[index].rows(ctx)
        casts = self.casts[index]
        if not casts:
            return rows
        return (
            [v if d is None else d.coerce(v) for v, d in zip(row, casts)]
            for row in rows
        )

    def rows(self, ctx: RuntimeContext) -> Iterator[List[Any]]:
        if self.op == "UNION":
            seen = _RowSet()
            for index in (0, 1):
                for row in self._branch(index, ctx):
                    if self.all_rows or seen.add(row):
                        yield row
            return
        counts = collections.Counter(
            self._key(row) for row in self._branch(1, ctx)
        )
        keep = self.op == "INTERSECT"  # else EXCEPT
        emitted = set()
        for row in self._branch(0, ctx):
            key = self._key(row)
            present = counts[key] > 0
            if self.all_rows:
                if present:
                    counts[key] -= 1
                if present == keep:
                    yield row
            elif present == keep and key not in emitted:
                emitted.add(key)
                yield row


# ---------------------------------------------------------------------------
# Plan introspection and instrumentation
# ---------------------------------------------------------------------------


def operator_children(operator: Operator) -> List[Operator]:
    """The operator's input operators, in plan order."""
    if isinstance(operator, (UnionOp, _Join)):
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
    inline: set = set()  # nodes a consumer runs inside its loop anyway
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, _Generated):
            # Regenerated unfused on first use, so every node's rows
            # pass through its wrapper.
            node.fuse, node.loop = False, None
            inline.update(map(id, _fused_inputs(node)))
        if id(node) not in inline:
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
    """A compiled query: root operator plus output shape.  Building one
    generates its operators' loops (:func:`generate_plan`)."""

    def __init__(self, root: Operator, shape: RowShape,
                 collect: bool = False) -> None:
        self.root = root
        self.shape = shape
        #: ``collect(root, c)``, the list of the root's rows, when the
        #: plan was built to ``collect`` and its root is a chain of
        #: Filters and Projects (:func:`generate_plan`).
        self.collect: Any = None
        generate_plan(root, self if collect else None)

    def run(
        self, session: Any, params: Sequence[Any] = ()
    ) -> List[List[Any]]:
        """Execute and materialise all rows, each a list of its own."""
        faultpoints.trigger("executor.run")
        ctx = Env((), params, None, session)
        try:
            collect = self.collect
            if collect is not None:
                return collect(self.root, ctx)
            return [list(row) for row in self.root.rows(ctx)]
        except errors.SQLException:
            raise
        except Exception as exc:
            raise _wrap_operator_error(exc) from exc

    def run_correlated(
        self, outer_env: Env, limit: Optional[int] = None
    ) -> List[List[Any]]:
        """Execute as a correlated subquery of ``outer_env``'s row, on
        the session running that row."""
        ctx = Env((), outer_env.params, outer_env, outer_env.session)
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
