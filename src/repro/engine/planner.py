"""Query planner: AST → compiled operator tree.

Responsible for name resolution (FROM-clause shapes, select-list aliases,
star expansion), aggregate rewriting (GROUP BY keys and aggregate calls
become columns of an intermediate shape), ORDER BY alias/position
substitution, and privilege checks on referenced relations.

Five rewrites build the fast path:

* **predicate pushdown** — WHERE conjuncts are routed to the deepest
  operator that can evaluate them: onto individual scans, through the
  projections of simple derived tables, and into the inputs of joins
  (with the standard outer-join restrictions: only the non-null-padded
  side of an outer join may be filtered early);
* **index selection** — a pushed-down sargable conjunct (``col = v``,
  ``col < v``, ``col BETWEEN a AND b`` …) over an indexed column turns
  its SeqScan into an :class:`IndexScan` point/range probe — the one
  access-path choice, which UPDATE/DELETE targets share
  (:func:`plan_target`);
* **hash joins** — equality join conjuncts whose two sides come from
  the two join inputs (from ON or from pushed WHERE conjuncts) become
  :class:`HashJoin` keys; non-equi joins and type-incompatible keys
  fall back to :class:`NestedLoopJoin`;
* **index nested-loop joins** — with statistics on both inputs, an
  INNER join whose one input scans a table with an index its keys
  fully equate probes that index once per row of the other input
  (:class:`IndexNestedLoopJoin`) when that costs less than hashing;
* **derived key probes** — an inner join on ``a = b`` with ``a = k``
  (a literal or ``?``) pushed into one input also pushes ``b = k``
  into the other, so an index on ``b`` probes instead of scanning.

Costing is driven by ``ANALYZE`` statistics (see ``_table_stats``):
with them the planner costs seqscan-vs-IndexScan, the HashJoin build
side, hashing against probing an index, and the join order; without
them it makes fixed choices — an index probe always wins, the hash
table is built on the right, FROM order is kept.  The plan depends only on what the planner observes (statistics,
usable indexes, hash-compatible equi-join keys); there are no switches.
Plans are deterministic for the benchmark harness.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from repro import errors
from repro.engine import ast
from repro.engine.catalog import Table, View
from repro.engine.executor import (
    AggregateSpec,
    Distinct,
    Filter,
    GroupAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    Limit,
    NestedLoopJoin,
    Operator,
    Project,
    QueryPlan,
    SeqScan,
    SingleRow,
    Sort,
    UnionOp,
)
from repro.engine.expressions import (
    ColumnInfo,
    Compiled,
    Env,
    ExpressionCompiler,
    RowShape,
    kind_of,
)
from repro.engine.virtual import VirtualScan, VirtualTable
from repro.sqltypes import (
    DecimalType,
    DoubleType,
    IntegerType,
    TypeDescriptor,
    common_supertype,
)
from repro.sqltypes import typecodes

__all__ = [
    "plan_query",
    "plan_target",
    "table_shape",
    "COST_SEQ_IO",
    "COST_RANDOM_IO",
]

#: Cost units, after the classic System R shape: touching a row in heap
#: order costs 1, touching a row through an index costs 4 (the probe is
#: "random I/O" — bucket lookup plus version-chain chase).  The absolute
#: numbers only matter relative to each other; the seqscan-vs-IndexScan
#: crossover sits at selectivity = COST_SEQ_IO / COST_RANDOM_IO = 25%.
COST_SEQ_IO = 1.0
COST_RANDOM_IO = 4.0

#: Selectivity guessed for predicates statistics cannot estimate.
_GUESS_SELECTIVITY = 1.0 / 3.0

#: Building a hash-table entry costs about twice probing one; this is
#: the asymmetry that makes the smaller input the better build side.
_HASH_BUILD_FACTOR = 2.0


def _conjuncts_summary(
    conjuncts: Sequence[ast.Expression],
) -> Optional[str]:
    """EXPLAIN text for exactly the conjuncts an operator enforces, each
    rendered as SQL cut to 60 characters (None: nothing renders).

    Built per-operator so a pushed-down predicate is summarised on the
    operator it actually landed on, not on the WHERE clause's original
    position.
    """
    from repro.engine.render import render_expression

    parts = []
    for conjunct in conjuncts:
        try:
            text = render_expression(conjunct)
        except errors.SQLException:
            continue
        parts.append(text if len(text) <= 60 else text[:57] + "...")
    return " AND ".join(parts) or None


def table_shape(table: Table, alias: Optional[str] = None) -> RowShape:
    """Row shape of a base table (optionally under an alias)."""
    qualifier = alias or table.name
    # A virtual table's producer is not held to its declared types.
    exact = not isinstance(table, VirtualTable)
    return RowShape(
        [
            ColumnInfo(qualifier, column.name, column.descriptor,
                       kind_of(column.descriptor) if exact else None)
            for column in table.columns
        ]
    )


# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------

_SUBQUERY_FIELDS = (ast.ScalarSubquery, ast.Exists, ast.InSubquery)


def _walk(node: Any, visit: Callable[[ast.Node], bool]) -> None:
    """Depth-first walk; ``visit`` returns False to stop descending.

    Does not descend into nested query expressions — their aggregates and
    references belong to the inner query level.
    """
    if not isinstance(node, ast.Node):
        return
    if not visit(node):
        return
    if isinstance(node, _SUBQUERY_FIELDS):
        return
    if not dataclasses.is_dataclass(node):
        return
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, ast.Node):
            _walk(value, visit)
        elif isinstance(value, list):
            for item in value:
                _walk(item, visit)


def _transform(
    node: Any, replace: Callable[[ast.Node], Optional[ast.Node]]
) -> Any:
    """Bottom-up-ish rewrite: ``replace`` may substitute any node."""
    if not isinstance(node, ast.Node):
        return node
    replacement = replace(node)
    if replacement is not None:
        return replacement
    if isinstance(node, _SUBQUERY_FIELDS) or not dataclasses.is_dataclass(
        node
    ):
        return node
    changes = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, ast.Node):
            new_value = _transform(value, replace)
            if new_value is not value:
                changes[field.name] = new_value
        elif isinstance(value, list):
            new_list = [
                _transform(item, replace) if isinstance(item, ast.Node)
                else item
                for item in value
            ]
            if any(a is not b for a, b in zip(new_list, value)):
                changes[field.name] = new_list
    if changes:
        return dataclasses.replace(node, **changes)
    return node


def _collect_aggregates(node: Any, found: List[ast.AggregateCall]) -> None:
    def visit(candidate: ast.Node) -> bool:
        if isinstance(candidate, ast.AggregateCall):
            if not any(candidate == existing for existing in found):
                found.append(candidate)
            return False
        return True

    _walk(node, visit)


def _contains_aggregate(node: Any) -> bool:
    found: List[ast.AggregateCall] = []
    _collect_aggregates(node, found)
    return bool(found)


# ---------------------------------------------------------------------------
# Predicate pushdown: conjunct splitting and source attribution
# ---------------------------------------------------------------------------


def _split_conjuncts(expression: ast.Expression) -> List[ast.Expression]:
    """Flatten a predicate's top-level AND chain into conjuncts."""
    if isinstance(expression, ast.Binary) and expression.op == "AND":
        return _split_conjuncts(expression.left) + _split_conjuncts(
            expression.right
        )
    return [expression]


def _and_all(conjuncts: Sequence[ast.Expression]) -> ast.Expression:
    expression = conjuncts[0]
    for conjunct in conjuncts[1:]:
        expression = ast.Binary("AND", expression, conjunct)
    return expression


class _Scope:
    """Name footprint of one FROM item, computed without planning it."""

    __slots__ = ("aliases", "columns", "opaque")

    def __init__(
        self, aliases: Set[str], columns: Set[str], opaque: bool
    ) -> None:
        self.aliases = aliases
        self.columns = columns
        # An opaque scope's column set is unknown (star-expanding derived
        # table, unresolvable relation …): unqualified names can never be
        # attributed with confidence while one is present.
        self.opaque = opaque


def _query_output_names(query: ast.Node) -> Optional[List[str]]:
    """Output column names of a query expression, or None if unknown."""
    if isinstance(query, ast.SetOperation):
        return _query_output_names(query.left)
    if not isinstance(query, ast.Select):
        return None
    names: List[str] = []
    for position, item in enumerate(query.items):
        if not isinstance(item, ast.SelectItem):
            return None  # star expansion needs the inner shape
        names.append(_output_name(item.expression, item.alias, position))
    return names


def _ref_scope(ref: ast.TableRef, session: Any) -> _Scope:
    if isinstance(ref, ast.TableName):
        alias = ref.alias or ref.name
        try:
            relation = session.catalog.get_relation(ref.name)
        except errors.SQLException:
            # Planning the item will raise the real error; until then the
            # scope is opaque so nothing is routed by guesswork.
            return _Scope({alias}, set(), True)
        if isinstance(relation, View):
            names = relation.column_names or _query_output_names(
                relation.query
            )
            if names is None:
                return _Scope({alias}, set(), True)
            return _Scope({alias}, set(names), False)
        return _Scope({alias}, {c.name for c in relation.columns}, False)
    if isinstance(ref, ast.SubqueryRef):
        names = _query_output_names(ref.query)
        if names is None:
            return _Scope({ref.alias}, set(), True)
        return _Scope({ref.alias}, set(names), False)
    if isinstance(ref, ast.Join):
        left = _ref_scope(ref.left, session)
        right = _ref_scope(ref.right, session)
        return _Scope(
            left.aliases | right.aliases,
            left.columns | right.columns,
            left.opaque or right.opaque,
        )
    return _Scope(set(), set(), True)


def _attribute_column(
    ref: ast.ColumnRef, scopes: Sequence[_Scope]
) -> Optional[int]:
    """Index of the single scope providing ``ref``, else None.

    None means "cannot attribute": an outer reference, an ambiguous
    name, or a name that an opaque scope might also provide.  Such
    conjuncts stay where the original planner would have evaluated them,
    preserving ambiguity errors.
    """
    if ref.table is not None:
        matches = [
            i for i, s in enumerate(scopes) if ref.table in s.aliases
        ]
        return matches[0] if len(matches) == 1 else None
    matches = [i for i, s in enumerate(scopes) if ref.name in s.columns]
    if len(matches) != 1:
        return None
    if any(s.opaque for i, s in enumerate(scopes) if i != matches[0]):
        return None
    return matches[0]


def _reads_only(
    expr: ast.Expression, scopes: Sequence[_Scope], items: Set[int]
) -> bool:
    """True when ``expr`` reads some of the FROM ``items`` and no other."""
    sources, routable = _conjunct_sources(expr, scopes)
    return routable and bool(sources) and sources <= items


def _conjunct_sources(
    conjunct: ast.Expression, scopes: Sequence[_Scope]
) -> Tuple[Set[int], bool]:
    """(scope indexes referenced, routable?) for one conjunct.

    Subqueries make a conjunct unroutable: they may be correlated with
    any FROM item, so it is evaluated where the original planner would
    have put it.
    """
    sources: Set[int] = set()
    routable = True

    def visit(node: ast.Node) -> bool:
        nonlocal routable
        if isinstance(node, _SUBQUERY_FIELDS):
            routable = False
            return False
        if isinstance(node, ast.ColumnRef):
            index = _attribute_column(node, scopes)
            if index is None:
                routable = False
            else:
                sources.add(index)
        return True

    _walk(conjunct, visit)
    return sources, routable


# ---------------------------------------------------------------------------
# Index selection and type-family gates
# ---------------------------------------------------------------------------


def _type_family(descriptor: Optional[TypeDescriptor]) -> Optional[Any]:
    code = getattr(descriptor, "type_code", None)
    if code is None:
        return None
    if code == typecodes.BOOLEAN or typecodes.is_numeric(code):
        return "numeric"  # booleans hash and compare as 0/1
    if typecodes.is_character(code):
        return "character"
    if code in (typecodes.PY_OBJECT, typecodes.STRUCT, typecodes.OTHER):
        return None  # no reliable hash or total order
    return code  # temporal/binary families: exact code match only


def _compatible_families(
    left: Optional[TypeDescriptor], right: Optional[TypeDescriptor]
) -> bool:
    """True when values of the two types compare without InvalidCastError.

    :func:`repro.sqltypes.compare_values` *raises* for mismatched scalar
    domains (``1 = 'one'``), so an index probe or hash-join key may only
    replace per-row evaluation when the families are known compatible —
    otherwise the rewrite would silently swallow the error.
    """
    lf, rf = _type_family(left), _type_family(right)
    return lf is not None and lf == rf


def _is_probe_expression(expr: ast.Expression) -> bool:
    """True when ``expr`` can be evaluated once, before the scan starts
    (no column references, subqueries, or aggregates)."""
    ok = True

    def visit(node: ast.Node) -> bool:
        nonlocal ok
        if isinstance(
            node, (ast.ColumnRef, ast.AggregateCall) + _SUBQUERY_FIELDS
        ):
            ok = False
            return False
        return True

    _walk(expr, visit)
    return ok


def _bare_column_position(
    expr: ast.Expression, shape: RowShape
) -> Optional[int]:
    if not isinstance(expr, ast.ColumnRef):
        return None
    try:
        return shape.find(expr.name, expr.table)
    except errors.SQLException:  # pragma: no cover - single-table shape
        return None


_FLIPPED_OPS = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _sargable_forms(
    conjunct: ast.Expression, shape: RowShape
) -> List[Tuple[int, str, ast.Expression]]:
    """Decompose ``conjunct`` into index-probe forms, if possible.

    Returns ``[(column_position, op, value_expr), ...]`` where every
    entry must be honoured together for the conjunct to be consumed
    (BETWEEN contributes a lower and an upper bound), or ``[]`` when the
    conjunct is not sargable.
    """
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        position = _bare_column_position(conjunct.operand, shape)
        if (
            position is not None
            and _is_probe_expression(conjunct.low)
            and _is_probe_expression(conjunct.high)
        ):
            return [
                (position, ">=", conjunct.low),
                (position, "<=", conjunct.high),
            ]
        return []
    if not isinstance(conjunct, ast.Binary):
        return []
    if conjunct.op not in ("=", "<", "<=", ">", ">="):
        return []
    for column_side, value_side, op in (
        (conjunct.left, conjunct.right, conjunct.op),
        (conjunct.right, conjunct.left, _FLIPPED_OPS[conjunct.op]),
    ):
        position = _bare_column_position(column_side, shape)
        if position is not None and _is_probe_expression(value_side):
            return [(position, op, value_side)]
    return []


def _probe_type_ok(
    column_descriptor: TypeDescriptor,
    value_expr: ast.Expression,
    compiled: Compiled,
) -> bool:
    if isinstance(value_expr, ast.Parameter):
        # Runtime-typed: a mistyped parameter makes the probe empty
        # rather than raising the per-row InvalidCastError a Filter
        # would (the tolerance SQLite shows).  See docs/PERFORMANCE.md.
        return True
    return _compatible_families(column_descriptor, compiled.descriptor)


# ---------------------------------------------------------------------------
# Cost model (ANALYZE statistics)
# ---------------------------------------------------------------------------


def _table_stats(session: Any, table: Table) -> Any:
    """``TableStatistics`` for ``table`` or None if never ANALYZEd."""
    return session.catalog.get_statistics(table.name)


def _annotate(
    operator: Operator,
    rows: Optional[float],
    cost: Optional[float],
) -> Operator:
    """Leave the cost model's estimates on the operator for EXPLAIN."""
    if rows is not None:
        operator.estimated_rows = float(rows)
    if cost is not None:
        operator.estimated_cost = float(cost)
    return operator


def _estimated(operator: Operator) -> Tuple[Optional[float], Optional[float]]:
    return (
        getattr(operator, "estimated_rows", None),
        getattr(operator, "estimated_cost", None),
    )


def _rejected_alternative(
    operator: Operator,
    description: str,
    cost: Optional[float],
    rows: Optional[float] = None,
    reason: str = "higher estimated cost",
) -> None:
    from repro.engine.explain import PlanAlternative

    alternatives = getattr(operator, "rejected", None)
    if alternatives is None:
        alternatives = []
        operator.rejected = alternatives
    alternatives.append(
        PlanAlternative(
            description=description,
            estimated_cost=cost,
            estimated_rows=rows,
            reason=reason,
        )
    )


def _conjunct_selectivity(
    stats: Any,
    table: Table,
    shape: RowShape,
    conjunct: ast.Expression,
) -> float:
    """Estimated fraction of rows satisfying ``conjunct``."""
    forms = _sargable_forms(conjunct, shape)
    if not forms:
        return _GUESS_SELECTIVITY
    selectivity = 1.0
    for position, op, value_expr in forms:
        column = stats.column(table.columns[position].name)
        if column is None:
            selectivity *= _GUESS_SELECTIVITY
        elif op == "=":
            selectivity *= column.eq_selectivity()
        elif isinstance(value_expr, ast.Literal):
            selectivity *= column.range_selectivity(op, value_expr.value)
        else:
            selectivity *= _GUESS_SELECTIVITY
    return min(max(selectivity, 1e-9), 1.0)


def _conjuncts_selectivity(
    stats: Any,
    table: Table,
    shape: RowShape,
    conjuncts: Sequence[ast.Expression],
) -> float:
    selectivity = 1.0
    for conjunct in conjuncts:
        selectivity *= _conjunct_selectivity(stats, table, shape, conjunct)
    return selectivity


def _try_index_scan(
    scan: SeqScan,
    shape: RowShape,
    conjuncts: List[ast.Expression],
    session: Any,
    outer: Optional[ExpressionCompiler],
) -> Tuple[Operator, List[ast.Expression]]:
    """Replace a SeqScan with an IndexScan if the conjuncts allow it.

    Returns the (possibly unchanged) scan operator and the conjuncts a
    Filter above it must still enforce.
    """
    table = scan.table
    compiler = ExpressionCompiler(RowShape([]), session, outer)
    equalities: dict = {}  # column position -> (probe value, conjunct)
    ranges: dict = {}  # column position -> [(op, bound, conjunct)]
    for conjunct in conjuncts:
        forms = _sargable_forms(conjunct, shape)
        if not forms:
            continue
        prepared = []
        for position, op, value_expr in forms:
            try:
                compiled = compiler.compile(value_expr)
            except errors.SQLException:
                prepared = None
                break
            descriptor = table.columns[position].descriptor
            if not _probe_type_ok(descriptor, value_expr, compiled):
                prepared = None
                break
            prepared.append((position, op, compiled))
        if prepared is None:
            continue
        for position, op, probe in prepared:
            if op == "=":
                equalities.setdefault(position, (probe, conjunct))
            else:
                ranges.setdefault(position, []).append((op, probe, conjunct))

    # Full-key equality probe: every index column pinned by `col = v`.
    for index in table.indexes:
        positions = [table.column_position(n) for n in index.column_names]
        if not all(p in equalities for p in positions):
            continue
        used_ids = {id(equalities[p][1]) for p in positions}
        used = [c for c in conjuncts if id(c) in used_ids]
        remaining = [c for c in conjuncts if id(c) not in used_ids]
        operator = IndexScan(
            index,
            table,
            equal=[equalities[p][0] for p in positions],
            description=_conjuncts_summary(used),
        )
        return operator, remaining

    # Range probe over a single-column index.
    for index in table.indexes:
        if len(index.column_names) != 1:
            continue
        position = table.column_position(index.column_names[0])
        entries = ranges.get(position)
        if not entries:
            continue
        lower = upper = None
        lower_inclusive = upper_inclusive = True
        used: List[ast.Expression] = []
        for conjunct in conjuncts:
            forms = [
                (op, probe) for op, probe, c in entries if c is conjunct
            ]
            if not forms:
                continue
            needs_lower = any(op in (">", ">=") for op, _ in forms)
            needs_upper = any(op in ("<", "<=") for op, _ in forms)
            # A conjunct is consumed only if all of its bounds fit the
            # one slot each the probe offers (first bound wins; extra
            # bounds stay in the Filter).
            if (needs_lower and lower is not None) or (
                needs_upper and upper is not None
            ):
                continue
            for op, probe in forms:
                if op == ">":
                    lower, lower_inclusive = probe, False
                elif op == ">=":
                    lower, lower_inclusive = probe, True
                elif op == "<":
                    upper, upper_inclusive = probe, False
                else:
                    upper, upper_inclusive = probe, True
            used.append(conjunct)
        if lower is None and upper is None:
            continue
        remaining = [
            c for c in conjuncts if not any(c is u for u in used)
        ]
        operator = IndexScan(
            index,
            table,
            lower=lower,
            upper=upper,
            lower_inclusive=lower_inclusive,
            upper_inclusive=upper_inclusive,
            description=_conjuncts_summary(used),
        )
        return operator, remaining

    return scan, conjuncts


def _access_path(
    scan: SeqScan,
    shape: RowShape,
    conjuncts: List[ast.Expression],
    session: Any,
    outer: Optional[ExpressionCompiler],
) -> Tuple[Operator, List[ast.Expression]]:
    """The one access-path choice, for a SELECT's base-table scans and
    UPDATE/DELETE targets alike: ``scan`` itself or an IndexScan probe,
    and the conjuncts the chosen path leaves unenforced."""
    table = scan.table
    if not table.indexes:
        return scan, conjuncts
    candidate, remaining = _try_index_scan(
        scan, shape, conjuncts, session, outer
    )
    stats = _table_stats(session, table)
    if candidate is scan or stats is None:
        # No usable index, or no statistics to cost with: an index
        # probe always wins.
        return candidate, remaining
    # Cost the seqscan-vs-IndexScan crossover.  The probe touches
    # est_match rows at random-I/O cost; the seqscan touches every row
    # at sequential cost.
    consumed = [c for c in conjuncts if not any(c is r for r in remaining)]
    row_count = float(stats.row_count)
    est_match = row_count * _conjuncts_selectivity(
        stats, table, shape, consumed
    )
    seq_cost = row_count * COST_SEQ_IO
    index_cost = COST_RANDOM_IO * est_match + 1.0
    if index_cost <= seq_cost:
        _annotate(candidate, est_match, index_cost)
        _rejected_alternative(
            candidate, f"SeqScan on {table.name}", seq_cost, row_count
        )
        return candidate, remaining
    _annotate(scan, row_count, seq_cost)
    _rejected_alternative(
        scan,
        f"IndexScan using {candidate.index.name} on {table.name}",
        index_cost,
        est_match,
    )
    return scan, conjuncts


def plan_target(
    table: Table, where: Optional[ast.Expression], session: Any
) -> Tuple[Operator, Optional[Callable[[Env], Any]]]:
    """Access path for an UPDATE/DELETE target.

    Plans ``table`` under WHERE exactly as a SELECT's FROM item
    (:func:`_apply_conjuncts`) and returns the SeqScan or IndexScan it
    reads through plus the compiled predicate of whatever that path
    leaves unenforced (None: nothing).  No SELECT privilege is checked —
    the statement's own privilege covers reading the rows it changes.
    """
    access = _apply_conjuncts(
        _seq_scan(table, session),
        table_shape(table),
        _split_conjuncts(where) if where is not None else [],
        session,
        None,
    )
    if isinstance(access, Filter):
        return access.child, access.predicate.fn
    return access, None


def _apply_conjuncts(
    operator: Operator,
    shape: RowShape,
    conjuncts: List[ast.Expression],
    session: Any,
    outer: Optional[ExpressionCompiler],
) -> Operator:
    """Enforce ``conjuncts`` on top of ``operator``.

    A SeqScan may become an IndexScan (:func:`_access_path`); whatever
    the probe cannot guarantee stays in a Filter whose EXPLAIN text
    lists exactly the conjuncts it enforces.
    """
    if not conjuncts:
        return operator
    remaining = list(conjuncts)
    stats = None
    if isinstance(operator, SeqScan):
        stats = _table_stats(session, operator.table)
        operator, remaining = _access_path(
            operator, shape, remaining, session, outer
        )
    if not remaining:
        return operator
    compiler = ExpressionCompiler(shape, session, outer)
    filtered = Filter(
        operator,
        compiler.compile_predicate(_and_all(remaining)),
        description=_conjuncts_summary(remaining),
    )
    if stats is not None:
        # A scan of an ANALYZEd table always carries its estimates.
        in_rows, in_cost = _estimated(operator)
        est_out = float(stats.row_count) * _conjuncts_selectivity(
            stats, operator.table, shape, list(conjuncts)
        )
        _annotate(filtered, est_out, in_cost + in_rows)
    return filtered


def _push_into_query(
    query: ast.Node,
    conjuncts: List[ast.Expression],
    alias: Optional[str],
) -> Tuple[ast.Node, List[ast.Expression]]:
    """Rewrite conjuncts into the WHERE of a simple derived SELECT.

    Only projection-through-rename is attempted: the derived query must
    be a plain SELECT (no DISTINCT / GROUP BY / HAVING / LIMIT), and a
    conjunct is only moved when every column it references maps back to
    a plain column or literal of the inner query — duplicating a
    computed expression could double-evaluate it.  The rewrite never
    mutates shared AST nodes (:func:`_transform` copies).
    """
    if not isinstance(query, ast.Select):
        return query, conjuncts
    if (
        query.distinct
        or query.group_by
        or query.having is not None
        or query.limit is not None
        or query.offset is not None
    ):
        return query, conjuncts
    mapping: dict = {}
    for position, item in enumerate(query.items):
        if not isinstance(item, ast.SelectItem):
            return query, conjuncts
        if _contains_aggregate(item.expression):
            return query, conjuncts
        name = _output_name(item.expression, item.alias, position)
        if name in mapping:
            return query, conjuncts  # duplicate output name: ambiguous
        mapping[name] = item.expression

    pushed_in: List[ast.Expression] = []
    remaining: List[ast.Expression] = []
    for conjunct in conjuncts:
        ok = True

        def replace(node: ast.Node) -> Optional[ast.Node]:
            nonlocal ok
            if isinstance(node, ast.ColumnRef):
                if node.table is not None and node.table != alias:
                    ok = False
                    return None
                inner = mapping.get(node.name)
                if inner is None or not isinstance(
                    inner, (ast.ColumnRef, ast.Literal)
                ):
                    ok = False
                    return None
                return inner
            return None

        rewritten = _transform(conjunct, replace)
        if ok:
            pushed_in.append(rewritten)
        else:
            remaining.append(conjunct)
    if not pushed_in:
        return query, conjuncts
    existing = [query.where] if query.where is not None else []
    new_where = _and_all(existing + pushed_in)
    return dataclasses.replace(query, where=new_where), remaining


# ---------------------------------------------------------------------------
# FROM clause
# ---------------------------------------------------------------------------


def _plan_table_ref(
    ref: ast.TableRef,
    session: Any,
    outer: Optional[ExpressionCompiler],
    pushed: Optional[List[ast.Expression]] = None,
) -> Tuple[Operator, RowShape]:
    """Plan one FROM item, enforcing any pushed-down WHERE conjuncts."""
    pushed = list(pushed or [])
    if isinstance(ref, ast.TableName):
        operator, shape = _plan_named_relation(ref, session)
        return _apply_conjuncts(operator, shape, pushed, session, outer), shape
    if isinstance(ref, ast.SubqueryRef):
        query, remaining = ref.query, pushed
        if pushed:
            query, remaining = _push_into_query(query, pushed, ref.alias)
        plan, shape = plan_query(query, session, outer=outer)
        shape = shape.with_alias(ref.alias)
        operator = _apply_conjuncts(
            plan.root, shape, remaining, session, outer
        )
        return operator, shape
    if isinstance(ref, ast.Join):
        return _plan_join(ref, session, outer, pushed)
    raise errors.FeatureNotSupportedError(
        f"unsupported FROM item {type(ref).__name__}"
    )


def _plan_named_relation(
    ref: ast.TableName, session: Any
) -> Tuple[Operator, RowShape]:
    relation = session.catalog.get_relation(ref.name)
    if isinstance(relation, View):
        session.check_table_privilege("SELECT", ref.name)
        # Views run with definer's rights over their underlying tables.
        with session.impersonate(relation.owner):
            plan, shape = plan_query(relation.query, session)
        if relation.column_names:
            if len(relation.column_names) != len(shape):
                raise errors.CatalogError(
                    f"view {relation.name!r} column list does not match "
                    "its query"
                )
            shape = RowShape(
                [
                    ColumnInfo(None, name, col.descriptor, col.kind)
                    for name, col in zip(
                        relation.column_names, shape.columns
                    )
                ]
            )
        return plan.root, shape.with_alias(ref.alias or ref.name)
    session.check_table_privilege("SELECT", ref.name)
    if isinstance(relation, VirtualTable):
        # System statistics views: rows are produced at execution time,
        # so even a plan-cache hit reads live numbers.  Pushed conjuncts
        # land in a Filter above the scan (no indexes to exploit).
        return VirtualScan(relation), table_shape(relation, ref.alias)
    return _seq_scan(relation, session), table_shape(relation, ref.alias)


def _seq_scan(table: Table, session: Any) -> SeqScan:
    scan = SeqScan(table)
    stats = _table_stats(session, table)
    if stats is not None:
        row_count = float(stats.row_count)
        _annotate(scan, row_count, row_count * COST_SEQ_IO)
    return scan


def _fold_join(
    kind: str,
    left_op: Operator,
    left_shape: RowShape,
    right_op: Operator,
    right_shape: RowShape,
    conjuncts: List[ast.Expression],
    scopes: Sequence[_Scope],
    left_items: Set[int],
    right_items: Set[int],
    session: Any,
    outer: Optional[ExpressionCompiler],
) -> Tuple[Operator, RowShape]:
    """Build the join operator enforcing ``conjuncts``.

    ``left_items``/``right_items`` are the ``scopes`` each input reads;
    equality conjuncts with one side reading only each (and
    hash-compatible types on both) become HashJoin keys.  The
    join predicate is always the AND of *all* conjuncts — the hash
    table only pre-filters candidates, it never decides matches.
    """
    merged = left_shape.merge(right_shape)
    compiler = ExpressionCompiler(merged, session, outer)
    # Each key reads its own input's row.
    left_compiler = ExpressionCompiler(left_shape, session, outer)
    right_compiler = ExpressionCompiler(right_shape, session, outer)
    left_keys: List[Compiled] = []
    right_keys: List[Compiled] = []
    #: (left side, right side, conjunct) of each key, in key order
    keyed: List[Tuple[ast.Expression, ast.Expression, ast.Expression]] = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, ast.Binary) or conjunct.op != "=":
            continue
        for a, b in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if _reads_only(a, scopes, left_items) \
                    and _reads_only(b, scopes, right_items):
                try:
                    ca = left_compiler.compile(a)
                    cb = right_compiler.compile(b)
                except errors.SQLException:
                    break
                if _compatible_families(ca.descriptor, cb.descriptor):
                    left_keys.append(ca)
                    right_keys.append(cb)
                    keyed.append((a, b, conjunct))
                break
    predicate = (
        compiler.compile_predicate(_and_all(conjuncts))
        if conjuncts
        else None
    )
    left_rows, left_cost = _estimated(left_op)
    right_rows, right_cost = _estimated(right_op)
    costed = left_rows is not None and right_rows is not None
    if left_keys:
        join_kind = "INNER" if kind == "CROSS" else kind
        build = "right"
        if costed and join_kind == "INNER" and left_rows < right_rows:
            # The smaller input should be materialised into the hash
            # table; without estimates it is always the right.
            build = "left"
        operator: Operator = HashJoin(
            join_kind,
            left_op,
            right_op,
            predicate,
            len(left_shape),
            len(right_shape),
            left_keys,
            right_keys,
            description=_conjuncts_summary(conjuncts),
            build=build,
        )
        if costed:
            est_out = _hash_join_rows(left_rows, right_rows)
            build_rows = left_rows if build == "left" else right_rows
            probe_rows = right_rows if build == "left" else left_rows
            cost = _hash_join_cost(
                left_cost, right_cost, build_rows, probe_rows, est_out
            )
            _annotate(operator, est_out, cost)
            if build == "left":
                _rejected_alternative(
                    operator,
                    f"HashJoin ({join_kind}) building on the right "
                    f"input (~{right_rows:.0f} rows)",
                    _hash_join_cost(
                        left_cost, right_cost,
                        right_rows, left_rows, est_out,
                    ),
                    est_out,
                )
            operator = _index_join(
                operator, (left_shape, right_shape),
                (left_keys, right_keys), keyed, session,
            )
    else:
        operator = NestedLoopJoin(
            kind,
            left_op,
            right_op,
            predicate,
            len(left_shape),
            len(right_shape),
        )
        if costed:
            if conjuncts:
                est_out = left_rows * right_rows * _GUESS_SELECTIVITY
            else:
                est_out = left_rows * right_rows
            cost = _nested_loop_cost(
                left_cost, right_cost, left_rows, right_rows
            )
            _annotate(operator, est_out, cost)
    return operator, merged


def _index_join(
    hash_join: HashJoin,
    shapes: Tuple[RowShape, RowShape],
    keys: Tuple[List[Compiled], List[Compiled]],
    keyed: Sequence[Tuple[ast.Expression, ast.Expression, ast.Expression]],
    session: Any,
) -> Operator:
    """``hash_join`` (costed), or the IndexNestedLoopJoin that costs
    less, each listing the other as the rejected alternative.

    For an INNER join, either input may be the outer one, streamed,
    when the other — the inner — is a SeqScan of a table with
    statistics (under the Filter of its pushed conjuncts); an inner
    index serves when join keys equate every column of it to the outer
    row.  Probing costs ``outer rows × (1 +
    COST_RANDOM_IO × inner rows / NDV)``, NDV the index key's distinct
    values by ANALYZE, plus the outer input's own cost.
    """
    if hash_join.kind != "INNER":
        return hash_join
    inputs = (hash_join.left, hash_join.right)
    best = None  # (cost, inner input, its filters, scan, index, keys, used)
    for outer, inner in ((0, 1), (1, 0)):
        filters, scan = [], inputs[inner]
        while isinstance(scan, Filter):
            filters.append(scan)
            scan = scan.child
        if type(scan) is not SeqScan or not scan.table.indexes:
            continue
        stats = _table_stats(session, scan.table)
        if stats is None:
            continue
        outer_rows, outer_cost = _estimated(inputs[outer])
        # inner column position -> (outer key, conjunct), first key wins
        probes: dict = {}
        for number, pair in enumerate(keyed):
            position = _bare_column_position(pair[inner], shapes[inner])
            if position is not None:
                probes.setdefault(position, (keys[outer][number], pair[2]))
        for index in scan.table.indexes:
            columns = [stats.column(name) for name in index.column_names]
            if not all(p in probes for p in index.positions) \
                    or None in columns:
                continue
            ndv = 1.0
            for column in columns:
                ndv *= max(column.ndv, 1)
            matches = stats.row_count / min(ndv, max(stats.row_count, 1))
            cost = (outer_cost or 0.0) + outer_rows * (
                1.0 + COST_RANDOM_IO * matches)
            if best is None or cost < best[0]:
                best = (cost, inner, filters, scan, index,
                        [probes[p][0] for p in index.positions],
                        [probes[p][1] for p in index.positions])
    if best is None:
        return hash_join
    cost, inner, filters, scan, index, probe_keys, used = best
    est_out, hash_cost = _estimated(hash_join)
    if cost >= hash_cost:
        _rejected_alternative(
            hash_join,
            f"IndexNestedLoopJoin (INNER) probing {index.name} "
            f"on {scan.table.name}",
            cost, est_out,
        )
        return hash_join
    # The probe, parameterised by the outer row, under the inner
    # input's Filters: the loop runs them all inline.
    probed: Operator = IndexScan(
        index, scan.table, description=_conjuncts_summary(used))
    for kept in reversed(filters):
        probed = Filter(probed, kept.predicate, kept.description)
    sides = list(inputs)
    sides[inner] = probed
    operator = IndexNestedLoopJoin(
        "INNER", sides[0], sides[1], hash_join.predicate,
        hash_join.left_width, hash_join.right_width, probe_keys,
        description=hash_join.description,
        build=("left", "right")[inner],
    )
    _annotate(operator, est_out, cost)
    _rejected_alternative(
        operator,
        f"HashJoin (INNER) building on the {hash_join.build} input",
        hash_cost, est_out,
    )
    return operator


def _hash_join_rows(left_rows: float, right_rows: float) -> float:
    """Equi-join output estimate: the FK-ish ``max(|L|, |R|)`` guess."""
    return max(left_rows, right_rows, 1.0)


def _hash_join_cost(
    left_cost: Optional[float],
    right_cost: Optional[float],
    build_rows: float,
    probe_rows: float,
    out_rows: float,
) -> float:
    return (
        (left_cost or 0.0)
        + (right_cost or 0.0)
        + _HASH_BUILD_FACTOR * build_rows
        + probe_rows
        + out_rows
    )


def _nested_loop_cost(
    left_cost: Optional[float],
    right_cost: Optional[float],
    left_rows: float,
    right_rows: float,
) -> float:
    return (
        (left_cost or 0.0)
        + (right_cost or 0.0)
        + left_rows * max(right_rows, 1.0)
    )


def _plan_join(
    ref: ast.Join,
    session: Any,
    outer: Optional[ExpressionCompiler],
    pushed: Optional[List[ast.Expression]] = None,
) -> Tuple[Operator, RowShape]:
    pushed = list(pushed or [])
    scopes = [
        _ref_scope(ref.left, session),
        _ref_scope(ref.right, session),
    ]
    kind = ref.kind
    on_conjuncts = (
        _split_conjuncts(ref.condition)
        if ref.condition is not None
        else []
    )
    left_pushed: List[ast.Expression] = []
    right_pushed: List[ast.Expression] = []
    join_list: List[ast.Expression] = []
    above: List[ast.Expression] = []

    # WHERE conjuncts pushed from the enclosing query filter the join's
    # *output*: they may only descend past a side that is never
    # null-extended (an outer join's preserved side keeps them above —
    # filtering early would change which rows get null-extended).
    for conjunct in pushed:
        sources, routable = _conjunct_sources(conjunct, scopes)
        if routable and sources == {0} and kind in (
            "INNER", "CROSS", "LEFT"
        ):
            left_pushed.append(conjunct)
        elif routable and sources == {1} and kind in (
            "INNER", "CROSS", "RIGHT"
        ):
            right_pushed.append(conjunct)
        elif routable and sources and kind in ("INNER", "CROSS"):
            join_list.append(conjunct)
        else:
            above.append(conjunct)

    # ON conjuncts decide *matches*: a one-sided conjunct may descend
    # into the side whose non-matching rows are never emitted (for
    # LEFT, the right input; for RIGHT, the left; both for INNER).
    for conjunct in on_conjuncts:
        sources, routable = _conjunct_sources(conjunct, scopes)
        if routable and sources == {0} and kind in ("INNER", "RIGHT"):
            left_pushed.append(conjunct)
        elif routable and sources == {1} and kind in ("INNER", "LEFT"):
            right_pushed.append(conjunct)
        else:
            join_list.append(conjunct)

    if kind in ("INNER", "CROSS"):
        _derive_key_probes(
            ref, session, scopes, join_list, (left_pushed, right_pushed)
        )
    left_op, left_shape = _plan_table_ref(
        ref.left, session, outer, left_pushed
    )
    right_op, right_shape = _plan_table_ref(
        ref.right, session, outer, right_pushed
    )
    operator, merged = _fold_join(
        kind,
        left_op,
        left_shape,
        right_op,
        right_shape,
        join_list,
        scopes,
        {0},
        {1},
        session,
        outer,
    )
    return _apply_conjuncts(operator, merged, above, session, outer), merged


def _derive_key_probes(
    ref: ast.Join,
    session: Any,
    scopes: Sequence[_Scope],
    join_list: Sequence[ast.Expression],
    pushed: Tuple[List[ast.Expression], List[ast.Expression]],
) -> None:
    """Push ``b = k`` into one input of an inner join on ``a = b`` when
    the other input is filtered by ``a = k``.

    Every joined row has ``a = b`` and ``a = k``, so ``b = k`` only
    drops rows the join would drop anyway, and on an indexed ``b`` it
    turns a scan of that input into a probe.  ``k`` must be a literal
    or ``?`` (one value per execution), ``a`` and ``b`` base-table
    columns of compatible type families, and a literal ``k`` comparable
    with ``b``, so the new conjunct cannot raise a cast error the join
    would not.
    """
    for conjunct in join_list:
        columns = _join_columns(conjunct, scopes)
        if columns is None:
            continue
        types = [
            _column_type(side, column, session)
            for side, column in zip((ref.left, ref.right), columns)
        ]
        if not _compatible_families(*types):
            continue
        found = [
            _constant_equalities(columns[side], pushed[side], scopes[side])
            for side in (0, 1)
        ]
        for side in (0, 1):
            other = 1 - side
            for value in found[side]:
                derived = ast.Binary("=", columns[other], value)
                if derived in pushed[other]:
                    continue
                if isinstance(value, ast.Literal):
                    literal = ExpressionCompiler(RowShape([]), session) \
                        .compile(value).descriptor
                    if literal is None or not types[other].comparable_with(
                        literal
                    ):
                        continue
                pushed[other].append(derived)


def _join_columns(
    conjunct: ast.Expression, scopes: Sequence[_Scope]
) -> Optional[Tuple[ast.ColumnRef, ast.ColumnRef]]:
    """``(a, b)`` for a conjunct ``a = b`` (either way round) joining a
    column of the left input to a column of the right, else None."""
    if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
        return None
    pair = (conjunct.left, conjunct.right)
    if not all(isinstance(side, ast.ColumnRef) for side in pair):
        return None
    sources = [_attribute_column(side, scopes) for side in pair]
    if sources == [0, 1]:
        return pair
    if sources == [1, 0]:
        return pair[1], pair[0]
    return None


def _constant_equalities(
    column: ast.ColumnRef,
    conjuncts: Sequence[ast.Expression],
    scope: _Scope,
) -> List[ast.Expression]:
    """The ``k`` of every conjunct ``column = k`` (either way round)
    where ``k`` is a literal or ``?``."""
    found = []
    for conjunct in conjuncts:
        if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
            continue
        for ref, value in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(ref, ast.ColumnRef)
                and isinstance(value, (ast.Literal, ast.Parameter))
                and ref.name == column.name
                # Refs in one input's scope name the same column when
                # they match, or when the input is a single table.
                and (ref.table == column.table or len(scope.aliases) == 1)
            ):
                found.append(value)
    return found


def _column_type(
    ref: ast.TableRef, column: ast.ColumnRef, session: Any
) -> Optional[TypeDescriptor]:
    """Declared type of ``column`` in FROM item ``ref`` when it is a
    base-table column, else None."""
    if isinstance(ref, ast.Join):
        return _column_type(ref.left, column, session) or _column_type(
            ref.right, column, session
        )
    if not isinstance(ref, ast.TableName) or column.table not in (
        None, ref.alias or ref.name
    ):
        return None
    relation = session.catalog.get_relation(ref.name)
    if not isinstance(relation, Table) or isinstance(relation, VirtualTable):
        return None
    for declared in relation.columns:
        if declared.name == column.name:
            return declared.descriptor
    return None


# ---------------------------------------------------------------------------
# SELECT planning
# ---------------------------------------------------------------------------


def _expand_items(
    items: Sequence[ast.Node], shape: RowShape
) -> List[Tuple[ast.Expression, Optional[str]]]:
    """Expand ``*`` / ``t.*`` into explicit column references."""
    expanded: List[Tuple[ast.Expression, Optional[str]]] = []
    for item in items:
        if isinstance(item, ast.StarItem):
            matched = False
            for column in shape.columns:
                if item.table is None or column.alias == item.table:
                    matched = True
                    expanded.append(
                        (
                            ast.ColumnRef(column.name, table=column.alias),
                            column.name,
                        )
                    )
            if not matched:
                raise errors.UndefinedTableError(
                    f"no FROM item called {item.table!r} for "
                    f"{item.table}.*"
                )
        else:
            assert isinstance(item, ast.SelectItem)
            expanded.append((item.expression, item.alias))
    return expanded


def _output_name(
    expr: ast.Expression, alias: Optional[str], position: int
) -> str:
    if alias:
        return alias
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.AttributeRef):
        return expr.attribute
    if isinstance(expr, ast.MethodCall):
        return expr.method
    if isinstance(expr, ast.FunctionCall):
        return expr.name.split(".")[-1]
    if isinstance(expr, ast.AggregateCall):
        return expr.name.lower()
    return f"column{position + 1}"


def _aggregate_result_type(
    call: ast.AggregateCall, argument: Optional[Compiled]
) -> Optional[TypeDescriptor]:
    if call.name == "COUNT":
        return IntegerType()
    arg_type = argument.descriptor if argument else None
    if call.name in ("MIN", "MAX"):
        return arg_type
    if call.name == "SUM":
        if isinstance(arg_type, DecimalType):
            return DecimalType(38, arg_type.scale)
        return arg_type
    # AVG
    if isinstance(arg_type, DecimalType):
        return DecimalType(38, max(arg_type.scale, 6))
    if isinstance(arg_type, DoubleType):
        return DoubleType()
    if arg_type is not None:
        return DecimalType(38, 6)
    return None


def _aggregate_kind(
    call: ast.AggregateCall, argument: Optional[Compiled]
) -> Optional[str]:
    """kind_of the aggregate's values: COUNT's are ints; SUM keeps an
    int argument's, MIN and MAX any argument's."""
    if call.name == "COUNT":
        return "int"
    kind = argument.kind if argument is not None else None
    if call.name in ("MIN", "MAX") or (call.name == "SUM" and kind == "int"):
        return kind
    return None


def _plan_select(
    select: ast.Select,
    session: Any,
    outer: Optional[ExpressionCompiler],
    collect: bool = False,
) -> Tuple[QueryPlan, RowShape]:
    where = select.where
    if where is not None and _contains_aggregate(where):
        raise errors.SQLSyntaxError(
            "aggregates are not allowed in WHERE"
        )

    # 1. FROM (+ WHERE, when pushdown routes its conjuncts itself)
    if select.from_clause:
        if where is not None:
            operator, shape = _plan_from_pushdown(select, session, outer)
            where = None  # fully consumed, residual Filters included
        else:
            operator, shape = _plan_table_ref(
                select.from_clause[0], session, outer
            )
            for extra in select.from_clause[1:]:
                right_op, right_shape = _plan_table_ref(
                    extra, session, outer
                )
                operator = NestedLoopJoin(
                    "CROSS", operator, right_op, None, len(shape),
                    len(right_shape),
                )
                shape = shape.merge(right_shape)
    else:
        operator, shape = SingleRow(), RowShape([])

    compiler = ExpressionCompiler(shape, session, outer)

    # 2. WHERE (only when step 1 did not already consume it)
    if where is not None:
        operator = Filter(
            operator,
            compiler.compile_predicate(where),
            description=_conjuncts_summary([where]),
        )

    # 3. Aggregation
    items = _expand_items(select.items, shape)
    needs_aggregation = bool(select.group_by) or select.having is not None \
        or any(_contains_aggregate(expr) for expr, _ in items) \
        or any(_contains_aggregate(o.expression) for o in select.order_by)

    having = select.having
    order_items = list(select.order_by)

    if needs_aggregation:
        operator, shape, items, having, order_items = _plan_aggregation(
            select, session, outer, operator, shape, compiler, items
        )
        compiler = ExpressionCompiler(shape, session, outer)

    # 4. HAVING (already rewritten to post-aggregation shape)
    if having is not None:
        operator = Filter(
            operator,
            compiler.compile_predicate(having),
            description=_conjuncts_summary([select.having]),
        )

    # 5. Projection
    compiled_items = [compiler.compile(expr) for expr, _ in items]
    output_shape = RowShape(
        [
            ColumnInfo(
                expr.table if isinstance(expr, ast.ColumnRef) and alias is
                None else None,
                _output_name(expr, alias, position),
                compiled.descriptor,
                compiled.kind,
            )
            for position, ((expr, alias), compiled) in enumerate(
                zip(items, compiled_items)
            )
        ]
    )

    limit, offset = _compile_limits(select, session)

    if select.distinct:
        operator = Project(operator, compiled_items)
        operator = Distinct(operator)
        if order_items:
            operator = _sort_output(
                operator, order_items, output_shape, session, outer
            )
    else:
        if order_items:
            keys = []
            for order in order_items:
                target = _order_source_expression(order.expression, items)
                keys.append(
                    (compiler.compile_sort_key(target), order.ascending)
                )
            operator = Sort(operator, keys)
        operator = Project(operator, compiled_items)

    if limit is not None or offset is not None:
        # A Sort under the LIMIT (past a Project) keeps only the rows
        # the Limit will pull.
        sort = operator.child if isinstance(operator, Project) else operator
        if isinstance(sort, Sort) and limit is not None:
            sort.limit, sort.offset = limit, offset
        operator = Limit(operator, limit, offset)

    return QueryPlan(operator, output_shape, collect), output_shape


def _from_item_estimates(
    from_clause: Sequence[ast.TableRef],
    routed: Sequence[Sequence[ast.Expression]],
    session: Any,
) -> Optional[List[Tuple[float, float]]]:
    """Per-FROM-item ``(estimated rows out, scan cost)``.

    Returns None unless *every* item is a base table with ANALYZE
    statistics — join reordering only runs with full information, so a
    query over un-ANALYZEd tables plans exactly as it always did.
    """
    estimates: List[Tuple[float, float]] = []
    for ref, conjuncts in zip(from_clause, routed):
        if not isinstance(ref, ast.TableName):
            return None
        try:
            relation = session.catalog.get_relation(ref.name)
        except errors.SQLException:
            return None
        if not isinstance(relation, Table) or isinstance(
            relation, VirtualTable
        ):
            return None
        stats = _table_stats(session, relation)
        if stats is None:
            return None
        shape = table_shape(relation, ref.alias)
        selectivity = _conjuncts_selectivity(
            stats, relation, shape, conjuncts
        )
        estimates.append(
            (
                max(stats.row_count * selectivity, 1e-3),
                stats.row_count * COST_SEQ_IO,
            )
        )
    return estimates


def _joinable(
    candidate: int, placed: Set[int], join_sources: Sequence[Set[int]]
) -> bool:
    """True when a join conjunct ties ``candidate`` to the placed set."""
    merged = placed | {candidate}
    return any(
        candidate in sources and sources <= merged
        for sources in join_sources
    )


def _greedy_join_order(
    estimates: Sequence[Tuple[float, float]],
    join_sources: Sequence[Set[int]],
) -> List[int]:
    """Greedy smallest-intermediate-first join order.

    Start from the item with the fewest estimated rows, then repeatedly
    add the item producing the smallest estimated intermediate,
    preferring items connected by a join conjunct (an unconnected item
    is a cross product) — the classic greedy heuristic, deterministic
    by construction (ties break on the original FROM position).
    """
    n = len(estimates)
    remaining = set(range(n))
    start = min(remaining, key=lambda i: (estimates[i][0], i))
    order = [start]
    placed = {start}
    rows = estimates[start][0]
    remaining.discard(start)
    while remaining:
        # Score (unconnected?, intermediate rows, position); the winner's
        # intermediate is where the next step starts.
        _, rows, best = min(
            (0, max(rows, estimates[j][0], 1.0), j)
            if _joinable(j, placed, join_sources)
            else (1, rows * estimates[j][0], j)
            for j in remaining
        )
        order.append(best)
        placed.add(best)
        remaining.discard(best)
    return order


def _simulate_order_cost(
    order: Sequence[int],
    estimates: Sequence[Tuple[float, float]],
    join_sources: Sequence[Set[int]],
) -> float:
    """Estimated cost of folding the FROM items in ``order``.

    Applies the same formulas :func:`_fold_join` uses when it builds
    real operators, so the cost recorded for a rejected order is
    comparable with the chosen plan's annotations.
    """
    first = order[0]
    placed = {first}
    rows = estimates[first][0]
    total = estimates[first][1]
    for position in order[1:]:
        item_rows, scan_cost = estimates[position]
        total += scan_cost
        if _joinable(position, placed, join_sources):
            out = _hash_join_rows(rows, item_rows)
            total += (
                _HASH_BUILD_FACTOR * min(rows, item_rows)
                + max(rows, item_rows)
                + out
            )
        else:
            out = rows * item_rows
            total += rows * max(item_rows, 1.0)
        rows = out
        placed.add(position)
    return total


def _from_item_label(ref: ast.TableRef) -> str:
    if isinstance(ref, ast.TableName):
        return ref.alias or ref.name
    alias = getattr(ref, "alias", None)
    return alias or type(ref).__name__


def _restore_from_order(
    operator: Operator,
    order: Sequence[int],
    item_shapes: dict,
) -> Tuple[Operator, RowShape]:
    """Permute a reordered join's output columns back to FROM order."""
    widths = {
        position: len(shape) for position, shape in item_shapes.items()
    }
    offsets: dict = {}
    offset = 0
    for position in order:
        offsets[position] = offset
        offset += widths[position]
    items: List[Compiled] = []
    original = sorted(item_shapes)
    for position in original:
        for column in range(widths[position]):
            items.append(Compiled(f"r[{offsets[position] + column}]"))
    shape: Optional[RowShape] = None
    for position in original:
        shape = (
            item_shapes[position]
            if shape is None
            else shape.merge(item_shapes[position])
        )
    project = Project(operator, items)
    rows, cost = _estimated(operator)
    _annotate(project, rows, cost)
    rejected = getattr(operator, "rejected", None)
    if rejected:
        project.rejected = list(rejected)
        operator.rejected = []
    return project, shape


def _plan_from_pushdown(
    select: ast.Select,
    session: Any,
    outer: Optional[ExpressionCompiler],
) -> Tuple[Operator, RowShape]:
    """Plan FROM and WHERE together, routing conjuncts to their sources.

    Single-source conjuncts descend into the FROM item they reference
    (enabling index scans); conjuncts spanning several items attach to
    the join step that first brings those items together (enabling hash
    joins for comma-list joins); everything else — subqueries, outer
    references, ambiguous names — stays in a Filter over the full row,
    exactly where the original planner put the whole WHERE clause.
    """
    from_clause = select.from_clause
    scopes = [_ref_scope(ref, session) for ref in from_clause]
    conjuncts = _split_conjuncts(select.where)
    routed: List[List[ast.Expression]] = [[] for _ in from_clause]
    join_conjuncts: List[Tuple[Set[int], ast.Expression]] = []
    residual: List[ast.Expression] = []
    for conjunct in conjuncts:
        sources, routable = _conjunct_sources(conjunct, scopes)
        if not routable or not sources:
            residual.append(conjunct)
        elif len(sources) == 1:
            routed[next(iter(sources))].append(conjunct)
        else:
            join_conjuncts.append((sources, conjunct))

    # Greedy cost-based join reordering: with ANALYZE statistics for
    # every FROM item, fold the relations smallest-intermediate-first
    # instead of in FROM order.  Output columns are restored to FROM
    # order by a permutation Project so results are indistinguishable
    # from the FROM-order plan.
    order = list(range(len(from_clause)))
    estimates: Optional[List[Tuple[float, float]]] = None
    join_sources = [set(s) for s, _ in join_conjuncts]
    if len(from_clause) >= 3:
        estimates = _from_item_estimates(
            from_clause, routed, session
        )
        if estimates is not None:
            candidate = _greedy_join_order(estimates, join_sources)
            # Adopt the greedy order only when the model says it is
            # actually cheaper than folding in FROM order — with tiny
            # inputs a cross product can legitimately win.
            if _simulate_order_cost(
                candidate, estimates, join_sources
            ) < _simulate_order_cost(order, estimates, join_sources):
                order = candidate

    operator: Optional[Operator] = None
    shape: Optional[RowShape] = None
    planned: Set[int] = set()
    item_shapes: dict = {}
    for position in order:
        ref = from_clause[position]
        right_op, right_shape = _plan_table_ref(
            ref, session, outer, routed[position]
        )
        item_shapes[position] = right_shape
        if operator is None:
            operator, shape = right_op, right_shape
            planned = {position}
            continue
        merged_now = planned | {position}
        here = [c for s, c in join_conjuncts if s <= merged_now]
        join_conjuncts = [
            (s, c) for s, c in join_conjuncts if not s <= merged_now
        ]
        operator, shape = _fold_join(
            "INNER" if here else "CROSS",
            operator,
            shape,
            right_op,
            right_shape,
            here,
            scopes,
            planned,
            {position},
            session,
            outer,
        )
        planned = merged_now

    leftovers = residual + [c for _, c in join_conjuncts]
    if leftovers:
        compiler = ExpressionCompiler(shape, session, outer)
        filtered = Filter(
            operator,
            compiler.compile_predicate(_and_all(leftovers)),
            description=_conjuncts_summary(leftovers),
        )
        rows, cost = _estimated(operator)
        if rows is not None:
            _annotate(
                filtered,
                rows * _GUESS_SELECTIVITY ** len(leftovers),
                (cost + rows) if cost is not None else None,
            )
        operator = filtered

    if order != sorted(order):
        operator, shape = _restore_from_order(
            operator, order, item_shapes
        )
        if estimates is not None:
            chosen_cost = _estimated(operator)[1]
            original_cost = _simulate_order_cost(
                list(range(len(from_clause))), estimates, join_sources
            )
            names = ", ".join(
                _from_item_label(ref) for ref in from_clause
            )
            _rejected_alternative(
                operator,
                f"join in FROM order ({names})",
                original_cost,
                reason="rule-based join order; higher estimated cost",
            )
            if chosen_cost is None:
                _annotate(
                    operator,
                    None,
                    _simulate_order_cost(order, estimates, join_sources),
                )
    return operator, shape


def _compile_limits(
    select: ast.Select, session: Any
) -> Tuple[Optional[Compiled], Optional[Compiled]]:
    empty_compiler = ExpressionCompiler(RowShape([]), session)
    limit, offset = (
        None if expr is None else empty_compiler.compile(expr)
        for expr in (select.limit, select.offset)
    )
    return limit, offset


def _order_source_expression(
    expr: ast.Expression,
    items: List[Tuple[ast.Expression, Optional[str]]],
) -> ast.Expression:
    """Resolve ORDER BY aliases and positions to source expressions."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        position = expr.value
        if not 1 <= position <= len(items):
            raise errors.SQLSyntaxError(
                f"ORDER BY position {position} is out of range"
            )
        return items[position - 1][0]
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        for item_expr, alias in items:
            if alias == expr.name:
                return item_expr
    return expr


def _sort_output(
    operator: Operator,
    order_items: Sequence[ast.OrderItem],
    shape: RowShape,
    session: Any,
    outer: Optional[ExpressionCompiler],
) -> Sort:
    """Sort rows already projected to ``shape`` (DISTINCT, set
    operations): ORDER BY names output columns, a position picks one."""
    targets = []
    for order in order_items:
        expr = order.expression
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            if not 1 <= expr.value <= len(shape):
                raise errors.SQLSyntaxError(
                    f"ORDER BY position {expr.value} is out of range"
                )
            expr = ast.ColumnRef(shape.columns[expr.value - 1].name)
        targets.append((expr, order.ascending))
    compiler = ExpressionCompiler(shape, session, outer)
    return Sort(operator, [
        (compiler.compile_sort_key(expr), ascending)
        for expr, ascending in targets
    ])


def _plan_aggregation(
    select: ast.Select,
    session: Any,
    outer: Optional[ExpressionCompiler],
    operator: Operator,
    shape: RowShape,
    compiler: ExpressionCompiler,
    items: List[Tuple[ast.Expression, Optional[str]]],
):
    """Insert a GroupAggregate and rewrite downstream expressions.

    Returns (operator, post_shape, rewritten_items, rewritten_having,
    rewritten_order_items).
    """
    # Collect every distinct aggregate call at this query level.
    aggregates: List[ast.AggregateCall] = []
    for expr, _alias in items:
        _collect_aggregates(expr, aggregates)
    if select.having is not None:
        _collect_aggregates(select.having, aggregates)
    for order in select.order_by:
        _collect_aggregates(order.expression, aggregates)

    # Compile group keys and aggregate arguments against the input shape.
    key_columns: List[ColumnInfo] = []
    keys: List[Compiled] = []
    replacements: List[Tuple[ast.Expression, ast.Expression]] = []
    for index, key_expr in enumerate(select.group_by):
        compiled = compiler.compile(key_expr)
        keys.append(compiled)
        if isinstance(key_expr, ast.ColumnRef):
            info = ColumnInfo(key_expr.table, key_expr.name,
                              compiled.descriptor, compiled.kind)
            replacement = ast.ColumnRef(key_expr.name, table=key_expr.table)
        else:
            info = ColumnInfo(None, f"$grp{index}", compiled.descriptor,
                              compiled.kind)
            replacement = ast.ColumnRef(f"$grp{index}")
        key_columns.append(info)
        replacements.append((key_expr, replacement))

    agg_columns: List[ColumnInfo] = []
    agg_specs: List[AggregateSpec] = []
    for index, call in enumerate(aggregates):
        argument = (
            compiler.compile(call.argument)
            if call.argument is not None
            else None
        )
        agg_specs.append(AggregateSpec(call.name, argument, call.distinct))
        agg_columns.append(
            ColumnInfo(
                None, f"$agg{index}", _aggregate_result_type(call, argument),
                _aggregate_kind(call, argument),
            )
        )
        replacements.append((call, ast.ColumnRef(f"$agg{index}")))

    operator = GroupAggregate(operator, keys, agg_specs)
    post_shape = RowShape(key_columns + agg_columns)

    def replace(node: ast.Node) -> Optional[ast.Node]:
        for pattern, replacement in replacements:
            if type(node) is type(pattern) and node == pattern:
                return replacement
        return None

    rewritten_items = [
        (_transform(expr, replace), alias) for expr, alias in items
    ]
    rewritten_having = (
        _transform(select.having, replace)
        if select.having is not None
        else None
    )
    rewritten_order = [
        ast.OrderItem(_transform(o.expression, replace), o.ascending)
        for o in select.order_by
    ]

    # Validate: non-aggregated plain columns must be group keys.
    post_compiler = ExpressionCompiler(post_shape, session, outer)
    for expr, _alias in rewritten_items:
        _check_grouped(expr, post_compiler)
    if rewritten_having is not None:
        _check_grouped(rewritten_having, post_compiler)

    return operator, post_shape, rewritten_items, rewritten_having, \
        rewritten_order


def _check_grouped(
    expr: ast.Expression, post_compiler: ExpressionCompiler
) -> None:
    """Compiling against the post-aggregation shape surfaces ungrouped
    column references as UndefinedColumnError with a clearer message."""
    try:
        post_compiler.compile(expr)
    except errors.UndefinedColumnError as exc:
        raise errors.SQLSyntaxError(
            f"{exc.message}; columns used outside aggregates must appear "
            "in GROUP BY"
        ) from None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def plan_query(
    query: ast.Node,
    session: Any,
    outer: Optional[ExpressionCompiler] = None,
    collect: bool = False,
) -> Tuple[QueryPlan, RowShape]:
    """Plan a query expression; returns the plan and its output shape.
    ``collect`` builds a plan that only :meth:`QueryPlan.run` executes —
    a statement's, not a subquery's or a view's — so its root's rows
    may be collected by one generated function (``QueryPlan.collect``)
    instead of pulled through the root's loop."""
    if isinstance(query, ast.Select):
        return _plan_select(query, session, outer, collect)
    if isinstance(query, ast.SetOperation):
        return _plan_set_operation(query, session, outer, collect)
    raise errors.FeatureNotSupportedError(
        f"cannot plan {type(query).__name__}"
    )


def _plan_set_operation(
    op: ast.SetOperation,
    session: Any,
    outer: Optional[ExpressionCompiler],
    collect: bool = False,
) -> Tuple[QueryPlan, RowShape]:
    left_plan, left_shape = plan_query(op.left, session, outer)
    right_plan, right_shape = plan_query(op.right, session, outer)
    if len(left_shape) != len(right_shape):
        raise errors.SQLSyntaxError(
            f"{op.op} operands must have the same number of columns"
        )
    columns: List[ColumnInfo] = []
    casts: Tuple[list, list] = ([], [])
    for left_col, right_col in zip(left_shape.columns, right_shape.columns):
        descriptor = left_col.descriptor
        if descriptor is not None and right_col.descriptor is not None:
            descriptor = common_supertype(descriptor, right_col.descriptor)
        # Each branch's values are cast to the result column's type.
        for branch, col in zip(casts, (left_col, right_col)):
            differs = None not in (descriptor, col.descriptor) \
                and col.descriptor != descriptor
            branch.append(descriptor if differs else None)
        kind = left_col.kind if left_col.kind == right_col.kind else None
        columns.append(ColumnInfo(None, left_col.name, descriptor, kind))
    shape = RowShape(columns)
    operator: Operator = UnionOp(
        left_plan.root, right_plan.root, op.all, op.op,
        [branch if any(branch) else None for branch in casts],
    )
    if op.order_by:
        operator = _sort_output(operator, op.order_by, shape, session, outer)
    return QueryPlan(operator, shape, collect), shape
