"""INSERT / UPDATE / DELETE: one compile step and one run step.

:func:`plan_dml` does everything that does not touch rows — table
lookup, privilege and read-only checks, column positions and arity, the
compiled VALUES rows or source query, compiled column defaults,
assignment typing, ``>>`` attribute-path validation and the planner's
access path for the target rows — and returns a :class:`DmlPlan`.
:meth:`DmlPlan.run` is the row work, once per parameter row.  The plan
keeps nothing of the session that compiled it (compiled expressions read
the executing session from the run's ``Env``), so the session layer caches
it like a query plan and a prepared statement holds it; the translator's
``OnlineChecker`` runs the same compile step against an exemplar schema.

Every INSERT and UPDATE ends in heap appends guarded by the one
uniqueness decision, :func:`_check_unique`: one per UPDATE, and one per
INSERT unless its source reads the database (see :func:`_plan_insert`).

UPDATE supports the SQLJ Part 2 attribute-path targets from the paper::

    update emps set home_addr>>zip = '99123' where name = 'Bob Smith'

which copy the stored object, mutate the mapped Python field, and store
the result back (value semantics).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import errors
from repro.engine import ast
from repro.engine.catalog import Column, Table
from repro.engine.expressions import (
    Compiled,
    Env,
    ExpressionCompiler,
    RowShape,
)
from repro.engine.functions import lookup_builtin
from repro.engine.mvcc import RowVersion, Transaction, WriteConflict
from repro.engine.planner import (
    COST_RANDOM_IO,
    COST_SEQ_IO,
    plan_query,
    plan_target,
    table_shape,
)
from repro.engine.storage import RowStore, store_value
from repro.engine.virtual import VirtualTable
from repro.sqltypes import ObjectType, TypeDescriptor, compare_values
from repro.sqltypes.values import key_image

__all__ = [
    "DmlPlan",
    "plan_dml",
    "execute_insert",
    "execute_update",
    "execute_delete",
]


class DmlPlan:
    """A compiled INSERT, UPDATE or DELETE.

    ``run(session, param_rows)`` applies the statement once per
    parameter row on ``session`` and returns the per-row affected counts
    (JDBC ``updateCounts``).  A failure — constraint violation, coercion
    error, injected fault — leaves the failing append untouched; the
    caller's statement rollback undoes earlier ones.
    """

    __slots__ = ("run",)

    def __init__(
        self, run: Callable[[Any, Sequence[Sequence[Any]]], List[int]]
    ) -> None:
        self.run = run


def plan_dml(statement: ast.Statement, session: Any) -> DmlPlan:
    """Compile an INSERT, UPDATE or DELETE against ``session``'s catalog
    and privileges.  Raises every error that does not depend on the
    rows or the parameter values."""
    if isinstance(statement, ast.Insert):
        return _plan_insert(statement, session)
    if isinstance(statement, ast.Update):
        return _plan_update(statement, session)
    return _plan_delete(statement, session)


def _execute(stmt: ast.Statement, session: Any, params: Sequence[Any]) -> int:
    """Compile and run one statement for one parameter row."""
    [count] = plan_dml(stmt, session).run(session, [params])
    return count


#: Compile+run for callers holding a parsed statement.
execute_insert = execute_update = execute_delete = _execute


def _check_not_null(column: Column, value: Any, table: Table) -> None:
    if value is None and column.not_null:
        raise errors.NotNullViolationError(
            f"column {column.name!r} of table {table.name!r} is NOT NULL"
        )


#: ``known.get`` default: no live value or earlier row has this key.
_FREE = object()


def _values_collide(left: Any, right: Any) -> bool:
    try:
        return compare_values(left, right) == 0
    except errors.SQLException:
        return False


def _check_unique(
    table: Table, rows: Sequence[List[Any]], txn: Transaction
) -> None:
    """Raise if any of ``rows`` collides on a UNIQUE/PRIMARY KEY column.

    The one uniqueness decision for INSERT and UPDATE alike.  Callers
    pass it as the ``precondition`` of :meth:`RowStore.insert` /
    :meth:`RowStore.replace`, so it runs under the table's mutation lock
    immediately before the rows are appended: check-and-append is one
    atomic step, and a violation leaves the heap untouched.

    Unique enforcement reads the *latest* heap state, not the
    transaction's snapshot — like PostgreSQL, a constraint must hold
    against what is actually committed, even when the colliding row is
    invisible to this snapshot.  Versions this transaction has claimed
    (``xmax == txn.id``) are rows it is deleting or replacing and no
    longer count; NULLs never collide.  Per collision:

    * another row of ``rows``, or our own pending insert →
      :class:`~repro.errors.UniqueViolationError`;
    * claimed or inserted by another *in-flight* transaction →
      :class:`~repro.engine.mvcc.WriteConflict` — the outcome depends
      on whether that transaction commits, so the session waits for it
      and re-runs the statement;
    * committed live → :class:`~repro.errors.UniqueViolationError`.

    Cost is one pass per unique column over the candidate versions: the
    whole heap, or — when a single-column index covers the key and
    probing it once per new row (random I/O) costs no more than that
    pass, by the planner's cost constants — what the probes return.
    Live keys (their :func:`~repro.sqltypes.values.key_image`) fold into
    a dict and each new row is a hash probe; only values that cannot be
    hashed (Part 2 objects, never indexed) are probed linearly with
    ``compare_values``.  Indexes mirror every heap version under the
    same lock, and their ``sort_key`` equates what ``key_image`` does
    within one column.
    """
    for position, column in enumerate(table.columns):
        if not column.unique:
            continue
        # Under the mutation lock, so heap and indexes cannot change.
        heap = table.versions
        index = next((i for i in table.indexes
                      if i.column_names == [column.name]), None)
        if index is not None and COST_RANDOM_IO * len(rows) \
                <= COST_SEQ_IO * len(heap):
            # Only versions holding one of the new keys can collide.
            heap = [
                version for row in rows if row[position] is not None
                for version in index.lookup((row[position],))
            ]
        # key image -> live version (None: a row of this statement);
        # unhashable images go to ``loose`` as (image, owner) pairs.
        known: dict = {}
        loose: List[Tuple[Any, Optional[RowVersion]]] = []
        for version in heap:
            value = version.row[position]
            if value is None or version.end is not None \
                    or version.xmax == txn.id:
                continue
            image = key_image(value)
            try:
                known[image] = version
            except TypeError:
                loose.append((image, version))
        for row in rows:
            value = row[position]
            if value is None:
                continue
            image = key_image(value)
            try:
                collider = known.get(image, _FREE)
                candidates = loose
            except TypeError:  # unhashable: probe every live value
                collider, candidates = _FREE, list(known.items()) + loose
            if collider is _FREE:
                for other, owner in candidates:
                    if _values_collide(other, image):
                        collider = owner
                        break
            if collider is _FREE:
                if candidates is loose:  # the image hashed above
                    known[image] = None
                else:
                    loose.append((image, None))
                continue
            if collider is not None:
                if collider.begin is None and collider.xmin != txn.id:
                    # Another transaction's uncommitted insert: wait for
                    # it — only then do we know whether this is a
                    # duplicate or a free slot.
                    raise WriteConflict(collider.xmin)
                if collider.begin is not None and collider.xmax is not None:
                    # Committed row claimed by a live transaction that
                    # may be deleting it; wait for the claimant.
                    raise WriteConflict(collider.xmax)
            label = "PRIMARY KEY" if column.primary_key else "UNIQUE"
            raise errors.UniqueViolationError(
                f"duplicate value for {label} column "
                f"{column.name!r} of table {table.name!r}"
            )


def _target_table(name: str, privilege: str, session: Any) -> Table:
    table = session.catalog.get_table(name)
    session.check_table_privilege(privilege, name)
    if isinstance(table, VirtualTable):
        raise table.readonly_error("modify")
    return table


def _check_udt_usage(session: Any, column: Column) -> None:
    descriptor = column.descriptor
    if isinstance(descriptor, ObjectType):
        udt = session.catalog.types.get(descriptor.udt_name)
        if udt is not None:
            session.check_usage_privilege(udt)


def _typed_value(
    compiler: ExpressionCompiler,
    expr: ast.Expression,
    descriptor: TypeDescriptor,
    target: str,
) -> Compiled:
    """Compile a value stored into ``target`` (of type ``descriptor``),
    typed now rather than at the first row: a literal must coerce, any
    other typed expression must be assignable."""
    value = compiler.compile(expr)
    if isinstance(expr, ast.Literal):
        descriptor.coerce(expr.value)
    elif value.descriptor is not None \
            and not descriptor.assignable_from(value.descriptor):
        raise errors.InvalidCastError(
            f"cannot store {value.descriptor.sql_spelling()} into "
            f"{target} ({descriptor.sql_spelling()})"
        )
    return value


def _reads_database(node: Any) -> bool:
    """Whether an expression tree holds a subquery or a Part 1 external
    function call (which may run SQL of its own)."""
    if isinstance(node, (ast.ScalarSubquery, ast.Exists, ast.InSubquery)):
        return True
    if isinstance(node, ast.FunctionCall) \
            and lookup_builtin(node.name.lower()) is None:
        return True
    if isinstance(node, list):
        return any(_reads_database(item) for item in node)
    if isinstance(node, ast.Node):
        return any(_reads_database(item) for item in vars(node).values())
    return False


def _plan_insert(stmt: ast.Insert, session: Any) -> DmlPlan:
    """INSERT: ``VALUES`` and ``INSERT ... SELECT``, a plain execute (one
    parameter row) and ``executemany`` (N) all build and coerce every
    row a parameter row produces and append them with
    :meth:`RowStore.insert`, whose precondition is :func:`_check_unique`.
    Each parameter row is its own append when the source reads the
    database (a query, a subquery, an external function), so it sees the
    rows earlier ones inserted; a plain VALUES source appends every
    parameter row at once."""
    table = _target_table(stmt.table, "INSERT", session)
    columns = table.columns
    if stmt.columns is None:
        positions = list(range(len(columns)))
    else:
        positions = [table.column_position(name) for name in stmt.columns]
        if len(set(positions)) != len(positions):
            raise errors.SQLSyntaxError(
                "duplicate column in INSERT column list"
            )
    for position in positions:
        _check_udt_usage(session, columns[position])
    compiler = ExpressionCompiler(RowShape([]), session)
    defaults = [
        (position, None if column.default is None
         else compiler.compile(column.default).fn)
        for position, column in enumerate(columns)
        if position not in positions
    ]

    source = stmt.source
    if isinstance(source, ast.ValuesSource):
        value_rows = []
        for value_row in source.rows:
            if len(value_row) != len(positions):
                raise errors.SQLSyntaxError(
                    f"INSERT expects {len(positions)} values, "
                    f"got {len(value_row)}"
                )
            value_rows.append(Compiled.row([
                _typed_value(
                    compiler, expr, columns[position].descriptor,
                    f"column {columns[position].name!r}",
                )
                for position, expr in zip(positions, value_row)
            ]).fn)

        def produce(env: Env) -> List[List[Any]]:
            return [fn(env) for fn in value_rows]

        # A plain VALUES list cannot tell whether earlier parameter
        # rows were appended yet, so all of them are one append.
        per_row = _reads_database(source.rows)
    else:
        query, shape = plan_query(source, session)
        if len(shape) != len(positions):
            raise errors.SQLSyntaxError(
                f"INSERT expects {len(positions)} columns, the query "
                f"supplies {len(shape)}"
            )

        def produce(env: Env) -> List[List[Any]]:
            return query.run(env.session, env.params)

        per_row = True

    def build(values: Sequence[Any], env: Env) -> List[Any]:
        row: List[Any] = [None] * len(columns)
        for position, value in zip(positions, values):
            descriptor = columns[position].descriptor
            row[position] = store_value(descriptor.coerce(value), descriptor)
        for position, default in defaults:
            descriptor = columns[position].descriptor
            value = None if default is None else default(env)
            row[position] = store_value(descriptor.coerce(value), descriptor)
        for column, value in zip(columns, row):
            _check_not_null(column, value, table)
        return row

    def run(session: Any, param_rows: Sequence[Sequence[Any]]) -> List[int]:
        store = RowStore(table, session)
        appends = [[params] for params in param_rows] if per_row \
            else [param_rows]
        counts: List[int] = []
        for append in appends:
            rows: List[List[Any]] = []
            for params in append:
                env = Env([], params, None, session)
                before = len(rows)
                rows.extend(build(values, env) for values in produce(env))
                counts.append(len(rows) - before)
            store.insert(rows, precondition=lambda rows=rows: _check_unique(
                table, rows, store.txn
            ))
        return counts

    return DmlPlan(run)


def _target_rows(
    table: Table, where: Optional[ast.Expression], session: Any
) -> Callable[[Any, Sequence[Any]], List[RowVersion]]:
    """The planner's access path for the rows WHERE selects, as a
    function of (session, params) returning the visible versions —
    materialised before anything is claimed, so an UPDATE moving a row's
    key (``set k = k + 10 where k >= ?``) never meets its own
    replacements."""
    access, residual = plan_target(table, where, session)

    def targets(session: Any, params: Sequence[Any]) -> List[RowVersion]:
        versions = access.versions(Env((), params, None, session))
        if residual is None:
            return versions
        return [
            version for version in versions
            if residual(Env(version.row, params, None, session))
        ]

    return targets


def _plan_delete(stmt: ast.Delete, session: Any) -> DmlPlan:
    table = _target_table(stmt.table, "DELETE", session)
    targets = _target_rows(table, stmt.where, session)

    def run(session: Any, param_rows: Sequence[Sequence[Any]]) -> List[int]:
        store = RowStore(table, session)
        counts = []
        for params in param_rows:
            versions = targets(session, params)
            if versions:
                store.delete(versions)
            counts.append(len(versions))
        return counts

    return DmlPlan(run)


def _attribute_path(
    session: Any, column: Column, target: ast.AttributePath
) -> Tuple[TypeDescriptor, str]:
    """Validate a Part 2 ``column>>a>>b`` target against the declared
    types; returns the last attribute's type and a name for messages."""
    descriptor: Any = column.descriptor
    name = f"column {column.name!r}"
    for attribute in target.attributes:
        if not isinstance(descriptor, ObjectType):
            raise errors.SQLSyntaxError(
                f"{name} is not of an object type; >> assignment is not "
                "applicable"
            )
        binding = session.catalog.get_type(descriptor.udt_name).attribute(
            attribute
        )
        descriptor, name = binding.descriptor, f"attribute {attribute!r}"
    return descriptor, name


def _plan_update(stmt: ast.Update, session: Any) -> DmlPlan:
    table = _target_table(stmt.table, "UPDATE", session)
    columns = table.columns
    compiler = ExpressionCompiler(table_shape(table), session)
    assignments: List[Tuple[Any, int, Callable[[Env], Any]]] = []
    for assignment in stmt.assignments:
        target = assignment.target
        position = table.column_position(
            target if isinstance(target, str) else target.column
        )
        column = columns[position]
        if isinstance(target, str):
            _check_udt_usage(session, column)
            descriptor, name = column.descriptor, f"column {column.name!r}"
        else:
            descriptor, name = _attribute_path(session, column, target)
        assignments.append((target, position, _typed_value(
            compiler, assignment.value, descriptor, name
        ).fn))
    targets = _target_rows(table, stmt.where, session)

    def run(session: Any, param_rows: Sequence[Sequence[Any]]) -> List[int]:
        store = RowStore(table, session)
        counts = []
        for params in param_rows:
            versions = targets(session, params)
            # Claim every target first (first-updater-wins conflict
            # detection), then evaluate all replacement rows against
            # pre-update state — old versions are immutable, so the
            # images cannot shift under us.
            for version in versions:
                store.claim(version)
            new_rows: List[List[Any]] = []
            for version in versions:
                env = Env(version.row, params, None, session)
                new_row = list(version.row)
                for target, position, value_fn in assignments:
                    _assign(
                        columns[position], new_row, position, target,
                        value_fn(env), session,
                    )
                for column, cell in zip(columns, new_row):
                    _check_not_null(column, cell, table)
                new_rows.append(new_row)
            # The claimed old versions no longer count (their xmax is
            # ours), so the unique check sees exactly the table as it
            # will be.
            store.replace(new_rows, precondition=lambda: _check_unique(
                table, new_rows, store.txn
            ))
            counts.append(len(new_rows))
        return counts

    return DmlPlan(run)


def _assign(
    column: Column,
    row: List[Any],
    position: int,
    target: Any,
    value: Any,
    session: Any,
) -> None:
    """Store ``value`` into ``row[position]``, or into one attribute of
    its object when ``target`` is a (validated) attribute path."""
    if isinstance(target, str):
        row[position] = store_value(
            column.descriptor.coerce(value), column.descriptor
        )
        return

    # Part 2 attribute path: copy object, set the mapped field, store back.
    # Bindings are looked up on the runtime class: a stored value may be
    # of a subtype of the column's type.
    current = row[position]
    if current is None:
        raise errors.NullValueError(
            f"cannot assign attribute of NULL value in column "
            f"{target.column!r}"
        )
    updated = copy.deepcopy(current)
    node = updated
    path = target.attributes
    for attr_name in path[:-1]:
        binding = session.catalog.type_of(node).attribute(attr_name)
        node = getattr(node, binding.field_name)
        if node is None:
            raise errors.NullValueError(
                f"intermediate attribute {attr_name!r} is NULL"
            )
    binding = session.catalog.type_of(node).attribute(path[-1])
    setattr(node, binding.field_name, binding.descriptor.coerce(value))
    row[position] = updated
