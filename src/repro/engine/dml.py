"""INSERT / UPDATE / DELETE execution.

Each function takes the parsed statement, the executing session and the
dynamic parameter values (:func:`insert_rows`: one set per parameter
row), performs privilege and constraint checks, and mutates the target
table through the transactional :class:`~repro.engine.storage.RowStore`.
Every INSERT and UPDATE ends in heap appends guarded by the one
uniqueness decision, :func:`_check_unique`: one per UPDATE, and one per
INSERT unless its source reads the database (see :func:`insert_rows`).

UPDATE supports the SQLJ Part 2 attribute-path targets from the paper::

    update emps set home_addr>>zip = '99123' where name = 'Bob Smith'

which copy the stored object, mutate the mapped Python field, and store
the result back (value semantics).
"""

from __future__ import annotations

import copy
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro import errors
from repro.engine import ast
from repro.engine.catalog import Column, Table
from repro.engine.executor import RuntimeContext
from repro.engine.expressions import Env, ExpressionCompiler, RowShape
from repro.engine.functions import lookup_builtin
from repro.engine.mvcc import MvccTransaction, RowVersion, WriteConflict
from repro.engine.planner import (
    COST_RANDOM_IO,
    COST_SEQ_IO,
    plan_query,
    plan_target,
    table_shape,
)
from repro.engine.storage import RowStore, store_value
from repro.engine.virtual import VirtualTable
from repro.sqltypes import ObjectType, compare_values
from repro.sqltypes.values import key_image

__all__ = [
    "execute_insert",
    "insert_rows",
    "execute_update",
    "execute_delete",
]


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
    table: Table, rows: Sequence[List[Any]], txn: MvccTransaction
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


def _default_value(
    column: Column, session: Any, params: Sequence[Any]
) -> Any:
    if column.default is None:
        return None
    compiler = ExpressionCompiler(RowShape([]), session)
    return compiler.compile(column.default).fn(Env([], params, None, session))


def _reject_virtual(table: Table) -> None:
    if isinstance(table, VirtualTable):
        raise table.readonly_error("modify")


def execute_insert(
    stmt: ast.Insert, session: Any, params: Sequence[Any]
) -> int:
    """Run one INSERT for one parameter row; returns rows inserted."""
    [count] = insert_rows(stmt, session, [params])
    return count


def insert_rows(
    stmt: ast.Insert,
    session: Any,
    param_rows: Sequence[Sequence[Any]],
) -> List[int]:
    """Run one INSERT once per parameter row.

    The one INSERT body: ``VALUES`` and ``INSERT ... SELECT``, a plain
    execute (one parameter row) and ``executemany`` (N) all compile the
    source once, build and coerce every row one parameter row produces,
    and append them with :meth:`RowStore.insert`, whose precondition is
    :func:`_check_unique`.  Each parameter row is its own append when
    the source reads the database (a query, a subquery, an external
    function), so it sees the rows earlier ones inserted; a plain
    VALUES source appends every parameter row at once.  Returns the
    per-parameter-row counts (JDBC ``updateCounts``).  A failure —
    constraint violation, coercion error, injected fault — leaves the
    failing append untouched; the caller's statement rollback undoes
    the earlier ones.
    """
    table = session.catalog.get_table(stmt.table)
    session.check_table_privilege("INSERT", stmt.table)
    _reject_virtual(table)

    if stmt.columns is None:
        target_positions = list(range(len(table.columns)))
    else:
        target_positions = [
            table.column_position(name) for name in stmt.columns
        ]
        if len(set(target_positions)) != len(target_positions):
            raise errors.SQLSyntaxError(
                "duplicate column in INSERT column list"
            )

    source = stmt.source
    if isinstance(source, ast.ValuesSource):
        compiler = ExpressionCompiler(RowShape([]), session)
        value_rows = []
        for value_row in source.rows:
            if len(value_row) != len(target_positions):
                raise errors.SQLSyntaxError(
                    f"INSERT expects {len(target_positions)} values, "
                    f"got {len(value_row)}"
                )
            value_rows.append([compiler.compile(e).fn for e in value_row])

        def produce(params: Sequence[Any]) -> List[List[Any]]:
            env = Env([], params, None, session)
            return [[fn(env) for fn in fns] for fns in value_rows]
    else:
        plan, shape = plan_query(source, session)
        if len(shape) != len(target_positions):
            raise errors.SQLSyntaxError(
                f"INSERT expects {len(target_positions)} columns, the "
                f"query supplies {len(shape)}"
            )

        def produce(params: Sequence[Any]) -> Iterable[List[Any]]:
            return plan.run(session, params)

    defaulted = [
        position for position in range(len(table.columns))
        if position not in target_positions
    ]
    # A source that reads the database must see what earlier parameter
    # rows inserted, as N separate statements would; a plain VALUES list
    # cannot tell, so all its parameter rows are one append.
    if isinstance(source, ast.ValuesSource) \
            and not _reads_database(source.rows):
        appends = [param_rows]
    else:
        appends = [[params] for params in param_rows]
    store = RowStore(table, session)
    counts: List[int] = []
    for append in appends:
        rows: List[List[Any]] = []
        for params in append:
            before = len(rows)
            for values in produce(params):
                rows.append(_build_row(
                    table, target_positions, defaulted, values, session,
                    params,
                ))
            counts.append(len(rows) - before)
        store.insert(rows, precondition=lambda rows=rows: _check_unique(
            table, rows, store.txn
        ))
    return counts


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


def _build_row(
    table: Table,
    target_positions: List[int],
    defaulted: List[int],
    values: Sequence[Any],
    session: Any,
    params: Sequence[Any],
) -> List[Any]:
    row: List[Any] = [None] * len(table.columns)
    for position, value in zip(target_positions, values):
        column = table.columns[position]
        coerced = column.descriptor.coerce(value)
        _check_udt_usage(session, column)
        row[position] = store_value(coerced, column.descriptor)
    for position in defaulted:
        column = table.columns[position]
        default = _default_value(column, session, params)
        row[position] = store_value(
            column.descriptor.coerce(default), column.descriptor
        )
    for position, column in enumerate(table.columns):
        _check_not_null(column, row[position], table)
    return row


def _check_udt_usage(session: Any, column: Column) -> None:
    descriptor = column.descriptor
    if isinstance(descriptor, ObjectType):
        udt = session.catalog.types.get(descriptor.udt_name)
        if udt is not None:
            session.check_usage_privilege(udt)


def _targets(
    table: Table,
    where: Optional[ast.Expression],
    session: Any,
    params: Sequence[Any],
) -> List[RowVersion]:
    """The visible versions WHERE selects, read through the planner's
    access path and materialised before anything is claimed — so an
    UPDATE moving a row's key (``set k = k + 10 where k >= ?``) never
    meets its own replacements."""
    access, residual = plan_target(table, where, session)
    versions = access.versions(RuntimeContext(session, params))
    if residual is None:
        return versions
    return [
        version for version in versions
        if residual(Env(version.row, params, None, session))
    ]


def execute_delete(
    stmt: ast.Delete, session: Any, params: Sequence[Any]
) -> int:
    table = session.catalog.get_table(stmt.table)
    session.check_table_privilege("DELETE", stmt.table)
    _reject_virtual(table)
    versions = _targets(table, stmt.where, session, params)
    if versions:
        RowStore(table, session).delete(versions)
    return len(versions)


def execute_update(
    stmt: ast.Update, session: Any, params: Sequence[Any]
) -> int:
    table = session.catalog.get_table(stmt.table)
    session.check_table_privilege("UPDATE", stmt.table)
    _reject_virtual(table)
    shape = table_shape(table)
    compiler = ExpressionCompiler(shape, session)

    # Compile and validate assignments up front, independent of row
    # matches: target columns must exist and value types must be
    # assignable (strong typing at plan time, not first-match time).
    compiled: List[Tuple[Any, int, Any]] = []
    for assignment in stmt.assignments:
        value = compiler.compile(assignment.value)
        target = assignment.target
        position = table.column_position(
            target if isinstance(target, str) else target.column
        )
        column = table.columns[position]
        if isinstance(target, str):
            if isinstance(assignment.value, ast.Literal):
                column.descriptor.coerce(assignment.value.value)
            elif value.descriptor is not None and not \
                    column.descriptor.assignable_from(value.descriptor):
                raise errors.InvalidCastError(
                    f"cannot store {value.descriptor.sql_spelling()} "
                    f"into column {column.name!r} "
                    f"({column.descriptor.sql_spelling()})"
                )
        elif not isinstance(column.descriptor, ObjectType):
            raise errors.SQLSyntaxError(
                f"column {target.column!r} is not of an object type; "
                ">> assignment is not applicable"
            )
        compiled.append((target, position, value.fn))

    targets = _targets(table, stmt.where, session, params)
    store = RowStore(table, session)

    # Claim every target first (first-updater-wins conflict detection),
    # then evaluate all replacement rows against pre-update state —
    # old versions are immutable, so the images cannot shift under us.
    for version in targets:
        store.claim(version)

    new_rows: List[List[Any]] = []
    for version in targets:
        old_row = version.row
        env = Env(old_row, params, None, session)
        new_row = list(old_row)
        for target, position, value_fn in compiled:
            _apply_assignment(
                table.columns[position], new_row, position, target,
                value_fn(env), session,
            )
        for column, cell in zip(table.columns, new_row):
            _check_not_null(column, cell, table)
        new_rows.append(new_row)

    # The claimed old versions no longer count (their xmax is ours), so
    # the unique check sees exactly the table as it will be.
    store.replace(
        new_rows,
        precondition=lambda: _check_unique(table, new_rows, store.txn),
    )
    return len(new_rows)


def _apply_assignment(
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
        _check_udt_usage(session, column)
        row[position] = store_value(
            column.descriptor.coerce(value), column.descriptor
        )
        return

    # Part 2 attribute path: copy object, set the mapped field, store back.
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
        node = _read_attribute(session, node, attr_name)
        if node is None:
            raise errors.NullValueError(
                f"intermediate attribute {attr_name!r} is NULL"
            )
    _write_attribute(session, node, path[-1], value)
    row[position] = updated


def _binding_for(session: Any, obj: Any, attr_name: str):
    udt = session.catalog.type_for_class(type(obj))
    if udt is None:
        raise errors.UndefinedTypeError(
            f"class {type(obj).__name__!r} is not registered as a SQL type"
        )
    binding = udt.find_attribute(attr_name)
    if binding is None:
        raise errors.UndefinedColumnError(
            f"type {udt.name!r} has no attribute {attr_name!r}"
        )
    return binding


def _read_attribute(session: Any, obj: Any, attr_name: str) -> Any:
    return getattr(obj, _binding_for(session, obj, attr_name).field_name)


def _write_attribute(
    session: Any, obj: Any, attr_name: str, value: Any
) -> None:
    binding = _binding_for(session, obj, attr_name)
    setattr(obj, binding.field_name, binding.descriptor.coerce(value))
