"""INSERT / UPDATE / DELETE: one compile step, one generated function.

:func:`plan_dml` does everything that does not touch rows — table
lookup, privilege and read-only checks, column positions and arity, the
compiled VALUES rows or source query, column defaults, assignment
typing, ``>>`` attribute-path validation and the planner's access path
for the target rows — and emits the row work for every parameter row as
one function (:func:`~repro.engine.expressions.generate`).  It finds the
targets with the snapshot test inlined
(:func:`~repro.engine.executor.target_loop`) and claims them all first,
builds each new row from the compiled fragments with each written column
coerced as stored (:func:`~repro.engine.storage.stored`) and checked NOT
NULL, and appends the rows (:mod:`repro.engine.storage`'s fragments)
after :func:`_check_unique` when it writes a UNIQUE or PRIMARY KEY
column.  Expressions that can run SQL are evaluated outside the table's
mutation lock.  The plan keeps nothing of the session that compiled it,
so it is cached like a query plan, a prepared statement holds it, and
the translator's ``OnlineChecker`` runs the same compile step.

UPDATE supports the SQLJ Part 2 attribute-path targets from the paper::

    update emps set home_addr>>zip = '99123' where name = 'Bob Smith'

which copy the stored object, mutate the mapped Python field, and store
the result back (value semantics).
"""

from __future__ import annotations

import copy
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, \
    Tuple

from repro import errors
from repro.engine import ast
from repro.engine.catalog import Column, Table
from repro.engine.executor import LOOP_RUNTIME, target_loop
from repro.engine.expressions import Compiled, Env, ExpressionCompiler, \
    RowShape, fresh, generate, indent, prologue
from repro.engine.functions import lookup_builtin
from repro.engine.mvcc import RowVersion, Transaction, WriteConflict
from repro.engine.planner import COST_RANDOM_IO, COST_SEQ_IO, plan_query, \
    plan_target, table_shape
from repro.engine.storage import CLAIM_TARGETS, WRITE_RUNTIME, appending, \
    null_checks, stored
from repro.engine.virtual import VirtualTable
from repro.sqltypes import ObjectType, TypeDescriptor, compare_values
from repro.sqltypes.values import key_image

__all__ = ["DmlPlan", "plan_dml", "execute_insert", "execute_update",
           "execute_delete"]


class DmlPlan:
    """A compiled INSERT, UPDATE or DELETE.

    ``run(session, param_rows)``, generated from ``source``, applies the
    statement once per parameter row on ``session`` and returns the
    per-row affected counts (JDBC ``updateCounts``).  A failure —
    constraint violation, coercion error, injected fault — leaves the
    failing append untouched; the caller's statement rollback undoes
    earlier ones.
    """

    __slots__ = ("run", "source")

    def __init__(self, run: Callable[..., List[int]], source: str) -> None:
        self.run = run
        self.source = source


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

    The one uniqueness decision for INSERT and UPDATE alike.  It runs
    under the table's mutation lock immediately before the rows are
    appended (:func:`~repro.engine.storage.appending`): check-and-append
    is one atomic step, and a violation leaves the heap untouched.

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
    pending = [node]
    while pending:
        node = pending.pop()
        if isinstance(node, list):
            pending.extend(node)
        elif isinstance(node, ast.Node):
            if isinstance(node, (ast.ScalarSubquery, ast.Exists,
                                 ast.InSubquery)) \
                    or isinstance(node, ast.FunctionCall) \
                    and lookup_builtin(node.name.lower()) is None:
                return True
            pending.extend(vars(node).values())
    return False


# -- generated row work ------------------------------------------------------

def _bind(bindings: Dict[str, Any], value: Any) -> str:
    """A new name for ``value`` in the generated function."""
    name = fresh()
    bindings[name] = value
    return name


def _targets(table: Table, where: Optional[ast.Expression], session: Any,
             bindings: Dict[str, Any]) -> str:
    """Source setting ``ts`` to the versions WHERE selects, through the
    planner's access path — materialised before anything is claimed,
    so an UPDATE moving a row's key (``set k = k + 10 where k >= ?``)
    never meets its own replacements."""
    access, residual = plan_target(table, where, session)
    fragments: List[Compiled] = []
    text = target_loop(_bind(bindings, access), access, fragments, residual)
    for fragment in fragments:
        bindings.update(fragment.bindings)
    return text


#: A use of ``c``, the row-less Env fragments' helpers read.
_ENV = re.compile(r"c(?<![\w.]c)\b")


def _generate(table: Table, body: str, bindings: Dict[str, Any],
              head: str = "", tail: str = "") -> DmlPlan:
    """The statement's function: ``head``, then ``body`` (a function
    body's source) once per parameter row ``q`` (read as ``p``), then
    ``tail``.  The Env ``c`` is built only if a fragment reads it."""
    name = fresh()
    if _ENV.search(body):
        head = "    c = Env((), None, None, session)\n" + head
        body = "    c.params = q\n" + body
    source = (
        f"def {name}(session, param_rows):\n"
        "    txn = session.mvcc_txn\n    snap = txn.snapshot_seq\n"
        f"    me = txn.id\n    table = {_bind(bindings, table)}\n"
        f"    counts = []\n{head}    for q in param_rows:\n"
        + indent(prologue(body, "q") + body, 4) + tail
        + "    return counts\n"
    )
    return DmlPlan(generate(source, bindings, _RUNTIME)[name], source)


#: The unique check, as the ``check`` of a generated append.
_UNIQUE = "_check_unique(table, rows, txn)\n"
#: The claims of the targets ``ts``, inside an ``if ts:``.
_CLAIMS = indent(CLAIM_TARGETS, 4)


def _plan_insert(stmt: ast.Insert, session: Any) -> DmlPlan:
    """INSERT: ``VALUES`` and ``INSERT ... SELECT``, a plain execute (one
    parameter row) and ``executemany`` (N) all build and coerce every
    row a parameter row produces and append them after
    :func:`_check_unique`.  Each parameter row is its own append when
    the source reads the database (a query, a subquery, an external
    function), so it sees the rows earlier ones inserted; a plain VALUES
    source appends every parameter row at once."""
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
    bindings: Dict[str, Any] = {}

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
            ]))
            bindings.update(value_rows[-1].bindings)
        # Every VALUES row is evaluated before any is coerced.
        produce = f"[{', '.join(row.source for row in value_rows)}]"
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
        produce = f"{_bind(bindings, query)}.run(session, q)"
        per_row = True

    # The row: the values in list order, then the defaults, each
    # coerced, then NOT NULL in column order.
    build = ""
    for at, position in enumerate(positions):
        build += f"x = a[{at}]\n" + stored(
            columns[position].descriptor, "x", bindings
        ) + f"x{position} = x\n"
    for position, column in enumerate(columns):
        if position in positions:
            continue
        if column.default is None:
            build += f"x{position} = None\n"
            continue
        default = compiler.compile(column.default)
        bindings.update(default.bindings)
        build += f"x = {default.source}\n" + stored(
            column.descriptor, "x", bindings
        ) + f"x{position} = x\n"
    build += null_checks(columns, "x{}", range(len(columns)), bindings)
    row = ", ".join(f"x{position}" for position in range(len(columns)))
    append = appending("storage.insert", _UNIQUE if any(
        column.unique for column in columns) else "")
    body = (("    rows = []\n" if per_row else "") + "    k = len(rows)\n"
            f"    for a in {produce}:\n" + indent(build, 8)
            + f"        rows.append([{row}])\n"
            "    counts.append(len(rows) - k)\n" + (append if per_row else ""))
    return _generate(
        table, body, bindings,
        head="    r = ()\n" + ("" if per_row else "    rows = []\n"),
        tail="" if per_row else append,
    )


def _plan_delete(stmt: ast.Delete, session: Any) -> DmlPlan:
    table = _target_table(stmt.table, "DELETE", session)
    bindings: Dict[str, Any] = {}
    body = (_targets(table, stmt.where, session, bindings)
            + "    if ts:\n        _trigger('storage.delete')\n" + _CLAIMS
            + "        _ROWS_MUTATED.increment(len(ts))\n"
            "    counts.append(len(ts))\n")
    return _generate(table, body, bindings)


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
    """UPDATE: claim every target first (first-updater-wins conflict
    detection), then compute every replacement row against pre-update
    state — old versions are immutable, so the images cannot shift
    under us — and append them.  The claimed versions no longer count
    for the unique check (their ``xmax`` is ours), so it sees exactly
    the table as it will be."""
    table = _target_table(stmt.table, "UPDATE", session)
    columns = table.columns
    compiler = ExpressionCompiler(table_shape(table), session)
    bindings: Dict[str, Any] = {}
    assign = ""
    written: Set[int] = set()
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
        value = _typed_value(compiler, assignment.value, descriptor, name)
        bindings.update(value.bindings)
        if isinstance(target, str):
            assign += f"x = {value.source}\n" + stored(
                descriptor, "x", bindings
            ) + f"n[{position}] = x\n"
        else:
            assign += (
                f"_assign_attribute(n, {position}, "
                f"{_bind(bindings, target)}, {value.source}, session)\n"
            )
        written.add(position)
    assign += null_checks(columns, "n[{}]", written, bindings)
    body = (_targets(table, stmt.where, session, bindings)
            + "    if ts:\n" + _CLAIMS
            + "    rows = []\n    for v in ts:\n        r = v.row\n"
            "        n = list(r)\n" + indent(assign, 8)
            + "        rows.append(n)\n"
            + appending("storage.update", _UNIQUE if any(
                columns[position].unique for position in written) else "")
            + "    counts.append(len(rows))\n")
    return _generate(table, body, bindings)


def _assign_attribute(
    row: List[Any], position: int, target: ast.AttributePath, value: Any,
    session: Any,
) -> None:
    """Store ``value`` into one attribute of the object in
    ``row[position]`` along the (validated) attribute path ``target``:
    copy the object, set the mapped field, store the copy back.
    Bindings are looked up on the runtime class: a stored value may be
    of a subtype of the column's type."""
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


#: Globals of every generated DML function.
_RUNTIME = {
    **LOOP_RUNTIME, **WRITE_RUNTIME, "Env": Env,
    "_check_unique": _check_unique, "_assign_attribute": _assign_attribute,
}
