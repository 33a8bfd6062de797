"""Row storage: the forward path of every write.

Tables keep their rows as append-only lists of
:class:`repro.engine.mvcc.RowVersion` objects; what this module adds is
*transactional mutation*: every insert/delete/update goes through the
session's :class:`repro.engine.mvcc.Transaction`, which records it in
its write list — undone on ROLLBACK, stamped at COMMIT — so concurrent
snapshots never observe uncommitted state.

An INSERT appends provisional versions (``begin`` unstamped until
commit) — all of a statement's rows in one append; DELETE/UPDATE never
remove anything — they *claim* the target version by writing the
transaction id into ``xmax``, and an UPDATE additionally appends its
replacements through the same append.  Claiming a version another live
transaction already claimed raises
:class:`repro.engine.mvcc.WriteConflict` (the session layer waits and
retries); claiming one a *committed* transaction already ended raises
:class:`repro.errors.SerializationFailureError` — first-updater-wins,
SQLSTATE 40001.

Claim and append are written once, as Python source
(:data:`CLAIM_VERSION`, :data:`APPEND_ROWS`), like the visibility rule:
the generated function of every INSERT, UPDATE and DELETE
(:mod:`repro.engine.dml`) inlines them, with each value coerced as its
column stores it (:func:`stored`).  Secondary indexes are maintained in
step with the heap: an append adds each new version to every index,
and undoing the write-list entry it records (:meth:`Transaction.undo
<repro.engine.mvcc.Transaction.undo>`) takes the versions out of both,
so a rollback leaves indexes consistent without a rebuild.  Part 2
objects are stored **by value**: inserting an object deep-copies it into
the heap and a result copies it back out, so a caller mutating its own
instance never changes stored data — the paper's "objects-by-value"
JDBC semantics.
"""

from __future__ import annotations

import copy
import functools
from typing import Any, Dict, List, Optional

from repro import errors, faultpoints
from repro.engine.catalog import Table
from repro.engine.expressions import RUNTIME, fresh, indent
from repro.engine.mvcc import CLAIM, INSERT, RowVersion, WriteConflict, \
    thaw
from repro.observability import metrics as _metrics
from repro.sqltypes import BigIntType, CharType, ClobType, DoubleType, \
    IntegerType, ObjectType, RealType, SmallIntType, TypeDescriptor, \
    VarCharType

__all__ = ["CLAIM_VERSION", "APPEND_ROWS", "CLAIM_TARGETS",
           "appending", "stored", "null_checks", "WRITE_RUNTIME"]

#: Heap mutations (rows inserted + deleted + replaced) across every
#: table; pairs with the ``wal.*`` counters to show write amplification.
_ROWS_MUTATED = _metrics.registry.counter("rows.mutated")


def _refuse_claim(version: RowVersion, txn: Any, table: Table) -> None:
    """Raise for a claim of a version another transaction claimed or
    ended (see :data:`CLAIM_VERSION`)."""
    if version.end is not None and not txn.pristine:
        # The claimant committed; its stamp is necessarily above our
        # snapshot (we could not see the version otherwise), so we lost
        # the write-write race and our pinned snapshot cannot absorb
        # the outcome.
        raise errors.SerializationFailureError(
            f"could not serialize access to table {table.name!r}: row "
            f"updated by a concurrent transaction; retry the transaction"
        )
    # Claimant still in flight — or already committed while our
    # snapshot is still pristine, in which case the conflict wait
    # returns immediately, the snapshot is refreshed, and the statement
    # transparently retries.
    raise WriteConflict(version.xmax)


#: The write claim, once, as Python source over a version ``v``, the
#: claiming transaction ``txn``, its id ``me`` and ``table``, run under
#: the table's mutation lock, which generated UPDATE and DELETE loops
#: inline.  First-updater-wins: a version a transaction that committed
#: after this *pinned* snapshot already ended raises
#: :class:`~repro.errors.SerializationFailureError`; one a still-running
#: transaction holds — or whose claimant committed while this
#: transaction is still pristine, so the statement can transparently
#: retry on a fresh snapshot — raises
#: :class:`~repro.engine.mvcc.WriteConflict`.  A version this
#: transaction already claimed is left as it is; the block's frozen bit
#: is cleared before ``xmax`` is written (see ``mvcc.settled_runs``).
CLAIM_VERSION = (
    "claimant = v.xmax\n"
    "if claimant is None and v.end is None:\n"
    "    if v.block is not None:\n"
    "        thaw(v)\n"
    "    v.xmax = me\n"
    "    txn.record(CLAIM, table, v)\n"
    "elif claimant != me:\n"
    "    _refuse_claim(v, txn, table)\n"
)

#: The append, once, as Python source over the row lists ``rows``, the
#: appending transaction ``txn``, its id ``me`` and ``table``, run under
#: the table's mutation lock: a provisional version of every row lands
#: in the heap and every index, and one write-list entry (``vs``)
#: covers them.  Generated INSERT and UPDATE functions inline it
#: (:func:`appending`).
APPEND_ROWS = (
    "vs = []\n"
    "heap = table.versions\n"
    "indexes = table.indexes\n"
    "for n in rows:\n"
    "    v = RowVersion(n, me, None)\n"
    "    heap.append(v)\n"
    "    for ix in indexes:\n"
    "        ix.add(v)\n"
    "    vs.append(v)\n"
    "txn.record(INSERT, table, vs)\n"
)

#: :data:`CLAIM_VERSION` for each version of ``ts``, in order, under
#: one hold of the mutation lock: the claims of an UPDATE or DELETE, as
#: source at a function body's indentation.
CLAIM_TARGETS = ("    with table.mutation_lock:\n        for v in ts:\n"
                 + indent(CLAIM_VERSION, 12))


@functools.lru_cache(maxsize=None)
def appending(site: str, check: str = "") -> str:
    """Source, at a function body's indentation, appending the row lists
    ``rows`` if there are any: the ``site`` fault fires once per row
    first, then ``check`` (source: a unique check) and
    :data:`APPEND_ROWS` run under the table's mutation lock, so
    check-and-append is one atomic step."""
    return (f"    if rows:\n        for n in rows:\n"
            f"            _trigger({site!r})\n"
            "        with table.mutation_lock:\n"
            + indent(check + APPEND_ROWS, 12)
            + "        _ROWS_MUTATED.increment(len(rows))\n")


def _unchanged(descriptor: TypeDescriptor, var: str) -> Optional[str]:
    """A test over ``var``, True only of non-NULL values that
    ``descriptor.coerce`` returns as they are; None: no cheap test."""
    exact = f"{var}.__class__ is"
    if isinstance(descriptor, (SmallIntType, IntegerType, BigIntType)):
        return (f"{exact} int and {descriptor.minimum} <= {var} "
                f"<= {descriptor.maximum}")
    if isinstance(descriptor, CharType):
        return f"{exact} str and len({var}) == {descriptor.length}"
    if isinstance(descriptor, (VarCharType, ClobType)):
        length = descriptor.length
        return f"{exact} str" + ("" if length is None
                                 else f" and len({var}) <= {length}")
    if isinstance(descriptor, (RealType, DoubleType)):
        return f"{exact} float"
    return None


def stored(descriptor: TypeDescriptor, var: str,
           bindings: Dict[str, Any]) -> str:
    """Source replacing ``var`` by what a column of ``descriptor`` stores
    for it: the coerced value (a failure raises the coercion's SQLSTATE;
    a value the coercion returns as it is skips the call) and, for a
    Part 2 object, a deep copy — objects are stored by value, so a
    caller mutating its own instance never changes stored data."""
    coerce = fresh()
    bindings[coerce] = descriptor.coerce
    unchanged = _unchanged(descriptor, var)
    text = (f"if not ({var} is None"
            f"{'' if unchanged is None else ' or ' + unchanged}):\n"
            f"    {var} = {coerce}({var})\n")
    if isinstance(descriptor, ObjectType):
        text += f"if {var} is not None:\n    {var} = _deepcopy({var})\n"
    return text


def _not_null(column: Any, table: Table) -> None:
    raise errors.NotNullViolationError(
        f"column {column.name!r} of table {table.name!r} is NOT NULL"
    )


def null_checks(columns: List[Any], cell: str, positions: Any,
                bindings: Dict[str, Any]) -> str:
    """Source raising for a NULL in a NOT NULL column of ``table`` among
    ``positions``, in column order; ``cell`` spells a position's value."""
    checks = ""
    for position, column in enumerate(columns):
        if column.not_null and position in positions:
            name = fresh()
            bindings[name] = column
            checks += (f"if {cell.format(position)} is None:\n"
                       f"    _not_null({name}, table)\n")
    return checks


#: Globals of the fragments above.
WRITE_RUNTIME = {
    **RUNTIME, "_refuse_claim": _refuse_claim, "thaw": thaw,
    "CLAIM": CLAIM, "INSERT": INSERT, "RowVersion": RowVersion,
    "_trigger": faultpoints.trigger, "_ROWS_MUTATED": _ROWS_MUTATED,
    "_deepcopy": copy.deepcopy, "_not_null": _not_null,
}
