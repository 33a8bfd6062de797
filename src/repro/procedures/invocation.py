"""Invoking external routines (SQLJ Part 1 runtime).

Implements the paper's calling conventions:

* **OUT / INOUT parameters.**  "Those parameters are declared as Java
  arrays, to act as 'containers'."  Here the containers are one-element
  Python lists: the routine assigns ``container[0]``.
* **Dynamic result sets.**  A procedure declared ``DYNAMIC RESULT SETS n``
  receives ``n`` extra one-element list containers; it stores a result
  set (a dbapi ``ResultSet`` or an engine rowset) in each.
* **Default connection.**  Inside a routine body,
  ``DriverManager.get_connection("DBAPI:DEFAULT:CONNECTION")`` (the
  paper's ``"JDBC:DEFAULT:CONNECTION"`` is accepted too) returns a
  connection sharing the invoking session and its transaction.
* **Definer's rights.**  The body runs under the routine owner's
  authorization.
* **SQLSTATE mapping.**  Uncaught exceptions surface to SQL as SQLSTATEs
  (:mod:`repro.procedures.sqlstate`).
"""

from __future__ import annotations

import contextvars
from typing import Any, List, Optional, Sequence

from repro import errors, faultpoints
from repro.engine.catalog import Routine
from repro.engine.database import Session, StatementResult
from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.procedures.sqlstate import to_sql_exception

__all__ = [
    "invoke_function",
    "default_connection_session",
    "call_routine",
]

_FUNCTION_CALLS = _metrics.registry.counter("functions.calls")
_PROCEDURE_CALLS = _metrics.registry.counter("procedures.calls")

#: Session of the innermost routine invocation on this thread/task.
_DEFAULT_SESSION: contextvars.ContextVar[Optional[Session]] = \
    contextvars.ContextVar("pysqlj_default_session", default=None)


def default_connection_session() -> Session:
    """Session behind ``DBAPI:DEFAULT:CONNECTION`` (raises outside a
    routine invocation)."""
    session = _DEFAULT_SESSION.get()
    if session is None:
        raise errors.ConnectionError_(
            "DBAPI:DEFAULT:CONNECTION is only available inside an "
            "external routine invocation"
        )
    return session


def _invoke_body(session: Session, routine: Routine, args: List[Any]) -> Any:
    """Run the routine body with the Part 1 execution environment.

    Functions can be invoked once per candidate row, so the trace span is
    only opened when tracing is on.
    """
    target = routine.callable
    if target is None:
        raise errors.RoutineResolutionError(
            f"routine {routine.name!r} has no resolved implementation"
        )
    faultpoints.trigger("procedure.invoke")
    tracer = _tracing.current
    if not tracer.enabled:
        return _run_body(session, routine, target, args)
    with tracer.span(
        "procedure", name=routine.name, language=routine.language
    ):
        return _run_body(session, routine, target, args)


def _run_body(
    session: Session, routine: Routine, target: Any, args: List[Any]
) -> Any:
    if routine.language == "SYSTEM":
        # System procedures (sqlj.*) run as the caller and receive
        # the session explicitly.
        return target(session, *args)

    token = _DEFAULT_SESSION.set(session)
    outermost = session._routine_depth == 0
    if outermost:
        # Call-duration state (see repro.procedures.state.call_state):
        # one dict for the outermost invocation and everything nested.
        session._routine_call_state = {}
    try:
        with session.impersonate(routine.owner), \
                session.routine_call():
            try:
                return target(*args)
            except Exception as exc:  # noqa: BLE001 - to SQLSTATE
                raise to_sql_exception(exc) from exc
    finally:
        _DEFAULT_SESSION.reset(token)
        if outermost:
            session._routine_call_state = None


def _host_value(descriptor: Any, value: Any) -> Any:
    """Convert a coerced SQL value for handing to host-language code.

    CHAR values cross the boundary with their pad blanks stripped: the
    paper's ``region`` example compares a CHAR(20) column against short
    string literals, which only works under trimmed semantics (SQL CHAR
    comparison ignores trailing blanks; the host language's does not).
    """
    from repro.sqltypes.core import CharType

    if isinstance(descriptor, CharType) and isinstance(value, str):
        return value.rstrip(" ")
    return value


def _coerce_in_args(routine: Routine, args: Sequence[Any]) -> List[Any]:
    """The IN and INOUT values as the body receives them; compiling the
    call checked that there is one per parameter."""
    return [
        _host_value(param.descriptor, param.descriptor.coerce(value))
        for param, value in zip(routine.in_params(), args)
    ]


def invoke_function(
    session: Session, routine: Routine, args: Sequence[Any]
) -> Any:
    """Invoke a Part 1 function from a SQL expression (compiled by
    :mod:`repro.engine.expressions`, which resolved the function and
    checked its arity and EXECUTE privilege)."""
    _FUNCTION_CALLS.increment()
    values = _coerce_in_args(routine, args)
    result = _invoke_body(session, routine, values)
    if routine.returns is not None:
        result = routine.returns.coerce(result)
    return result


def call_routine(
    session: Session,
    routine: Routine,
    in_values: Sequence[Any],
) -> StatementResult:
    """Call a procedure with already-evaluated input values: the body of
    a compiled CALL (:class:`repro.engine.database.CallPlan`), which
    checked the procedure, its arity and the EXECUTE privilege.

    Builds OUT and result-set containers, invokes the body, and collects
    outputs.  ``out_values`` in the result is aligned with the routine's
    full parameter list (None at IN positions).
    """
    _PROCEDURE_CALLS.increment()
    coerced = _coerce_in_args(routine, in_values)
    coerced_iter = iter(coerced)

    call_args: List[Any] = []
    containers: List[Optional[List[Any]]] = []
    for param in routine.params:
        if param.mode == "IN":
            call_args.append(next(coerced_iter))
            containers.append(None)
        elif param.mode == "OUT":
            container: List[Any] = [None]
            call_args.append(container)
            containers.append(container)
        else:  # INOUT
            container = [next(coerced_iter)]
            call_args.append(container)
            containers.append(container)

    result_set_containers: List[List[Any]] = [
        [None] for _ in range(routine.dynamic_result_sets)
    ]
    call_args.extend(result_set_containers)

    _invoke_body(session, routine, call_args)

    out_values: List[Any] = []
    for param, container in zip(routine.params, containers):
        if container is None:
            out_values.append(None)
        else:
            out_values.append(param.descriptor.coerce(container[0]))

    result_sets = [
        _materialise_result_set(container[0], routine)
        for container in result_set_containers
        if container[0] is not None
    ]
    return StatementResult(
        "call", out_values=out_values, result_sets=result_sets
    )


def _materialise_result_set(value: Any, routine: Routine) -> StatementResult:
    """Normalise whatever the routine stored in a result-set container."""
    if isinstance(value, StatementResult):
        if not value.is_rowset:
            raise errors.ExternalRoutineInvocationError(
                f"routine {routine.name!r} stored a non-rowset result"
            )
        return value
    to_result = getattr(value, "to_statement_result", None)
    if to_result is not None:
        return to_result()
    raise errors.ExternalRoutineInvocationError(
        f"routine {routine.name!r} stored an object of type "
        f"{type(value).__name__} in a result-set container"
    )

