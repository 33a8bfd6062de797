"""Expression compilation and evaluation.

The planner compiles every AST expression into a Python closure once per
statement; executing a row then costs only closure calls.  Compilation
also performs name resolution (binding column references to row positions,
with correlated references bound through an outer-scope chain) and type
inference, which the SQLJ ``describe`` protocol and typed iterators rely
on.

SQL three-valued logic is observed throughout: ``None`` is NULL/unknown.

SQLJ Part 2 hooks live here as well: ``NEW type(args)`` constructor calls,
``expr>>attr`` attribute reads and ``expr>>method(args)`` invocations,
including *static* members referenced through the type name and dynamic
dispatch on the runtime class (substitutability).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import errors
from repro.engine import ast
from repro.engine.catalog import MethodBinding, UserDefinedType
from repro.engine.functions import NULL_TOLERANT, lookup_builtin
from repro.sqltypes import (
    BooleanType,
    DoubleType,
    IntegerType,
    ObjectType,
    TypeDescriptor,
    VarCharType,
    common_supertype,
    compare_values,
    type_from_python_value,
)

__all__ = ["ColumnInfo", "RowShape", "Env", "Compiled", "ExpressionCompiler"]


@dataclass
class ColumnInfo:
    """One column of a row shape: optional table qualifier, name, type."""

    alias: Optional[str]
    name: str
    descriptor: Optional[TypeDescriptor]


class RowShape:
    """Describes the columns of rows flowing through an operator."""

    def __init__(self, columns: Sequence[ColumnInfo]) -> None:
        self.columns = list(columns)

    def __len__(self) -> int:
        return len(self.columns)

    def find(self, name: str, table: Optional[str] = None) -> Optional[int]:
        """Position of column ``name`` (optionally table-qualified).

        Returns None when absent; raises on ambiguity.
        """
        matches = [
            i
            for i, col in enumerate(self.columns)
            if col.name == name and (table is None or col.alias == table)
        ]
        if not matches:
            return None
        if len(matches) > 1:
            qualifier = f"{table}." if table else ""
            raise errors.CatalogError(
                f"ambiguous column reference {qualifier}{name!r}"
            )
        return matches[0]

    def merge(self, other: "RowShape") -> "RowShape":
        return RowShape(self.columns + other.columns)

    def with_alias(self, alias: str) -> "RowShape":
        return RowShape(
            [ColumnInfo(alias, c.name, c.descriptor) for c in self.columns]
        )


class Env:
    """Runtime environment for one row: values, parameters, outer row."""

    __slots__ = ("row", "params", "outer", "session")

    def __init__(
        self,
        row: Sequence[Any],
        params: Sequence[Any],
        outer: Optional["Env"] = None,
        session: Any = None,
    ) -> None:
        self.row = row
        self.params = params
        self.outer = outer
        self.session = session


@dataclass
class Compiled:
    """A compiled expression: evaluator closure plus inferred type."""

    fn: Callable[[Env], Any]
    descriptor: Optional[TypeDescriptor]


class _OrderedByMethod:
    """Sort-key wrapper dispatching comparisons to an ordering method."""

    __slots__ = ("value", "method")

    def __init__(self, value: Any, method: str) -> None:
        self.value = value
        self.method = method

    def _cmp(self, other: "_OrderedByMethod") -> int:
        return int(getattr(self.value, self.method)(other.value))

    def __lt__(self, other: "_OrderedByMethod") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "_OrderedByMethod") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "_OrderedByMethod") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "_OrderedByMethod") -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _OrderedByMethod) and \
            self._cmp(other) == 0

    def __hash__(self) -> int:  # pragma: no cover - not hashed in sorts
        return hash(id(self.value))


def _like_to_regex(pattern: str, escape: Optional[str]) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern into an anchored regex."""
    if escape is not None and len(escape) != 1:
        raise errors.DataError("LIKE escape must be a single character")
    out: List[str] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape is not None and ch == escape:
            if i + 1 >= len(pattern):
                raise errors.DataError("dangling LIKE escape character")
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _and3(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _or3(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


_COMPARE_TESTS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


class ExpressionCompiler:
    """Compiles AST expressions against a row shape.

    Parameters
    ----------
    shape:
        Columns visible to unqualified references at this query level.
    session:
        The compiling :class:`repro.engine.database.Session` (catalog
        lookups, privilege checks, subquery planning).  Compiled closures
        never keep it: they reach the *executing* session through
        ``env.session``, because one cached plan serves every session of
        its user.
    outer:
        Enclosing compiler for correlated subqueries, or None.
    allow_aggregates:
        When False (the default), encountering an AggregateCall raises —
        the planner replaces aggregates before compiling final projections.
    """

    def __init__(
        self,
        shape: RowShape,
        session: Any,
        outer: Optional["ExpressionCompiler"] = None,
        allow_aggregates: bool = False,
    ) -> None:
        self.shape = shape
        self.session = session
        self.outer = outer
        self.allow_aggregates = allow_aggregates

    # ------------------------------------------------------------------
    def compile(self, expr: ast.Expression) -> Compiled:
        method = getattr(self, f"_compile_{type(expr).__name__}", None)
        if method is None:
            raise errors.FeatureNotSupportedError(
                f"cannot compile expression node {type(expr).__name__}"
            )
        return method(expr)

    def compile_predicate(self, expr: ast.Expression) -> Callable[[Env], bool]:
        """Compile a WHERE/HAVING/ON predicate: unknown counts as false."""
        compiled = self.compile(expr)
        fn = compiled.fn
        return lambda env: fn(env) is True

    # -- leaves -----------------------------------------------------------
    def _compile_Literal(self, expr: ast.Literal) -> Compiled:
        value = expr.value
        descriptor = None if value is None else type_from_python_value(value)
        return Compiled(lambda env: value, descriptor)

    def _compile_Parameter(self, expr: ast.Parameter) -> Compiled:
        index = expr.index

        def fetch(env: Env) -> Any:
            params = env.params
            if params is None or index >= len(params):
                raise errors.DataError(
                    f"no value bound for parameter {index + 1}"
                )
            return params[index]

        return Compiled(fetch, None)

    def _compile_ColumnRef(self, expr: ast.ColumnRef) -> Compiled:
        position = self.shape.find(expr.name, expr.table)
        if position is not None:
            descriptor = self.shape.columns[position].descriptor
            return Compiled(
                lambda env, i=position: env.row[i], descriptor
            )
        # Correlated reference into an enclosing query?
        depth = 0
        scope = self.outer
        while scope is not None:
            depth += 1
            position = scope.shape.find(expr.name, expr.table)
            if position is not None:
                descriptor = scope.shape.columns[position].descriptor

                def fetch_outer(env: Env, d=depth, i=position) -> Any:
                    target = env
                    for _ in range(d):
                        if target.outer is None:
                            raise errors.DataError(
                                "missing outer row for correlated reference"
                            )
                        target = target.outer
                    return target.row[i]

                return Compiled(fetch_outer, descriptor)
            scope = scope.outer
        raise errors.UndefinedColumnError(
            f"column {expr.display()!r} does not exist in this scope"
        )

    # -- operators ----------------------------------------------------------
    def _compile_Unary(self, expr: ast.Unary) -> Compiled:
        operand = self.compile(expr.operand)
        fn = operand.fn
        if expr.op == "NOT":
            def negate(env: Env) -> Optional[bool]:
                value = fn(env)
                if value is None:
                    return None
                return not value
            return Compiled(negate, BooleanType())
        if expr.op == "-":
            def minus(env: Env) -> Any:
                value = fn(env)
                return None if value is None else -value
            return Compiled(minus, operand.descriptor)
        return Compiled(fn, operand.descriptor)  # unary +

    def _compile_Binary(self, expr: ast.Binary) -> Compiled:
        if expr.op == "AND":
            left, right = self.compile(expr.left).fn, self.compile(
                expr.right
            ).fn
            return Compiled(
                lambda env: _and3(left(env), right(env)), BooleanType()
            )
        if expr.op == "OR":
            left, right = self.compile(expr.left).fn, self.compile(
                expr.right
            ).fn
            return Compiled(
                lambda env: _or3(left(env), right(env)), BooleanType()
            )
        if expr.op in _COMPARE_TESTS:
            return self._compile_comparison(expr)
        return self._compile_arithmetic(expr)

    def _compile_comparison(self, expr: ast.Binary) -> Compiled:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if (
            left.descriptor is not None
            and right.descriptor is not None
            and not left.descriptor.comparable_with(right.descriptor)
        ):
            raise errors.InvalidCastError(
                f"cannot compare {left.descriptor.sql_spelling()} with "
                f"{right.descriptor.sql_spelling()}"
            )
        test = _COMPARE_TESTS[expr.op]
        lf, rf = left.fn, right.fn

        # Part 2 ordering spec: route comparisons of UDT values through
        # the declared comparison method.
        ordering = self._udt_ordering(left.descriptor) or \
            self._udt_ordering(right.descriptor)
        if ordering is not None:
            kind, method_name = ordering
            if kind == "EQUALS" and expr.op not in ("=", "<>"):
                raise errors.InvalidCastError(
                    "type declares EQUALS ONLY ordering; relational "
                    f"operator {expr.op} is not available"
                )

            def compare_by_method(env: Env) -> Optional[bool]:
                lv, rv = lf(env), rf(env)
                if lv is None or rv is None:
                    return None
                try:
                    outcome = int(getattr(lv, method_name)(rv))
                except errors.SQLException:
                    raise
                except Exception as exc:
                    raise errors.ExternalRoutineError.from_python(
                        exc
                    ) from exc
                return test(outcome)

            return Compiled(compare_by_method, BooleanType())

        def compare(env: Env) -> Optional[bool]:
            result = compare_values(lf(env), rf(env))
            return None if result is None else test(result)

        return Compiled(compare, BooleanType())

    def _udt_ordering(
        self, descriptor: Optional[TypeDescriptor]
    ) -> Optional[Tuple[str, str]]:
        """(kind, python method) of the UDT's ordering spec, if any."""
        if not isinstance(descriptor, ObjectType):
            return None
        udt = self.session.catalog.types.get(descriptor.udt_name)
        if udt is None:
            return None
        return udt.find_ordering()

    def compile_sort_key(self, expr: ast.Expression):
        """Compile an ORDER BY key, honouring Part 2 FULL orderings."""
        compiled = self.compile(expr)
        ordering = self._udt_ordering(compiled.descriptor)
        if ordering is None:
            return compiled.fn
        kind, method_name = ordering
        if kind != "FULL":
            raise errors.InvalidCastError(
                "cannot ORDER BY a type with EQUALS ONLY ordering"
            )
        fn = compiled.fn

        def wrapped(env: Env):
            value = fn(env)
            if value is None:
                return None
            return _OrderedByMethod(value, method_name)

        return wrapped

    def _compile_arithmetic(self, expr: ast.Binary) -> Compiled:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        op = expr.op
        lf, rf = left.fn, right.fn
        dialect = getattr(self.session, "dialect", None)
        plus_concat = bool(
            dialect is not None and dialect.plus_concatenates_strings
        )

        descriptor: Optional[TypeDescriptor]
        if op == "||":
            descriptor = VarCharType(None)
        else:
            try:
                if left.descriptor is not None and right.descriptor is not None:
                    descriptor = common_supertype(
                        left.descriptor, right.descriptor
                    )
                    if op == "/" and isinstance(descriptor, IntegerType):
                        descriptor = IntegerType()
                else:
                    descriptor = None
            except errors.SQLException:
                if op == "+" and plus_concat:
                    descriptor = VarCharType(None)
                else:
                    raise

        def arith(env: Env) -> Any:
            lv, rv = lf(env), rf(env)
            if lv is None or rv is None:
                return None
            if op == "||":
                return str(lv) + str(rv)
            if isinstance(lv, str) or isinstance(rv, str):
                if op == "+" and plus_concat:
                    return str(lv) + str(rv)
                raise errors.InvalidCastError(
                    f"operator {op} not defined for strings"
                )
            try:
                if op == "+":
                    return lv + rv
                if op == "-":
                    return lv - rv
                if op == "*":
                    return lv * rv
                if op == "%":
                    if rv == 0:
                        raise errors.DivisionByZeroError("modulo by zero")
                    return lv % rv
                # division
                if rv == 0:
                    raise errors.DivisionByZeroError("division by zero")
                if isinstance(lv, int) and isinstance(rv, int):
                    quotient = abs(lv) // abs(rv)
                    return quotient if (lv >= 0) == (rv >= 0) else -quotient
                return lv / rv
            except TypeError:
                raise errors.InvalidCastError(
                    f"operator {op} not defined for "
                    f"{type(lv).__name__} and {type(rv).__name__}"
                ) from None

        return Compiled(arith, descriptor)

    # -- predicates -----------------------------------------------------------
    def _compile_IsNull(self, expr: ast.IsNull) -> Compiled:
        operand = self.compile(expr.operand).fn
        if expr.negated:
            return Compiled(
                lambda env: operand(env) is not None, BooleanType()
            )
        return Compiled(lambda env: operand(env) is None, BooleanType())

    def _compile_Between(self, expr: ast.Between) -> Compiled:
        operand = self.compile(expr.operand).fn
        low = self.compile(expr.low).fn
        high = self.compile(expr.high).fn
        negated = expr.negated

        def between(env: Env) -> Optional[bool]:
            value = operand(env)
            low_cmp = compare_values(value, low(env))
            high_cmp = compare_values(value, high(env))
            lower_ok = None if low_cmp is None else low_cmp >= 0
            upper_ok = None if high_cmp is None else high_cmp <= 0
            result = _and3(lower_ok, upper_ok)
            if result is None:
                return None
            return (not result) if negated else result

        return Compiled(between, BooleanType())

    def _compile_InList(self, expr: ast.InList) -> Compiled:
        operand = self.compile(expr.operand).fn
        items = [self.compile(item).fn for item in expr.items]
        negated = expr.negated

        def in_list(env: Env) -> Optional[bool]:
            value = operand(env)
            if value is None:
                return None
            saw_null = False
            for item in items:
                comparison = compare_values(value, item(env))
                if comparison is None:
                    saw_null = True
                elif comparison == 0:
                    return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        return Compiled(in_list, BooleanType())

    def _compile_Like(self, expr: ast.Like) -> Compiled:
        operand = self.compile(expr.operand).fn
        pattern = self.compile(expr.pattern)
        escape = self.compile(expr.escape).fn if expr.escape else None
        negated = expr.negated

        # Fast path: constant pattern compiled once.
        constant_regex = None
        if isinstance(expr.pattern, ast.Literal) and expr.escape is None \
                and expr.pattern.value is not None:
            constant_regex = _like_to_regex(str(expr.pattern.value), None)

        def like(env: Env) -> Optional[bool]:
            value = operand(env)
            if value is None:
                return None
            if constant_regex is not None:
                regex = constant_regex
            else:
                pattern_value = pattern.fn(env)
                if pattern_value is None:
                    return None
                escape_value = escape(env) if escape else None
                regex = _like_to_regex(str(pattern_value), escape_value)
            matched = regex.match(str(value)) is not None
            return (not matched) if negated else matched

        return Compiled(like, BooleanType())

    def _compile_CaseExpr(self, expr: ast.CaseExpr) -> Compiled:
        operand = self.compile(expr.operand) if expr.operand else None
        whens: List[Tuple[Callable[[Env], Any], Callable[[Env], Any]]] = []
        result_types: List[TypeDescriptor] = []
        for when in expr.whens:
            condition = self.compile(when.condition)
            result = self.compile(when.result)
            if result.descriptor is not None:
                result_types.append(result.descriptor)
            whens.append((condition.fn, result.fn))
        else_fn = None
        if expr.else_result is not None:
            else_compiled = self.compile(expr.else_result)
            if else_compiled.descriptor is not None:
                result_types.append(else_compiled.descriptor)
            else_fn = else_compiled.fn

        descriptor: Optional[TypeDescriptor] = None
        for rt in result_types:
            descriptor = rt if descriptor is None else common_supertype(
                descriptor, rt
            )

        if operand is None:
            def searched(env: Env) -> Any:
                for condition, result in whens:
                    if condition(env) is True:
                        return result(env)
                return else_fn(env) if else_fn else None
            return Compiled(searched, descriptor)

        operand_fn = operand.fn

        def simple(env: Env) -> Any:
            value = operand_fn(env)
            for condition, result in whens:
                if compare_values(value, condition(env)) == 0:
                    return result(env)
            return else_fn(env) if else_fn else None

        return Compiled(simple, descriptor)

    def _compile_Cast(self, expr: ast.Cast) -> Compiled:
        from repro.sqltypes.values import cast_value

        operand = self.compile(expr.operand).fn
        descriptor = self.session.catalog.resolve_type(expr.target_type)
        return Compiled(
            lambda env: cast_value(operand(env), descriptor), descriptor
        )

    # -- calls ---------------------------------------------------------------
    def _compile_FunctionCall(self, expr: ast.FunctionCall) -> Compiled:
        args = [self.compile(a) for a in expr.args]
        arg_fns = [a.fn for a in args]
        name = expr.name.lower()

        if name == "current_user":
            return Compiled(lambda env: env.session.user, VarCharType(None))

        builtin = lookup_builtin(name)
        if builtin is not None:
            tolerant = name in NULL_TOLERANT

            def call_builtin(env: Env) -> Any:
                values = [fn(env) for fn in arg_fns]
                if not tolerant and any(v is None for v in values):
                    return None
                return builtin(*values)

            return Compiled(call_builtin, _builtin_result_type(name, args))

        # SQLJ Part 1 external function.
        routine = self.session.catalog.find_function(name)
        if routine is None:
            raise errors.UndefinedRoutineError(
                f"function {expr.name!r} does not exist"
            )
        if len(routine.params) != len(arg_fns):
            raise errors.SQLSyntaxError(
                f"function {expr.name!r} takes {len(routine.params)} "
                f"arguments, got {len(arg_fns)}"
            )
        self.session.check_execute_privilege(routine)

        def call_function(env: Env) -> Any:
            values = [fn(env) for fn in arg_fns]
            return env.session.invoke_function(routine, values)

        return Compiled(call_function, routine.returns)

    # -- SQLJ Part 2 -----------------------------------------------------------
    def _compile_NewObject(self, expr: ast.NewObject) -> Compiled:
        udt = self.session.catalog.get_type(expr.type_name.lower())
        self.session.check_usage_privilege(udt)
        args = [self.compile(a) for a in expr.args]
        constructor = _select_constructor(udt, len(args))
        arg_fns = [a.fn for a in args]
        param_descriptors = constructor.param_descriptors
        python_class = udt.python_class

        def construct(env: Env) -> Any:
            values = [
                descriptor.coerce(fn(env)) if descriptor is not None else fn(env)
                for fn, descriptor in zip(arg_fns, param_descriptors)
            ]
            try:
                return python_class(*values)
            except errors.SQLException:
                raise
            except Exception as exc:
                raise errors.ExternalRoutineError.from_python(exc) from exc

        return Compiled(construct, udt.descriptor())

    def _static_udt_target(
        self, expr: ast.Expression
    ) -> Optional[UserDefinedType]:
        """If ``expr`` is a bare name that is *not* a visible column but
        *is* a UDT name, return the UDT (static member access)."""
        if not isinstance(expr, ast.ColumnRef) or expr.table is not None:
            return None
        if self.shape.find(expr.name) is not None:
            return None
        scope = self.outer
        while scope is not None:
            if scope.shape.find(expr.name) is not None:
                return None
            scope = scope.outer
        return self.session.catalog.types.get(expr.name)

    def _compile_AttributeRef(self, expr: ast.AttributeRef) -> Compiled:
        static_udt = self._static_udt_target(expr.target)
        if static_udt is not None:
            binding = static_udt.find_attribute(expr.attribute)
            if binding is None or not binding.static:
                raise errors.UndefinedColumnError(
                    f"type {static_udt.name!r} has no static attribute "
                    f"{expr.attribute!r}"
                )
            python_class = static_udt.python_class
            field = binding.field_name
            return Compiled(
                lambda env: getattr(python_class, field), binding.descriptor
            )

        target = self.compile(expr.target)
        attribute = expr.attribute
        static_descriptor = self._attribute_descriptor(
            target.descriptor, attribute
        )

        def read(env: Env) -> Any:
            obj = target.fn(env)
            if obj is None:
                return None
            binding = _find_instance_attribute(env.session, obj, attribute)
            return getattr(obj, binding.field_name)

        return Compiled(read, static_descriptor)

    def _attribute_descriptor(
        self, descriptor: Optional[TypeDescriptor], attribute: str
    ) -> Optional[TypeDescriptor]:
        if not isinstance(descriptor, ObjectType):
            return None
        udt = self.session.catalog.types.get(descriptor.udt_name)
        if udt is None:
            return None
        binding = udt.find_attribute(attribute)
        if binding is None:
            raise errors.UndefinedColumnError(
                f"type {udt.name!r} has no attribute {attribute!r}"
            )
        return binding.descriptor

    def _compile_MethodCall(self, expr: ast.MethodCall) -> Compiled:
        args = [self.compile(a) for a in expr.args]
        arg_fns = [a.fn for a in args]

        static_udt = self._static_udt_target(expr.target)
        if static_udt is not None:
            binding = static_udt.find_method(expr.method)
            if binding is None or not binding.static:
                raise errors.UndefinedRoutineError(
                    f"type {static_udt.name!r} has no static method "
                    f"{expr.method!r}"
                )
            python_class = static_udt.python_class
            return Compiled(
                _make_method_invoker(
                    lambda env: python_class, binding, arg_fns, static=True
                ),
                binding.returns,
            )

        target = self.compile(expr.target)
        method_name = expr.method
        returns = self._method_descriptor(target.descriptor, method_name)
        target_fn = target.fn

        def invoke(env: Env) -> Any:
            obj = target_fn(env)
            if obj is None:
                return None
            binding = _find_instance_method(env.session, obj, method_name)
            values = [
                d.coerce(fn(env)) if d is not None else fn(env)
                for fn, d in zip(arg_fns, binding.param_descriptors)
            ]
            # Value semantics: the receiver may be a *stored* object and
            # the method may mutate it; invoke on a copy so queries can
            # never change table contents.
            import copy

            obj = copy.deepcopy(obj)
            try:
                result = getattr(obj, binding.python_name)(*values)
            except errors.SQLException:
                raise
            except Exception as exc:
                raise errors.ExternalRoutineError.from_python(exc) from exc
            if binding.returns is not None:
                result = binding.returns.coerce(result)
            return result

        return Compiled(invoke, returns)

    def _method_descriptor(
        self, descriptor: Optional[TypeDescriptor], method: str
    ) -> Optional[TypeDescriptor]:
        if not isinstance(descriptor, ObjectType):
            return None
        udt = self.session.catalog.types.get(descriptor.udt_name)
        if udt is None:
            return None
        binding = udt.find_method(method)
        if binding is None:
            raise errors.UndefinedRoutineError(
                f"type {udt.name!r} has no method {method!r}"
            )
        return binding.returns

    # -- aggregates and subqueries ----------------------------------------------
    def _compile_AggregateCall(self, expr: ast.AggregateCall) -> Compiled:
        raise errors.SQLSyntaxError(
            f"aggregate {expr.name} is not allowed in this context"
        )

    def _compile_ScalarSubquery(self, expr: ast.ScalarSubquery) -> Compiled:
        plan, shape = self._plan_subquery(expr.query)
        if len(shape) != 1:
            raise errors.SQLSyntaxError(
                "scalar subquery must return exactly one column"
            )

        def scalar(env: Env) -> Any:
            rows = plan.run_correlated(env)
            if not rows:
                return None
            if len(rows) > 1:
                raise errors.CardinalityError(
                    "scalar subquery returned more than one row"
                )
            return rows[0][0]

        return Compiled(scalar, shape.columns[0].descriptor)

    def _compile_Exists(self, expr: ast.Exists) -> Compiled:
        plan, _shape = self._plan_subquery(expr.query)
        negated = expr.negated

        def exists(env: Env) -> bool:
            found = bool(plan.run_correlated(env, limit=1))
            return (not found) if negated else found

        return Compiled(exists, BooleanType())

    def _compile_InSubquery(self, expr: ast.InSubquery) -> Compiled:
        operand = self.compile(expr.operand).fn
        plan, shape = self._plan_subquery(expr.subquery)
        if len(shape) != 1:
            raise errors.SQLSyntaxError(
                "IN subquery must return exactly one column"
            )
        negated = expr.negated

        def in_subquery(env: Env) -> Optional[bool]:
            value = operand(env)
            if value is None:
                return None
            saw_null = False
            for row in plan.run_correlated(env):
                comparison = compare_values(value, row[0])
                if comparison is None:
                    saw_null = True
                elif comparison == 0:
                    return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        return Compiled(in_subquery, BooleanType())

    def _plan_subquery(self, query: ast.Node):
        from repro.engine import planner  # local import: cycle avoidance

        return planner.plan_query(query, self.session, outer=self)


def _builtin_result_type(
    name: str, args: List[Compiled]
) -> Optional[TypeDescriptor]:
    """Best-effort result-type inference for built-in functions."""
    string_result = {
        "upper", "lower", "substring", "substr", "trim", "ltrim", "rtrim",
        "replace", "concat",
    }
    int_result = {
        "length", "char_length", "character_length", "position", "floor",
        "ceiling", "ceil", "sign",
    }
    double_result = {"power", "sqrt"}
    if name in string_result:
        return VarCharType(None)
    if name in int_result:
        return IntegerType()
    if name in double_result:
        return DoubleType()
    if name in ("abs", "mod", "round", "coalesce", "nullif") and args:
        return args[0].descriptor
    return None


def _select_constructor(udt: UserDefinedType, arity: int) -> MethodBinding:
    for constructor in udt.constructors:
        if len(constructor.param_descriptors) == arity:
            return constructor
    raise errors.UndefinedRoutineError(
        f"type {udt.name!r} has no {arity}-argument constructor"
    )


def _runtime_udt(session: Any, obj: Any) -> UserDefinedType:
    udt = session.catalog.type_for_class(type(obj))
    if udt is None:
        raise errors.UndefinedTypeError(
            f"class {type(obj).__name__!r} is not registered as a SQL type"
        )
    return udt


def _find_instance_attribute(session: Any, obj: Any, attribute: str):
    udt = _runtime_udt(session, obj)
    binding = udt.find_attribute(attribute)
    if binding is None:
        raise errors.UndefinedColumnError(
            f"type {udt.name!r} has no attribute {attribute!r}"
        )
    return binding


def _find_instance_method(session: Any, obj: Any, method: str):
    udt = _runtime_udt(session, obj)
    binding = udt.find_method(method)
    if binding is None:
        raise errors.UndefinedRoutineError(
            f"type {udt.name!r} has no method {method!r}"
        )
    return binding


def _make_method_invoker(target_fn, binding: MethodBinding, arg_fns, static):
    def invoke(env: Env) -> Any:
        target = target_fn(env)
        values = [
            d.coerce(fn(env)) if d is not None else fn(env)
            for fn, d in zip(arg_fns, binding.param_descriptors)
        ]
        try:
            result = getattr(target, binding.python_name)(*values)
        except errors.SQLException:
            raise
        except Exception as exc:
            raise errors.ExternalRoutineError.from_python(exc) from exc
        if binding.returns is not None:
            result = binding.returns.coerce(result)
        return result

    return invoke
