"""Expression compilation: SQL expression trees become Python source.

Compiling an expression resolves its names (correlated ones through an
outer-scope chain), infers its type for ``describe``, and emits a source
fragment over ``r`` (the row), ``p`` (the parameters) and ``c`` (the
run's session, parameters and outer row) through one table,
:data:`_EMITTERS`, keyed on the ``ast`` node class.  The executor
inlines fragments into operator loops; :attr:`Compiled.fn` makes one a
callable.  :func:`generate` is the engine's one ``compile()``/``exec()``.

Values — literals, regexes, routines, plans, helpers — are bound *by
name*: SQL text never becomes source.  A comparison is native Python
only when both operands are provably ``int`` or ``str``
(:func:`kind_of`); others call :func:`~repro.sqltypes.compare_values`.
``None`` is NULL.  Subqueries, Part 1 functions, correlated references
and SQLJ Part 2 (``NEW``, ``>>`` attributes and methods, static members,
dispatch on the runtime class) run in bound helpers.
"""

from __future__ import annotations

import copy
import decimal
import functools
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import errors
from repro.engine import ast
from repro.engine.catalog import UserDefinedType
from repro.engine.functions import NULL_TOLERANT, lookup_builtin, \
    result_type
from repro.sqltypes import (
    BooleanType,
    ObjectType,
    TypeDescriptor,
    VarCharType,
    common_supertype,
    compare_values,
    type_from_python_value,
    typecodes,
)
from repro.sqltypes.values import cast_value

__all__ = [
    "ColumnInfo", "RowShape", "Env", "Compiled", "ExpressionCompiler",
    "generate", "fresh", "kind_of", "prologue", "RUNTIME",
]


def kind_of(descriptor: Optional[TypeDescriptor]) -> Optional[str]:
    """``"int"``, ``"str"`` or ``"bool"``: the Python type of every
    non-NULL value a column of ``descriptor`` stores; None otherwise
    (DECIMAL, DOUBLE with its NaN, datetimes, Part 2 objects)."""
    code = getattr(descriptor, "type_code", None)
    if code in (typecodes.SMALLINT, typecodes.INTEGER, typecodes.BIGINT):
        return "int"
    if code is not None and typecodes.is_character(code):
        return "str"
    return "bool" if code == typecodes.BOOLEAN else None


@dataclass
class ColumnInfo:
    """One column of a row shape: optional table qualifier, name, type."""

    alias: Optional[str]
    name: str
    descriptor: Optional[TypeDescriptor]
    #: :func:`kind_of` of the values when provable (base-table columns,
    #: typed expressions), else None: the descriptor alone may not hold.
    kind: Optional[str] = None


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
        return RowShape([
            ColumnInfo(alias, c.name, c.descriptor, c.kind)
            for c in self.columns
        ])


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

    def env(self, row: Sequence[Any]) -> "Env":
        """``row``'s Env: this one's parameters, outer row, session."""
        return Env(row, self.params, self.outer, self.session)


_names = itertools.count()


def fresh() -> str:
    """A new name in generated source: a binding, temporary or function."""
    return f"_v{next(_names)}"


# ``\b_v\d+\b`` and ``\bp\[(\d+)\]`` with the leading boundary as a
# lookbehind: a literal start lets the regex skip ahead (several x faster).
_NAME = re.compile(r"_v(?<!\w_v)\d+\b")
_PARAM = re.compile(r"p\[(?<!\wp\[)(\d+)\]")
#: Canonical source -> code object: plans that differ only in the values
#: they bind (one query shape, other literals) share one.
_CODE: Dict[str, Any] = {}


def generate(source: str, bindings: Dict[str, Any],
             runtime: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Compile and run ``source`` with ``bindings`` and the ``runtime``
    helpers as globals; returns its ``_v`` names mapped to their values.
    Names are renumbered in order of appearance first, so only a new
    shape of source pays ``compile()``."""
    canonical: Dict[str, str] = {}
    text = _NAME.sub(
        lambda m: canonical.setdefault(m.group(), f"_v{len(canonical)}"),
        source,
    )
    code = _CODE.get(text)
    if code is None:
        if len(_CODE) >= 1024:
            _CODE.clear()
        code = _CODE[text] = compile(text, "<generated>", "exec")
    namespace = dict(RUNTIME if runtime is None else runtime)
    for name, value in bindings.items():
        if name in canonical:
            namespace[canonical[name]] = value
    exec(code, namespace)
    return {name: namespace[new] for name, new in canonical.items()
            if new in namespace}


def prologue(source: str) -> str:
    """The ``p = ...`` lines of a generated function reading ``source``:
    the run's parameters, or a stand-in raising for a missing one
    (:func:`_params`, inlined: the test costs no call on a point
    query's path)."""
    used = [int(index) for index in _PARAM.findall(source)]
    if not used:
        return ""
    needed = max(used) + 1
    return (f"    p = c.params\n    if p is None or len(p) < {needed}:\n"
            f"        p = _params(p, {needed})\n")


class _Unbound:
    """Parameters lacking a value a fragment reads: reading it (only
    rows that reach it do) raises :class:`~repro.errors.DataError`."""

    __slots__ = ("values",)

    def __init__(self, values: Optional[Sequence[Any]]) -> None:
        self.values = values or ()

    def __getitem__(self, index: int) -> Any:
        if index < len(self.values):
            return self.values[index]
        raise errors.DataError(f"no value bound for parameter {index + 1}")


def _params(values: Optional[Sequence[Any]], needed: int) -> Any:
    if values is not None and len(values) >= needed:
        return values
    return _Unbound(values)


class Compiled:
    """A compiled expression: Python source over ``r``/``p``/``c``, the
    objects it names (``bindings``), and its inferred type.

    ``kind`` is :func:`kind_of` of every value when provable.  ``pure``
    fragments (column reads, literals, typed arithmetic) can neither
    raise nor act, so surrounding code may skip evaluating them.
    ``test`` is the fragment as a strict bool: True exactly when its
    value is TRUE (WHERE, ON, HAVING, WHEN).
    """

    __slots__ = ("source", "descriptor", "bindings", "kind", "pure",
                 "test", "_fn")

    def __init__(
        self,
        source: str,
        descriptor: Optional[TypeDescriptor] = None,
        bindings: Optional[Dict[str, Any]] = None,
        kind: Optional[str] = None,
        pure: bool = False,
        test: Optional[str] = None,
    ) -> None:
        self.source = source
        self.descriptor = descriptor
        self.bindings = bindings or {}
        self.kind = kind
        self.pure = pure
        self.test = test or f"({source}) is True"
        self._fn: Optional[Callable[[Env], Any]] = None

    @classmethod
    def call(cls, fn: Callable[[Env], Any]) -> "Compiled":
        """The fragment calling ``fn`` with the row's :class:`Env`."""
        return _helper_call(fn, [], env=True)

    @classmethod
    def row(cls, items: Sequence["Compiled"]) -> "Compiled":
        """The list of ``items``' values, as one fragment."""
        return cls(f"[{', '.join(item.source for item in items)}]",
                   bindings=_merged(items))

    def function(self, name: str) -> str:
        """Source of ``def name(env)`` evaluating the fragment."""
        return (f"def {name}(c):\n    r = c.row\n{prologue(self.source)}"
                f"    return {self.source}\n")

    @property
    def fn(self) -> Callable[[Env], Any]:
        """The fragment as a callable of one :class:`Env`."""
        if self._fn is None:
            name = fresh()
            self._fn = generate(self.function(name), self.bindings)[name]
        return self._fn


def _constant(value: Any) -> Compiled:
    name = fresh()
    return Compiled(name, bindings={name: value})


def _merged(parts: Sequence[Compiled]) -> Dict[str, Any]:
    bindings: Dict[str, Any] = {}
    for part in parts:
        bindings.update(part.bindings)
    return bindings


def _helper_call(fn: Callable[..., Any], args: Sequence[Compiled],
                 descriptor: Optional[TypeDescriptor] = None,
                 env: bool = False, kind: Optional[str] = None) -> Compiled:
    """The fragment ``fn([env, ]*args)`` with ``fn`` bound; ``env``
    passes the row's :class:`Env` first."""
    name = fresh()
    values = (["c.env(r)"] if env else []) + [a.source for a in args]
    return Compiled(f"{name}({', '.join(values)})", descriptor,
                    {name: fn, **_merged(args)}, kind)


# -- runtime helpers generated code calls ------------------------------------

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


#: SQL comparison -> (Python operator source, test of a comparator result)
_COMPARISONS = {
    "=": ("==", operator.eq), "<>": ("!=", operator.ne),
    "<": ("<", operator.lt), "<=": ("<=", operator.le),
    ">": (">", operator.gt), ">=": (">=", operator.ge),
}


def _compare(test: Callable[[int, int], bool], left: Any, right: Any) -> Any:
    result = compare_values(left, right)
    return None if result is None else test(result, 0)


def _between(value: Any, low: Any, high: Any, negated: bool) -> Any:
    result = _and3(_compare(operator.ge, value, low),
                   _compare(operator.le, value, high))
    return None if result is None else result != negated


def _in_values(value: Any, items: Sequence[Any], negated: bool) -> Any:
    if value is None:
        return None
    saw_null = False
    for item in items:
        comparison = compare_values(value, item)
        if comparison is None:
            saw_null = True
        elif comparison == 0:
            return not negated
    return None if saw_null else negated


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
        out.append({"%": ".*", "_": "."}.get(ch) or re.escape(ch))
        i += 1
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _like(value: Any, pattern: Any, escape: Any, negated: bool) -> Any:
    if pattern is None:
        return None
    matched = _like_to_regex(str(pattern), escape).match(str(value))
    return (matched is None) if negated else (matched is not None)


def _strict(fn: Callable[..., Any], *values: Any) -> Any:
    """Call a NULL-intolerant built-in: any NULL argument gives NULL."""
    if any(value is None for value in values):
        return None
    return fn(*values)


#: Globals of every generated namespace.
RUNTIME: Dict[str, Any] = {
    "_params": _params, "_and3": _and3, "_or3": _or3, "_compare": _compare,
    "_eq": operator.eq,
}


def _external(call: Callable[[], Any]) -> Any:
    """Run routine/UDT code, mapping a Python error to SQLSTATE 38000."""
    try:
        return call()
    except errors.SQLException:
        raise
    except Exception as exc:
        raise errors.ExternalRoutineError.from_python(exc) from exc


class ExpressionCompiler:
    """Compiles AST expressions against a row shape.

    ``shape`` holds the columns unqualified references see at this query
    level; ``outer`` is the enclosing compiler of a correlated subquery.
    ``session`` is the *compiling* session (catalog lookups, privilege
    checks, subquery planning).  Generated code never keeps it: it
    reaches the *executing* session through ``c``, because one cached
    plan serves every session of its user.
    """

    def __init__(self, shape: RowShape, session: Any,
                 outer: Optional["ExpressionCompiler"] = None) -> None:
        self.shape = shape
        self.session = session
        self.outer = outer

    def compile(self, expr: ast.Expression) -> Compiled:
        emit = _EMITTERS.get(type(expr))
        if emit is None:
            raise errors.FeatureNotSupportedError(
                f"cannot compile expression node {type(expr).__name__}"
            )
        return emit(self, expr)

    def compile_predicate(self, expr: ast.Expression) -> Compiled:
        """Compile a WHERE/HAVING/ON predicate: unknown counts as false."""
        compiled = self.compile(expr)
        return Compiled(compiled.test, BooleanType(), compiled.bindings,
                        "bool", compiled.pure, compiled.test)

    def compile_sort_key(self, expr: ast.Expression) -> Compiled:
        """Compile an ORDER BY key, honouring Part 2 FULL orderings."""
        compiled = self.compile(expr)
        ordering = self._udt_ordering(compiled.descriptor)
        if ordering is None:
            return compiled
        kind, method_name = ordering
        if kind != "FULL":
            raise errors.InvalidCastError(
                "cannot ORDER BY a type with EQUALS ONLY ordering"
            )
        ordered = functools.cmp_to_key(
            lambda a, b: int(getattr(a, method_name)(b))
        )
        return _helper_call(
            lambda value: None if value is None else ordered(value),
            [compiled], compiled.descriptor,
        )

    def _udt(
        self, descriptor: Optional[TypeDescriptor]
    ) -> Optional[UserDefinedType]:
        if not isinstance(descriptor, ObjectType):
            return None
        return self.session.catalog.types.get(descriptor.udt_name)

    def _udt_ordering(
        self, descriptor: Optional[TypeDescriptor]
    ) -> Optional[Tuple[str, str]]:
        """(kind, python method) of the UDT's ordering spec, if any."""
        udt = self._udt(descriptor)
        return None if udt is None else udt.find_ordering()

    def _static_udt_target(
        self, expr: ast.Expression
    ) -> Optional[UserDefinedType]:
        """If ``expr`` is a bare name that is *not* a visible column but
        *is* a UDT name, return the UDT (static member access)."""
        if not isinstance(expr, ast.ColumnRef) or expr.table is not None:
            return None
        scope: Optional[ExpressionCompiler] = self
        while scope is not None:
            if scope.shape.find(expr.name) is not None:
                return None
            scope = scope.outer
        return self.session.catalog.types.get(expr.name)

    def _plan_subquery(self, query: ast.Node):
        from repro.engine import planner  # local import: cycle avoidance

        return planner.plan_query(query, self.session, outer=self)


# -- the emitter table: one function per AST node class ---------------------


def _literal(compiler: ExpressionCompiler, expr: ast.Literal) -> Compiled:
    value = expr.value
    compiled = _constant(value)
    compiled.pure = True
    if value is not None:
        compiled.descriptor = type_from_python_value(value)
        compiled.kind = "bool" if isinstance(value, bool) \
            else {int: "int", str: "str"}.get(type(value))
    return compiled


def _parameter(compiler: ExpressionCompiler, expr: ast.Parameter) -> Compiled:
    return Compiled(f"p[{expr.index}]")


def _column_ref(compiler: ExpressionCompiler, expr: ast.ColumnRef) -> Compiled:
    depth, scope = 0, compiler
    while scope is not None:
        position = scope.shape.find(expr.name, expr.table)
        if position is not None:
            column = scope.shape.columns[position]
            if depth == 0:
                return Compiled(f"r[{position}]", column.descriptor, None,
                                column.kind, pure=True)
            break
        depth, scope = depth + 1, scope.outer
    else:
        raise errors.UndefinedColumnError(
            f"column {expr.display()!r} does not exist in this scope"
        )

    def fetch_outer(env: Env) -> Any:  # a correlated reference
        for _ in range(depth):
            if env.outer is None:
                raise errors.DataError(
                    "missing outer row for correlated reference"
                )
            env = env.outer
        return env.row[position]

    return _helper_call(fetch_outer, [], column.descriptor, True,
                        column.kind)


def _unary(compiler: ExpressionCompiler, expr: ast.Unary) -> Compiled:
    operand = compiler.compile(expr.operand)
    if expr.op == "+":
        return operand
    temp = fresh()
    read = f"({temp} := {operand.source}) is not None"
    if expr.op == "NOT":
        boolean = operand.kind == "bool"
        return Compiled(
            f"(not {temp} if {read} else None)", BooleanType(),
            operand.bindings, "bool", operand.pure and boolean,
            f"({operand.source}) is False" if boolean else None,
        )
    kind = "int" if operand.kind == "int" else None
    return Compiled(f"(-{temp} if {read} else None)", operand.descriptor,
                    operand.bindings, kind, operand.pure and kind == "int")


def _typed(*operands: Compiled) -> Optional[str]:
    """The kind ("int" or "str") all ``operands`` provably share, when
    each is pure: then a native Python comparison of their values (CHAR
    pad spaces stripped) decides exactly what compare_values would."""
    kinds = {operand.kind for operand in operands}
    if len(kinds) == 1 and kinds <= {"int", "str"} \
            and all(operand.pure for operand in operands):
        return kinds.pop()
    return None


def _images(
    kind: str, operands: Sequence[Compiled]
) -> Tuple[List[Optional[str]], List[str], Dict[str, Any]]:
    """Per typed operand: the NULL check reading it into a temporary
    (None for a non-NULL constant), its comparison image, and the
    bindings all of it names."""
    checks: List[Optional[str]] = []
    images: List[str] = []
    bindings = _merged(operands)
    for operand in operands:
        constant = operand.bindings.get(operand.source)
        if constant is not None:
            checks.append(None)
            if kind == "str":
                stripped = _constant(constant.rstrip(" "))
                bindings.update(stripped.bindings)
                images.append(stripped.source)
            else:
                images.append(operand.source)
            continue
        temp = fresh()
        checks.append(f"({temp} := {operand.source}) is not None")
        images.append(f"{temp}.rstrip(' ')" if kind == "str" else temp)
    return checks, images, bindings


def _all(checks: Sequence[Optional[str]], then: str = "") -> str:
    """``checks`` (skipping absent ones) and ``then``, conjoined."""
    return " and ".join([c for c in checks if c] + ([then] if then else []))


def _typed_value(checks: Sequence[Optional[str]], value: str) -> str:
    """``value`` when every typed operand is non-NULL, else None."""
    return f"({value} if {_all(checks)} else None)" if any(checks) \
        else f"({value})"


def _binary(compiler: ExpressionCompiler, expr: ast.Binary) -> Compiled:
    op = expr.op
    if op in _COMPARISONS:
        return _comparison(compiler, expr)
    if op not in ("AND", "OR"):
        return _arithmetic(compiler, expr)
    left = compiler.compile(expr.left)
    right = compiler.compile(expr.right)
    # Both sides are evaluated unless the right one is pure.
    joiner = {("AND", True): "and", ("AND", False): "&",
              ("OR", True): "or", ("OR", False): "|"}[op, right.pure]
    return Compiled(
        f"{'_and3' if op == 'AND' else '_or3'}({left.source}, "
        f"{right.source})", BooleanType(), _merged([left, right]), "bool",
        left.pure and right.pure, f"(({left.test}) {joiner} ({right.test}))",
    )


def _comparison(compiler: ExpressionCompiler, expr: ast.Binary) -> Compiled:
    left = compiler.compile(expr.left)
    right = compiler.compile(expr.right)
    if (
        left.descriptor is not None
        and right.descriptor is not None
        and not left.descriptor.comparable_with(right.descriptor)
    ):
        raise errors.InvalidCastError(
            f"cannot compare {left.descriptor.sql_spelling()} with "
            f"{right.descriptor.sql_spelling()}"
        )
    symbol, test = _COMPARISONS[expr.op]

    # Part 2 ordering spec: route comparisons of UDT values through
    # the declared comparison method.
    ordering = compiler._udt_ordering(left.descriptor) or \
        compiler._udt_ordering(right.descriptor)
    if ordering is not None:
        kind, method_name = ordering
        if kind == "EQUALS" and expr.op not in ("=", "<>"):
            raise errors.InvalidCastError(
                "type declares EQUALS ONLY ordering; relational "
                f"operator {expr.op} is not available"
            )

        def compare_by_method(lv: Any, rv: Any) -> Optional[bool]:
            if lv is None or rv is None:
                return None
            return test(_external(
                lambda: int(getattr(lv, method_name)(rv))
            ), 0)

        return _helper_call(compare_by_method, [left, right], BooleanType(),
                            kind="bool")

    kind = _typed(left, right)
    if kind is None:
        return _helper_call(functools.partial(_compare, test),
                            [left, right], BooleanType(), kind="bool")
    checks, (a, b), bindings = _images(kind, [left, right])
    compare = f"{a} {symbol} {b}"
    return Compiled(_typed_value(checks, compare), BooleanType(), bindings,
                    "bool", True, f"({_all(checks, compare)})")


def _arithmetic(compiler: ExpressionCompiler, expr: ast.Binary) -> Compiled:
    left = compiler.compile(expr.left)
    right = compiler.compile(expr.right)
    op = expr.op
    dialect = getattr(compiler.session, "dialect", None)
    plus_concat = bool(
        dialect is not None and dialect.plus_concatenates_strings
    )

    descriptor: Optional[TypeDescriptor] = None
    if op == "||":
        descriptor = VarCharType(None)
    elif left.descriptor is not None and right.descriptor is not None:
        try:
            descriptor = common_supertype(left.descriptor, right.descriptor)
        except errors.SQLException:
            if op != "+" or not plus_concat:
                raise
            descriptor = VarCharType(None)

    if op in ("+", "-", "*") and _typed(left, right) == "int":
        checks, (a, b), bindings = _images("int", [left, right])
        return Compiled(_typed_value(checks, f"{a} {op} {b}"), descriptor,
                        bindings, "int", True)

    # A DECIMAL operand of a DOUBLE/REAL result is converted to float.
    to_float = getattr(descriptor, "type_code", None) in (
        typecodes.DOUBLE, typecodes.REAL
    )
    native = {"+": operator.add, "-": operator.sub, "*": operator.mul}

    def arith(lv: Any, rv: Any) -> Any:
        if lv is None or rv is None:
            return None
        if op == "||" or (op == "+" and plus_concat and (
                isinstance(lv, str) or isinstance(rv, str))):
            return str(lv) + str(rv)
        if isinstance(lv, str) or isinstance(rv, str):
            raise errors.InvalidCastError(
                f"operator {op} not defined for strings"
            )
        if to_float:
            lv, rv = (float(v) if isinstance(v, decimal.Decimal) else v
                      for v in (lv, rv))
        try:
            if op in native:
                return native[op](lv, rv)
            if rv == 0:
                raise errors.DivisionByZeroError(
                    "modulo by zero" if op == "%" else "division by zero"
                )
            if op == "%":
                return lv % rv
            if isinstance(lv, int) and isinstance(rv, int):
                quotient = abs(lv) // abs(rv)
                return quotient if (lv >= 0) == (rv >= 0) else -quotient
            return lv / rv
        except TypeError:
            raise errors.InvalidCastError(
                f"operator {op} not defined for "
                f"{type(lv).__name__} and {type(rv).__name__}"
            ) from None

    kind = "str" if op == "||" else \
        "int" if left.kind == right.kind == "int" else None
    compiled = _helper_call(arith, [left, right], descriptor, kind=kind)
    compiled.pure = op == "||" and left.pure and right.pure
    return compiled


def _is_null(compiler: ExpressionCompiler, expr: ast.IsNull) -> Compiled:
    operand = compiler.compile(expr.operand)
    source = f"({operand.source} {'is not' if expr.negated else 'is'} None)"
    return Compiled(source, BooleanType(), operand.bindings, "bool",
                    operand.pure, source)


def _between_node(compiler: ExpressionCompiler, expr: ast.Between) -> Compiled:
    parts = [compiler.compile(e) for e in (expr.operand, expr.low, expr.high)]
    compiled = _helper_call(
        functools.partial(_between, negated=expr.negated), parts,
        BooleanType(), kind="bool",
    )
    kind = _typed(*parts)
    if kind is not None:
        (cx, cl, ch), (x, low, high), bindings = _images(kind, parts)
        compiled.bindings.update(bindings)
        if expr.negated:
            outside = f"({_all([cl], f'{x} < {low}')}) or " \
                f"({_all([ch], f'{x} > {high}')})"
            compiled.test = f"({_all([cx], f'({outside})')})"
        else:
            inside = f"{low} <= {x} <= {high}"
            compiled.test = f"({_all([cx, cl, ch], inside)})"
        compiled.pure = True
    return compiled


def _in_list(compiler: ExpressionCompiler, expr: ast.InList) -> Compiled:
    operand = compiler.compile(expr.operand)
    items = [compiler.compile(item) for item in expr.items]
    constants = [item.bindings.get(item.source) for item in items]
    if _typed(operand) and all(
        value is not None and item.kind == operand.kind
        for item, value in zip(items, constants)
    ):
        if operand.kind == "str":
            constants = [value.rstrip(" ") for value in constants]
        members = _constant(frozenset(constants))
        [check], [image], bindings = _images(operand.kind, [operand])
        bindings.update(members.bindings)
        check = check or "True"
        member = f"{image} {'not in' if expr.negated else 'in'} " \
            f"{members.source}"
        return Compiled(f"({member} if {check} else None)", BooleanType(),
                        bindings, "bool", True, f"({check} and {member})")
    listed = Compiled("(" + "".join(f"{i.source}, " for i in items) + ")",
                      bindings=_merged(items))
    return _helper_call(functools.partial(_in_values, negated=expr.negated),
                        [operand, listed], BooleanType(), kind="bool")


def _like_node(compiler: ExpressionCompiler, expr: ast.Like) -> Compiled:
    operand = compiler.compile(expr.operand)
    temp = fresh()
    read = f"({temp} := {operand.source}) is not None"
    if isinstance(expr.pattern, ast.Literal) and expr.escape is None \
            and expr.pattern.value is not None:
        # Constant pattern: one regex, compiled now.
        regex = _constant(_like_to_regex(str(expr.pattern.value), None))
        outcome = "is None" if expr.negated else "is not None"
        match = f"{regex.source}.match(str({temp})) {outcome}"
    else:
        escape = compiler.compile(expr.escape) if expr.escape \
            else Compiled("None")
        regex = _helper_call(
            functools.partial(_like, negated=expr.negated),
            [Compiled(temp), compiler.compile(expr.pattern), escape],
        )
        match = regex.source
    return Compiled(f"({match} if {read} else None)", BooleanType(),
                    {**regex.bindings, **operand.bindings}, "bool")


def _case(compiler: ExpressionCompiler, expr: ast.CaseExpr) -> Compiled:
    arms = [(compiler.compile(w.condition), compiler.compile(w.result))
            for w in expr.whens]
    results = [result for _, result in arms]
    if expr.else_result is not None:
        results.append(compiler.compile(expr.else_result))
    descriptor: Optional[TypeDescriptor] = None
    for result in results:
        if result.descriptor is not None:
            descriptor = result.descriptor if descriptor is None \
                else common_supertype(descriptor, result.descriptor)
    # NULL arms fit any kind.
    kinds = {r.kind for r in results
             if r.bindings.get(r.source, r) is not None}
    operand = compiler.compile(expr.operand) if expr.operand else None
    parts = results + [condition for condition, _ in arms]
    bindings = _merged(parts + ([operand] if operand else []))
    source = results[-1].source if expr.else_result is not None else "None"
    temp = fresh()
    for index in reversed(range(len(arms))):
        condition, result = arms[index]
        if operand is None:
            test = condition.test
        else:
            # The operand is evaluated once, in the first WHEN.
            value = f"({temp} := {operand.source})" if index == 0 else temp
            test = f"_compare(_eq, {value}, {condition.source})"
        source = f"({result.source} if {test} else {source})"
    return Compiled(source, descriptor, bindings,
                    kinds.pop() if len(kinds) == 1 else None)


def _cast(compiler: ExpressionCompiler, expr: ast.Cast) -> Compiled:
    operand = compiler.compile(expr.operand)
    descriptor = compiler.session.catalog.resolve_type(expr.target_type)
    return _helper_call(cast_value, [operand, _constant(descriptor)],
                        descriptor, kind=kind_of(descriptor))


def _function_call(
    compiler: ExpressionCompiler, expr: ast.FunctionCall
) -> Compiled:
    args = [compiler.compile(a) for a in expr.args]
    name = expr.name.lower()
    if name == "current_user":
        return Compiled("c.session.user", VarCharType(None))
    builtin = lookup_builtin(name)
    if builtin is not None:
        descriptor = result_type(name, [a.descriptor for a in args])
        if name in NULL_TOLERANT:
            return _helper_call(builtin, args, descriptor)
        return _helper_call(_strict, [_constant(builtin)] + args, descriptor)

    # SQLJ Part 1 external function.
    routine = compiler.session.catalog.find_function(name)
    if routine is None:
        raise errors.UndefinedRoutineError(
            f"function {expr.name!r} does not exist"
        )
    if len(routine.params) != len(args):
        raise errors.SQLSyntaxError(
            f"function {expr.name!r} takes {len(routine.params)} "
            f"arguments, got {len(args)}"
        )
    compiler.session.check_execute_privilege(routine)
    return _helper_call(
        lambda env, *values: env.session.invoke_function(
            routine, list(values)
        ),
        args, routine.returns, env=True,
    )


# -- SQLJ Part 2 -----------------------------------------------------------


def _coerced(descriptors: Sequence[Optional[TypeDescriptor]],
             values: Sequence[Any]) -> List[Any]:
    return [value if d is None else d.coerce(value)
            for value, d in zip(values, descriptors)]


def _new_object(compiler: ExpressionCompiler, expr: ast.NewObject) -> Compiled:
    udt = compiler.session.catalog.get_type(expr.type_name.lower())
    compiler.session.check_usage_privilege(udt)
    args = [compiler.compile(a) for a in expr.args]
    constructor = next(
        (c for c in udt.constructors
         if len(c.param_descriptors) == len(args)), None
    )
    if constructor is None:
        raise errors.UndefinedRoutineError(
            f"type {udt.name!r} has no {len(args)}-argument constructor"
        )

    def construct(*values: Any) -> Any:
        values = _coerced(constructor.param_descriptors, values)
        return _external(lambda: udt.python_class(*values))

    return _helper_call(construct, args, udt.descriptor())


def _static_member(udt: UserDefinedType, binding: Any, what: str,
                   name: str) -> Any:
    if binding is None or not binding.static:
        error = errors.UndefinedColumnError if what == "attribute" \
            else errors.UndefinedRoutineError
        raise error(f"type {udt.name!r} has no static {what} {name!r}")
    return binding


def _attribute_ref(
    compiler: ExpressionCompiler, expr: ast.AttributeRef
) -> Compiled:
    attribute = expr.attribute
    static_udt = compiler._static_udt_target(expr.target)
    if static_udt is not None:
        binding = _static_member(static_udt,
                                 static_udt.find_attribute(attribute),
                                 "attribute", attribute)
        owner = _constant(static_udt.python_class)
        field = _constant(binding.field_name)
        return Compiled(f"getattr({owner.source}, {field.source})",
                        binding.descriptor, _merged([owner, field]))
    target = compiler.compile(expr.target)
    udt = compiler._udt(target.descriptor)

    def read(env: Env, obj: Any) -> Any:
        if obj is None:
            return None
        binding = env.session.catalog.type_of(obj).attribute(attribute)
        return getattr(obj, binding.field_name)

    return _helper_call(read, [target], udt and udt.attribute(
        attribute).descriptor, env=True)


def _method_call(compiler: ExpressionCompiler,
                 expr: ast.MethodCall) -> Compiled:
    args = [compiler.compile(a) for a in expr.args]
    method = expr.method
    static_udt = compiler._static_udt_target(expr.target)
    if static_udt is not None:
        binding = _static_member(static_udt, static_udt.find_method(method),
                                 "method", method)
        return _helper_call(
            _invoke,
            [_constant(static_udt.python_class)] + args + [_constant(binding)],
            binding.returns,
        )
    target = compiler.compile(expr.target)
    udt = compiler._udt(target.descriptor)

    def invoke(env: Env, obj: Any, *values: Any) -> Any:
        if obj is None:
            return None
        binding = env.session.catalog.type_of(obj).method(method)
        # Value semantics: the receiver may be a *stored* object and the
        # method may mutate it; invoke on a copy so queries can never
        # change table contents.
        return _invoke(copy.deepcopy(obj), *values, binding)

    return _helper_call(invoke, [target] + args,
                        udt and udt.method(method).returns, env=True)


def _invoke(target: Any, *rest: Any) -> Any:
    """Call method ``rest[-1]`` (a MethodBinding) on ``target`` with the
    arguments before it, coerced to the declared parameter types."""
    *values, binding = rest
    values = _coerced(binding.param_descriptors, values)
    result = _external(lambda: getattr(target, binding.python_name)(*values))
    if binding.returns is not None:
        result = binding.returns.coerce(result)
    return result


# -- aggregates and subqueries ----------------------------------------------


def _aggregate_call(
    compiler: ExpressionCompiler, expr: ast.AggregateCall
) -> Compiled:
    raise errors.SQLSyntaxError(
        f"aggregate {expr.name} is not allowed in this context"
    )


def _scalar_subquery(
    compiler: ExpressionCompiler, expr: ast.ScalarSubquery
) -> Compiled:
    plan, shape = compiler._plan_subquery(expr.query)
    if len(shape) != 1:
        raise errors.SQLSyntaxError(
            "scalar subquery must return exactly one column"
        )

    def scalar(env: Env) -> Any:
        rows = plan.run_correlated(env)
        if len(rows) > 1:
            raise errors.CardinalityError(
                "scalar subquery returned more than one row"
            )
        return rows[0][0] if rows else None

    column = shape.columns[0]
    return _helper_call(scalar, [], column.descriptor, True, column.kind)


def _exists(compiler: ExpressionCompiler, expr: ast.Exists) -> Compiled:
    plan, _shape = compiler._plan_subquery(expr.query)
    negated = expr.negated
    return _helper_call(
        lambda env: bool(plan.run_correlated(env, limit=1)) != negated,
        [], BooleanType(), True, "bool",
    )


def _in_subquery(compiler: ExpressionCompiler,
                 expr: ast.InSubquery) -> Compiled:
    operand = compiler.compile(expr.operand)
    plan, shape = compiler._plan_subquery(expr.subquery)
    if len(shape) != 1:
        raise errors.SQLSyntaxError(
            "IN subquery must return exactly one column"
        )
    negated = expr.negated

    def in_subquery(env: Env, value: Any) -> Optional[bool]:
        if value is None:
            return None
        return _in_values(
            value, [row[0] for row in plan.run_correlated(env)], negated
        )

    return _helper_call(in_subquery, [operand], BooleanType(), True, "bool")


_EMITTERS: Dict[type, Callable[[ExpressionCompiler, Any], Compiled]] = {
    ast.Literal: _literal,
    ast.Parameter: _parameter,
    ast.ColumnRef: _column_ref,
    ast.Unary: _unary,
    ast.Binary: _binary,
    ast.IsNull: _is_null,
    ast.Between: _between_node,
    ast.InList: _in_list,
    ast.Like: _like_node,
    ast.CaseExpr: _case,
    ast.Cast: _cast,
    ast.FunctionCall: _function_call,
    ast.NewObject: _new_object,
    ast.AttributeRef: _attribute_ref,
    ast.MethodCall: _method_call,
    ast.AggregateCall: _aggregate_call,
    ast.ScalarSubquery: _scalar_subquery,
    ast.Exists: _exists,
    ast.InSubquery: _in_subquery,
}
